"""Independent graph helpers for generating inputs and checking outputs.

Nothing here imports skewspec: the checks must not trust the code they
check.  Graphs are plain ``(n, edges)`` pairs with each edge a sorted
``(u, v)`` tuple; an orientation is a dict from edge to its tail vertex.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from itertools import combinations


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return sorted(
        (v, v ^ (1 << k)) for v in range(1 << d) for k in range(d) if v < v ^ (1 << k)
    )


def complete_edges(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def complete_bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))


def write_text(path: str, text: str) -> None:
    """Write ``text`` over the file, cutting it to length afterwards.

    Not truncated to zero first: ext4 starts writeback of a file that was
    truncated to zero and rewritten when it is closed, so rewriting a set
    of small input files that way takes 4-10x longer, by an amount that
    swings with the load on a shared disk."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_undirected(path: str, n: int, edges) -> None:
    body = "".join(f"e {u} {v}\n" for u, v in edges)
    write_text(path, f"ug {n} {len(edges)}\n{body}")


def write_oriented(path: str, n: int, tails: dict) -> None:
    body = "".join(f"a {t} {v if t == u else u}\n" for (u, v), t in tails.items())
    write_text(path, f"og {n} {len(tails)}\n{body}")


def orient_by_bits(edges, bits) -> dict:
    """Bit 0 orients the sorted pair (u, v) as u -> v, bit 1 as v -> u."""
    return {(u, v): (v if b else u) for (u, v), b in zip(edges, bits)}


def read_oriented(path: str) -> tuple[int, dict]:
    """Parse an 'og' file into (n, tails); raises ValueError on anything odd."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "og":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    n, m = int(head[1]), int(head[2])
    tails = {}
    for line in lines[1:]:
        if not line:
            continue
        tag, t, h = line.split()
        t, h = int(t), int(h)
        if tag != "a" or t == h or not (0 <= t < n and 0 <= h < n):
            raise ValueError(f"{path}: bad arc line {line!r}")
        tails[(min(t, h), max(t, h))] = t
    if len(tails) != m:
        raise ValueError(f"{path}: header says {m} arcs, found {len(tails)} distinct")
    return n, tails


def strict_json(text: str):
    """json.loads that also rejects NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def adjacency(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(a) for a in nbrs]


def parity_coloring(n: int, edges, parity: dict) -> list[int] | None:
    """Colours c with c[u] ^ c[v] == parity[(u, v)] on every edge, or None.

    Each component's smallest vertex gets colour 0.  With every parity 1
    this is the canonical bipartition (side X = colour 0).
    """
    nbrs = adjacency(n, edges)
    colour = [-1] * n
    for root in range(n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                want = colour[u] ^ parity[(min(u, v), max(u, v))]
                if colour[v] == -1:
                    colour[v] = want
                    queue.append(v)
                elif colour[v] != want:
                    return None
    return colour


def elementary_tails(n: int, edges) -> dict:
    """All arcs from the canonical side X to side Y."""
    side = parity_coloring(n, edges, dict.fromkeys(edges, 1))
    if side is None:
        raise ValueError("graph is not bipartite")
    return {(u, v): (u if side[u] == 0 else v) for u, v in edges}


def disagreement(a: dict, b: dict) -> dict:
    return {e: int(a[e] != b[e]) for e in a}


def switching_equivalent(n: int, a: dict, b: dict) -> bool:
    """Two orientations are switching-equivalent iff they differ on a cut."""
    return parity_coloring(n, list(a), disagreement(a, b)) is not None


def apply_switch(tails: dict, w) -> dict:
    """Reverse every arc with exactly one endpoint in w."""
    ws = set(w)
    return {
        (u, v): ((v if t == u else u) if (u in ws) != (v in ws) else t)
        for (u, v), t in tails.items()
    }


def odd_disagreement_cycle(cycle, a: dict, b: dict) -> bool:
    """Whether ``cycle`` is a cycle of the graph on which a and b disagree
    an odd number of times, which refutes switching equivalence."""
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    flips = 0
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        e = (min(u, v), max(u, v))
        if e not in a:
            return False
        flips += a[e] != b[e]
    return flips % 2 == 1


def gram_is_scalar(n: int, tails: dict, k: int) -> bool:
    """Exact integer test of S S^T == k I from the arcs alone.

    (S S^T)[i, j] sums S[i, t] * S[j, t] over common neighbours t, so
    only pairs of neighbours of one vertex contribute.
    """
    signed = [[] for _ in range(n)]
    for (u, v), t in tails.items():
        h = v if t == u else u
        signed[h].append((t, 1))  # S[t, h] = 1
        signed[t].append((h, -1))  # S[h, t] = -1
    if any(len(col) != k for col in signed):
        return False
    sums: dict = {}
    for col in signed:
        for (i, si), (j, sj) in combinations(sorted(col), 2):
            sums[(i, j)] = sums.get((i, j), 0) + si * sj
    return not any(sums.values())


def close(x: float, y: float, rel: float) -> bool:
    return math.isfinite(x) and abs(x - y) <= rel * max(1.0, abs(y))
