"""The workloads: set-up, the CLI operations of one pass, and checks.

Each workload function takes a work directory and a seeded
``random.Random``, writes every input file there, and returns a
:class:`Plan`.  ``Plan.ops`` is one pass, run in order as a closed loop
by ``run.py``; ``Plan.probes`` are the reproduced known defects, run
once per run after the timed passes and reported on their own.

A check receives the :class:`Outcome` of one operation and a dict that
lives for one pass (so checks of one pass can share parsed files), and
raises :class:`CheckFailed` with a reason.  Expected verdicts come from
``oracles``, which does not import skewspec.  Set-up uses the library
only to build the family members the paper defines.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import oracles as orc

DEFAULT_TOL = 1e-08
# The CLI prints reals with 12 significant digits.
PRINT_REL = 1e-11


@dataclass
class Outcome:
    code: int | None  # None when cli.run raised
    out: str
    err: str
    exc: BaseException | None
    seconds: float


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[Outcome, dict], None]


@dataclass
class Plan:
    ops: list
    probes: list = field(default_factory=list)


def expect(cond, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def report(res: Outcome, code: int, command: str) -> dict:
    """The parsed report, after checking the exit code and the JSON."""
    expect(res.exc is None, f"raised {type(res.exc).__name__}: {res.exc}")
    expect(res.code == code, f"exit {res.code}, expected {code}")
    try:
        doc = orc.strict_json(res.out)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    expect(doc.get("command") == command, f"command {doc.get('command')!r}")
    return doc


def tails_of(memo: dict, path: str) -> dict:
    if path not in memo:
        memo[path] = orc.read_oriented(path)[1]
    return memo[path]


# ---------------------------------------------------------------- family

FAMILY_CLOSED_FORM = {
    "k44": lambda r: (2 ** (3 * r), 4 * r),
    "k4": lambda r: (2 ** (3 * r - 1), 4 * r - 1),
}


def _check_family(base: str, r: int, out: str):
    order, degree = FAMILY_CLOSED_FORM[base](r)

    def check(res, memo):
        doc = report(res, 0, "family")
        expect((doc["base"], doc["r"]) == (base, r), "base or r echoed wrong")
        expect(doc["order"] == order, f"order {doc['order']} != {order}")
        expect(doc["degree"] == degree, f"degree {doc['degree']} != {degree}")
        expect(doc["certificate"] is True and doc["maximum"] is True, "not certified")
        bound = order * math.sqrt(degree)
        expect(orc.close(doc["bound"], bound, PRINT_REL), "bound != n sqrt(k)")
        expect(orc.close(doc["energy"], bound, 1e-8), "energy off the bound")
        n, tails = orc.read_oriented(out)
        expect(n == order, f"file has order {n}")
        expect(orc.gram_is_scalar(n, tails, degree), "file fails S S^T = k I")

    return check


def _check_spectrum(n: int, k: int, certified: bool):
    def check(res, memo):
        doc = report(res, 0, "spectrum")
        vals = doc["values"]
        expect(doc["kind"] == "skew", f"kind {doc['kind']!r}")
        expect((doc["n"], doc["m"]) == (n, n * k // 2), "n or m wrong")
        expect(len(vals) == n, f"{len(vals)} values for order {n}")
        expect(all(a >= b for a, b in zip(vals, vals[1:])), "values not descending")
        expect(all(a == -b for a, b in zip(vals, reversed(vals))), "not antisymmetric")
        expect(doc["degree"] == k, f"degree {doc['degree']}")
        bound = n * math.sqrt(k)
        expect(orc.close(doc["bound"], bound, PRINT_REL), "bound != n sqrt(k)")
        expect(doc["certificate"] is certified, f"certificate {doc['certificate']}")
        expect(doc["maximum"] is certified, f"maximum {doc['maximum']}")
        energy = doc["energy"]
        expect(orc.close(energy, sum(abs(v) for v in vals), 1e-9), "energy != sum |v|")
        if certified:
            root = math.sqrt(k)
            expect(all(orc.close(abs(v), root, 1e-8) for v in vals), "|v| != sqrt(k)")
            expect(orc.close(energy, bound, 1e-8), "energy off the bound")
        else:
            expect(energy < bound, "uncertified energy reaches the bound")

    return check


def _family_ops(work: str, rng) -> list:
    from skewspec import FamilySpec, generate_family

    ops = []
    for base, r in [("k44", 1), ("k44", 2), ("k44", 3), ("k44", 4), ("k4", 4)]:
        out = os.path.join(work, f"{base}_r{r}.og")
        order, degree = FAMILY_CLOSED_FORM[base](r)
        argv = ["family", out, "--base", base, "--r", str(r)]
        ops.append(Op(f"family {base} r{r}", argv, _check_family(base, r, out)))
        ops.append(
            Op(f"spectrum {base} r{r}", ["spectrum", out], _check_spectrum(order, degree, True))
        )
    # A random orientation of the k4 r=4 graph: not bipartite and with no
    # certificate, so structure-aware shortcuts do not apply to it.
    g = generate_family(FamilySpec("k4", 4)).orientation.graph
    edges = list(g.edges)
    tails = orc.orient_by_bits(edges, [rng.getrandbits(1) for _ in edges])
    path = os.path.join(work, "k4_r4_random.og")
    orc.write_oriented(path, g.n, tails)
    k = g.regular_degree()
    certified = orc.gram_is_scalar(g.n, tails, k)
    ops.append(Op("spectrum k4 r4 random", ["spectrum", path], _check_spectrum(g.n, k, certified)))
    return ops


# ----------------------------------------------------- orientation sweep


def _check_check(n: int, tails: dict, elem: dict, uniform: bool):
    def check(res, memo):
        doc = report(res, 0 if uniform else 1, "check")
        expect((doc["n"], doc["m"]) == (n, len(tails)), "n or m wrong")
        expect(doc["tol"] == DEFAULT_TOL, f"tol {doc['tol']}")
        expect(doc["consistent"] is True, "consistent is not true")
        verdicts = (
            doc["spectral_match"],
            doc["all_chordless_uniform"],
            doc["equivalent_to_elementary"],
        )
        expect(verdicts == (uniform,) * 3, f"verdicts {verdicts}, expected {uniform}")
        if uniform:
            expect(doc["violating_cycle"] is None, "cycle on a uniform orientation")
            expect(orc.apply_switch(tails, doc["witness"]) == elem, "witness wrong")
        else:
            expect(doc["witness"] is None, "witness on a non-uniform orientation")
            cycle = doc["violating_cycle"]
            expect(orc.odd_disagreement_cycle(cycle, tails, elem), "bad violating cycle")

    return check


def _check_equiv(a_path: str, b_path: str, equivalent: bool):
    def check(res, memo):
        doc = report(res, 0 if equivalent else 1, "equiv")
        a, b = tails_of(memo, a_path), tails_of(memo, b_path)
        expect(doc["m"] == len(a), "m wrong")
        expect(doc["equivalent"] is equivalent, f"equivalent {doc['equivalent']}")
        if equivalent:
            expect(doc["violating_cycle"] is None, "cycle on equivalent pair")
            expect(orc.apply_switch(a, doc["witness"]) == b, "witness does not map a to b")
        else:
            expect(doc["witness"] is None, "witness on inequivalent pair")
            cycle = doc["violating_cycle"]
            expect(orc.odd_disagreement_cycle(cycle, a, b), "bad violating cycle")

    return check


def _check_switch(tails: dict, w: list, out: str):
    def check(res, memo):
        doc = report(res, 0, "switch")
        expect((doc["n"], doc["m"], doc["w"]) == (8, len(tails), w), "n, m or w wrong")
        expect(tails_of(memo, out) == orc.apply_switch(tails, w), "switched file is wrong")

    return check


def _check_rejects_tol(res, memo):
    # A NaN tolerance is a user error: a one-line error and exit 2.
    expect(res.exc is None, f"raised {type(res.exc).__name__}: {res.exc}")
    expect(res.code == 2, f"exit {res.code}, expected 2")
    expect(res.out == "" and res.err.startswith("error:"), "no clean error line")


def _check_file(work, name, n, edges, tails, elem=None):
    path = os.path.join(work, name)
    orc.write_oriented(path, n, tails)
    elem = elem or orc.elementary_tails(n, edges)
    uniform = orc.switching_equivalent(n, tails, elem)
    return Op(f"check {name}", ["check", path], _check_check(n, tails, elem, uniform))


Q3_ORIENTATIONS = 4096
Q3_UNIFORM = 128  # 2^(n-1) switching classes of the elementary one
EQUIV_PAIRS = 256
SWITCHES = 64


def orientation_sweep(work: str, rng) -> Plan:
    from skewspec import FamilySpec, generate_family, serialize_graph

    q3 = orc.hypercube_edges(3)
    elem = orc.elementary_tails(8, q3)
    q3_dir = os.path.join(work, "q3")
    os.makedirs(q3_dir, exist_ok=True)
    ops, q3_files = [], []
    for i in range(Q3_ORIENTATIONS):
        tails = orc.orient_by_bits(q3, [(i >> j) & 1 for j in range(len(q3))])
        ops.append(_check_file(q3_dir, f"{i:04d}.og", 8, q3, tails, elem))
        q3_files.append((os.path.join(q3_dir, f"{i:04d}.og"), tails))
    uniform = sum(orc.switching_equivalent(8, t, elem) for _, t in q3_files)
    if uniform != Q3_UNIFORM:
        raise RuntimeError(f"oracle finds {uniform} uniform Q3 orientations")
    for _ in range(EQUIV_PAIRS):
        (a, ta), (b, tb) = rng.choice(q3_files), rng.choice(q3_files)
        equivalent = orc.switching_equivalent(8, ta, tb)
        ops.append(Op(f"equiv {a[-7:]} {b[-7:]}", ["equiv", a, b], _check_equiv(a, b, equivalent)))
    os.makedirs(os.path.join(work, "switched"), exist_ok=True)
    for k in range(SWITCHES):
        path, tails = rng.choice(q3_files)
        w = sorted(rng.sample(range(8), rng.randint(1, 7)))
        out = os.path.join(work, "switched", f"{k:02d}.og")
        argv = ["switch", path, out, "--set", ",".join(map(str, w))]
        ops.append(Op(f"switch {path[-7:]} {w}", argv, _check_switch(tails, w, out)))
    # Non-uniform, with 23,992 chordless cycles: any bad one decides it.
    c4r2 = os.path.join(work, "c4_r2.og")
    orc.write_text(c4r2, serialize_graph(generate_family(FamilySpec("c4", 2)).orientation))
    n, tails = orc.read_oriented(c4r2)
    ops.append(_check_file(work, "c4_r2.og", n, list(tails), tails))
    # Uniform, so all 22,176 chordless cycles must be tested.
    q5 = orc.hypercube_edges(5)
    ops.append(_check_file(work, "q5_elementary.og", 32, q5, orc.elementary_tails(32, q5)))

    c1200 = orc.cycle_edges(1200)
    c4 = orc.cycle_edges(4)
    nan_path = os.path.join(work, "c4_elementary.og")
    orc.write_oriented(nan_path, 4, orc.elementary_tails(4, c4))
    probes = [
        _check_file(
            work, "c1200.og", 1200, c1200,
            orc.orient_by_bits(c1200, [rng.getrandbits(1) for _ in c1200]),
        ),
        Op("check c4_elementary.og --tol nan", ["check", nan_path, "--tol", "nan"],
           _check_rejects_tol),
    ]
    return Plan(ops, probes)


# -------------------------------------------------------- search exhaust

SEARCH_BUDGET = 1_000_000


def _check_search(n: int, edges: list, outcome: str):
    """outcome: "finds", "exhausts", "none" (no solution exists and the
    budget may stop the search first) or "either" (no verdict is known)."""
    k = 2 * len(edges) // n

    def check(res, memo):
        found = outcome == "finds" or (outcome == "either" and res.code == 0)
        doc = report(res, 0 if found else 1, "search")
        expect((doc["n"], doc["m"]) == (n, len(edges)), "n or m wrong")
        expect(doc["found"] is found, f"found {doc['found']}")
        if not found:
            expect(doc["arcs"] is None, "arcs without a solution")
            if outcome == "exhausts":
                expect(doc["exhausted"] is True, "did not exhaust")
            else:
                expect(doc["states"] <= SEARCH_BUDGET, "states over the budget")
            return
        expect(doc["exhausted"] is False, "exhausted but found")
        tails = {}
        for t, h in doc["arcs"]:
            tails[(min(t, h), max(t, h))] = t
        expect(sorted(tails) == sorted(edges) and len(doc["arcs"]) == len(edges),
               "arcs are not an orientation of the input")
        expect(orc.gram_is_scalar(n, tails, k), "arcs fail S S^T = k I")

    return check


def _ug(a, b):
    return a + b, orc.complete_bipartite_edges(a, b)


SEARCH_CASES = [
    ("K5,5", _ug(5, 5), "exhausts"),
    ("K6,6", _ug(6, 6), "exhausts"),
    ("K7,7", _ug(7, 7), "exhausts"),
    ("K9,9", _ug(9, 9), "exhausts"),
    ("K8,8", _ug(8, 8), "finds"),
    ("K12,12", _ug(12, 12), "finds"),
    ("K16,16", _ug(16, 16), "finds"),
    ("Q7", (128, orc.hypercube_edges(7)), "finds"),
    # No Hadamard matrix of order 10, no skew-conference matrix of order 10.
    ("K10,10", _ug(10, 10), "none"),
    ("K10", (10, orc.complete_edges(10)), "none"),
]


def _search_op(work, name, graph, outcome):
    n, edges = graph
    path = os.path.join(work, name.replace(",", "_") + ".ug")
    orc.write_undirected(path, n, edges)
    budget = [] if outcome in ("finds", "exhausts") else ["--budget", str(SEARCH_BUDGET)]
    return Op(f"search {name}", ["search", path, *budget], _check_search(n, edges, outcome))


def _search_ops(work: str, rng) -> list:
    ops = [_search_op(work, *case) for case in SEARCH_CASES]
    # The graphs are fixed; the seed only orders them.
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------- certify search


def certify_search(work: str, rng) -> Plan:
    """The paper's product from both ends: build and certify the family
    members, then search small graphs for a certified orientation."""
    ops = _family_ops(work, rng) + _search_ops(work, rng)
    return Plan(ops, [_search_op(work, "Q8", (256, orc.hypercube_edges(8)), "either")])


WORKLOADS = {
    "certify-search": certify_search,
    "orientation-sweep": orientation_sweep,
}
