"""Command line interface.

Subcommands mirror the library surface: spectrum, check, product,
family, search, switch, equiv.  Reports go to stdout as deterministic
JSON; generated graphs go to an output file in the native text format.

Exit codes: 0 success (or a true verdict), 1 a clean false verdict,
2 input error, 3 internal inconsistency (cross-checked results that must
agree came out differently), 4 any other exception raised while a
subcommand runs.

A line that starts with a subcommand's full name is parsed by that
subcommand's parser alone; any other line, and one with arguments the
subcommand does not take, goes to the full parser, so usage, help and
error output are the same either way.

``check`` and ``product --verify`` compare spectra; their tolerance
resolves as: --tol flag, then the SKEWSPEC_TOL environment variable,
then 1e-8.

A graph file is read as bytes and decoded as UTF-8 once; a file that is
not UTF-8 is an input error.  The parser's line split treats "\r\n" and
a lone "\r" as universal newlines do, so line numbers in parse errors
are those of the file read as text.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from .errors import SkewspecError
from .families import BASE_NAMES, FamilySpec, generate_family
from .graph import Graph, OrientedGraph
from .io import parse_graph, render_report, serialize_graph
from .products import _matrix_identity, _spectrum_match, oriented_product
from .search import find_max_energy_orientation
from .spectra import adjacency_spectrum, skew_energy, spectrum_energy
from .switching import (
    all_chordless_uniform,
    equivalent_to_elementary,
    matches_adjacency_spectrum,
    switch,
    switching_equivalent,
)

DEFAULT_TOL = 1e-8


def _resolve_tol(args) -> float:
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("SKEWSPEC_TOL")
        if env is None or env == "":
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise SkewspecError(f"SKEWSPEC_TOL={env!r} is not a number") from None
        source = "SKEWSPEC_TOL"
    if not (math.isfinite(tol) and tol >= 0):
        raise SkewspecError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


def _load(path: str) -> Graph | OrientedGraph:
    # Unbuffered, since the file is read whole; see the module docstring
    # for why a byte read keeps the line numbers of a text-mode read.
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SkewspecError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_graph(text)


def _load_oriented(path: str, why: str) -> OrientedGraph:
    obj = _load(path)
    if not isinstance(obj, OrientedGraph):
        raise SkewspecError(f"{why} requires an oriented graph file ('og' header)")
    return obj


def _load_undirected(path: str, why: str) -> Graph:
    obj = _load(path)
    if isinstance(obj, OrientedGraph):
        raise SkewspecError(f"{why} requires an undirected graph file ('ug' header)")
    return obj


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_spectrum(args):
    obj = _load(args.file)
    oriented = isinstance(obj, OrientedGraph)
    kind = "adjacency" if args.adjacency else "skew" if args.skew else None
    if kind is None:
        kind = "skew" if oriented else "adjacency"
    if kind == "skew" and not oriented:
        raise SkewspecError("--skew needs an oriented graph file ('og' header)")
    g = obj.graph if oriented else obj
    doc: dict = {"command": "spectrum", "kind": kind, "n": g.n, "m": g.m}
    if kind == "adjacency":
        sp = adjacency_spectrum(g)
        doc["values"] = list(sp.values)
        doc["energy"] = spectrum_energy(sp)
    else:
        report = skew_energy(obj)
        doc["values"] = list(report.spectrum.values)
        doc["energy"] = report.energy
        doc["degree"] = report.degree
        doc["bound"] = report.bound
        doc["maximum"] = report.exact_certificate
        doc["certificate"] = report.exact_certificate
        if args.timing:
            doc["spectrum_route"] = report.route
    return doc, 0


def _cmd_check(args):
    og = _load_oriented(args.file, "check")
    tol = _resolve_tol(args)
    spectral = matches_adjacency_spectrum(og, tol)
    uniform = all_chordless_uniform(og)
    elementary = equivalent_to_elementary(og)
    consistent = spectral == uniform == bool(elementary)
    doc = {
        "command": "check",
        "n": og.n,
        "m": og.graph.m,
        "tol": tol,
        "spectral_match": spectral,
        "all_chordless_uniform": uniform,
        "equivalent_to_elementary": bool(elementary),
        "witness": list(elementary.w) if elementary else None,
        "violating_cycle": (
            None if elementary else list(elementary.violating_cycle.vertices)
        ),
        "consistent": consistent,
    }
    if not consistent:
        return doc, 3
    return doc, 0 if spectral else 1


def _cmd_product(args):
    if args.tol is not None and not args.verify:
        raise SkewspecError("--tol applies only with --verify")
    ht = _load_oriented(args.file_h, "product")
    gs = _load_oriented(args.file_g, "product")
    product = oriented_product(ht, gs)
    doc = {"command": "product", "n": product.n, "m": product.graph.m}
    code = 0
    # Verified before the write, so an input error leaves no file behind,
    # and on the product above rather than on one rebuilt per check.
    if args.verify:
        tol = _resolve_tol(args)
        identity = _matrix_identity(product, ht, gs)
        match = _spectrum_match(product, ht, gs, tol)
        doc["tol"] = tol
        doc["matrix_identity"] = identity
        doc["spectrum_match"] = match
        if not (identity and match):
            code = 3
    _write(args.out, serialize_graph(product))
    return doc, code


def _cmd_family(args):
    try:
        spec = FamilySpec(args.base, args.r)
    except ValueError as exc:
        raise SkewspecError(str(exc)) from None
    result = generate_family(spec)
    og = result.orientation
    _write(args.out, serialize_graph(og))
    report = skew_energy(og)
    doc = {
        "command": "family",
        "base": spec.base,
        "r": spec.r,
        "order": og.n,
        "degree": og.graph.regular_degree(),
        "energy": report.energy,
        "bound": report.bound,
        "maximum": report.exact_certificate,
        "certificate": report.exact_certificate,
    }
    if args.timing:
        doc["spectrum_route"] = report.route
    consistent = (
        og.n == result.order
        and og.graph.regular_degree() == result.degree
        and report.exact_certificate
    )
    return doc, 0 if consistent else 3


def _cmd_search(args):
    if args.budget < 0:
        raise SkewspecError(f"--budget must be >= 0, got {args.budget}")
    g = _load_undirected(args.file, "search")
    result = find_max_energy_orientation(g, budget=args.budget)
    doc = {
        "command": "search",
        "n": g.n,
        "m": g.m,
        "found": result.found,
        "states": result.states,
        "exhausted": result.exhausted,
        "arcs": (
            [list(a) for a in result.orientation.arcs()] if result.found else None
        ),
    }
    return doc, 0 if result.found else 1


def _parse_vertex_set(text: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise SkewspecError(f"--set entry {tok!r} is not an integer") from None
    return out


def _cmd_switch(args):
    og = _load_oriented(args.file, "switch")
    w = _parse_vertex_set(args.set)
    switched = switch(og, w)
    _write(args.out, serialize_graph(switched))
    doc = {
        "command": "switch",
        "n": og.n,
        "m": og.graph.m,
        "w": sorted(set(w)),
    }
    return doc, 0


def _cmd_equiv(args):
    a = _load_oriented(args.file_a, "equiv")
    b = _load_oriented(args.file_b, "equiv")
    result = switching_equivalent(a, b)
    doc = {
        "command": "equiv",
        "n": a.n,
        "m": a.graph.m,
        "equivalent": bool(result),
        "witness": list(result.w) if result else None,
        "violating_cycle": (
            None if result else list(result.violating_cycle.vertices)
        ),
    }
    return doc, 0 if result else 1


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    # Built once per process: parse_args leaves the parser as it was and
    # returns a fresh Namespace, so one parser serves every call of run().
    # Returns the full parser and each subcommand's parser by name.
    parser = argparse.ArgumentParser(
        prog="skewspec",
        description="Skew spectra, switching equivalence, oriented products, "
        "and maximum skew energy families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--timing",
        action="store_true",
        help="append wall-clock seconds (and, for skew spectra, the route "
        "that computed them) to the report",
    )
    # Only the subcommands that compare spectra take a tolerance.
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument(
        "--tol",
        type=float,
        default=None,
        help="comparison tolerance (default: SKEWSPEC_TOL or 1e-8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["spectrum"] = sub.add_parser(
        "spectrum", parents=[common], help="eigenvalues and energy of a graph file"
    )
    p.add_argument("file")
    which = p.add_mutually_exclusive_group()
    which.add_argument(
        "--adjacency", action="store_true", help="adjacency spectrum (default for ug)"
    )
    which.add_argument(
        "--skew", action="store_true", help="skew spectrum (default for og)"
    )
    p.set_defaults(handler=_cmd_spectrum)

    p = commands["check"] = sub.add_parser(
        "check",
        parents=[tolerant],
        help="cross-check the three equivalent orientation predicates",
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = commands["product"] = sub.add_parser(
        "product", parents=[tolerant], help="oriented Cartesian product of two files"
    )
    p.add_argument("file_h", help="left factor (oriented, bipartite)")
    p.add_argument("file_g", help="right factor (oriented)")
    p.add_argument("out", help="output graph file")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check the Kronecker identity and the predicted spectrum",
    )
    p.set_defaults(handler=_cmd_product)

    p = commands["family"] = sub.add_parser(
        "family", parents=[common], help="generate a maximum-energy family member"
    )
    p.add_argument("out", help="output graph file")
    p.add_argument("--base", required=True, choices=BASE_NAMES)
    p.add_argument("--r", required=True, type=int, help="iteration depth (>= 1)")
    p.set_defaults(handler=_cmd_family)

    p = commands["search"] = sub.add_parser(
        "search",
        parents=[common],
        help="search a regular graph for an orientation on the energy bound",
    )
    p.add_argument("file")
    p.add_argument(
        "--budget",
        type=int,
        default=10_000_000,
        help="cap on attempted bit assignments (default 10^7)",
    )
    p.set_defaults(handler=_cmd_search)

    p = commands["switch"] = sub.add_parser(
        "switch", parents=[common], help="switch an orientation by a vertex set"
    )
    p.add_argument("file")
    p.add_argument("out", help="output graph file")
    p.add_argument(
        "--set", default="", help="comma-separated vertices, e.g. '0,2,5' (default: none)"
    )
    p.set_defaults(handler=_cmd_switch)

    p = commands["equiv"] = sub.add_parser(
        "equiv", parents=[common], help="decide switching equivalence of two files"
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=_cmd_equiv)

    return parser, commands


def _parse(argv) -> argparse.Namespace:
    # A subcommand named in full is parsed by its own parser alone, which
    # skips the top-level parse that only picks it.  Anything else, and a
    # subcommand line with arguments its parser does not know, goes to
    # the full parser, so usage, help and errors read as they always do.
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def run(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    try:
        doc, code = args.handler(args)
    except (SkewspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A fault in the program, not in the input: one line and exit 4,
        # never a traceback or the exit 1 of a clean false verdict.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.timing:
        doc["timing_seconds"] = time.perf_counter() - start
    sys.stdout.write(render_report(doc))
    return code


def main() -> None:
    sys.exit(run())
