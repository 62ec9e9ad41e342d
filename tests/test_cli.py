"""Command line behavior: exit codes, report fields, tolerance resolution."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
from itertools import combinations

import numpy as np
import pytest

import skewspec.cli as cli_module
import skewspec.graph as graph_module
import skewspec.products as products_module
import skewspec.spectra as spectra_module
import skewspec.switching as switching_module
from skewspec import (
    SkewspecError,
    complete,
    cycle,
    elementary_orientation,
    from_arcs,
    hypercube,
    serialize_graph,
)
from skewspec.cli import run
from skewspec.io import parse_graph

from cli_corpus import DATA_DIR, resolve_command, run_command

P2 = str(DATA_DIR / "p2.og")
P5 = str(DATA_DIR / "p5.ug")
C4_ODD = str(DATA_DIR / "c4_odd.og")
C4_ELEM = str(DATA_DIR / "c4_elementary.og")
C6_ELEM = str(DATA_DIR / "c6_elementary.og")
C6_R2 = str(DATA_DIR / "c6_r2.og")
C8_NONUNIFORM = str(DATA_DIR / "c8_nonuniform.og")
K44 = str(DATA_DIR / "k44.ug")
K4 = str(DATA_DIR / "k4.ug")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out else None
    return code, doc, out.err


def count_work(monkeypatch):
    # Lists that fill with each breadth-first forest built, the shape of
    # each eigensolve's stack, and each Spectrum and OrientedGraph made
    # through its constructor.
    forests, solves, built = [], [], []
    bfs, eigvalsh = graph_module._bfs_forest, np.linalg.eigvalsh
    monkeypatch.setattr(
        graph_module, "_bfs_forest", lambda g: forests.append(g) or bfs(g)
    )
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a)
    )
    for cls in (spectra_module.Spectrum, graph_module.OrientedGraph):
        monkeypatch.setattr(
            cls, "__post_init__",
            lambda self, init=cls.__post_init__: built.append(self) or init(self),
        )
    return forests, solves, built


class TestSpectrum:
    def test_oriented_defaults_to_skew(self, capsys):
        code, doc, _ = invoke(capsys, "spectrum", P2)
        assert code == 0
        assert doc["kind"] == "skew"
        assert doc["values"] == [1, -1]
        assert doc["energy"] == 2
        assert doc["maximum"] is True
        assert doc["certificate"] is True

    def test_undirected_defaults_to_adjacency(self, capsys):
        code, doc, _ = invoke(capsys, "spectrum", P5)
        assert code == 0
        assert doc["kind"] == "adjacency"
        assert len(doc["values"]) == 5
        assert "maximum" not in doc

    def test_adjacency_of_oriented_uses_underlying_graph(self, capsys):
        code, doc, _ = invoke(capsys, "spectrum", "--adjacency", C4_ODD)
        assert code == 0
        assert doc["values"] == pytest.approx([2, 0, 0, -2], abs=1e-12)

    def test_skew_flag_rejects_undirected(self, capsys):
        code, doc, err = invoke(capsys, "spectrum", "--skew", P5)
        assert code == 2
        assert doc is None
        assert err.startswith("error:")

    def test_key_order_is_stable(self, capsys):
        run(["spectrum", C4_ODD])
        out = capsys.readouterr().out
        pairs = json.loads(out, object_pairs_hook=lambda p: p)
        keys = [k for k, _ in pairs]
        assert keys == [
            "command",
            "kind",
            "n",
            "m",
            "values",
            "energy",
            "degree",
            "bound",
            "maximum",
            "certificate",
        ]


class TestCheck:
    def test_one_bipartition_per_check(self, capsys, monkeypatch):
        # One colouring for the bipartition, shared by the three
        # predicates, and one for the equivalence to the elementary
        # orientation.
        original = graph_module.parity_coloring
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(graph_module, "parity_coloring", counting)
        monkeypatch.setattr(switching_module, "parity_coloring", counting)
        code, doc, _ = invoke(capsys, "check", str(DATA_DIR / "q3_elementary.og"))
        assert code == 0
        assert doc["consistent"] is True
        assert len(calls) <= 2

    @pytest.mark.parametrize("name", ["q3_elementary.og", "c8_nonuniform.og"])
    def test_one_forest_and_one_eigensolve_per_check(self, capsys, monkeypatch, name):
        # The three predicates read one breadth-first forest, and both
        # spectra come from one stacked solve of two half-order grams.
        # Only magnitudes are compared and the elementary orientation is
        # never built, so no Spectrum and no OrientedGraph is made.
        forests, solves, built = count_work(monkeypatch)
        code, doc, _ = invoke(capsys, "check", str(DATA_DIR / name))
        assert doc["consistent"] is True and code == (1 if "non" in name else 0)
        assert len(forests) == 1
        assert solves == [(2, 4, 4)]
        assert built == []

    def test_elementary_passes_all_three(self, capsys):
        code, doc, _ = invoke(capsys, "check", C6_ELEM)
        assert code == 0
        assert doc["spectral_match"] is True
        assert doc["all_chordless_uniform"] is True
        assert doc["equivalent_to_elementary"] is True
        assert doc["witness"] == []
        assert doc["violating_cycle"] is None
        assert doc["consistent"] is True

    def test_odd_square_fails_all_three(self, capsys):
        code, doc, _ = invoke(capsys, "check", C4_ODD)
        assert code == 1
        assert doc["spectral_match"] is False
        assert doc["all_chordless_uniform"] is False
        assert doc["equivalent_to_elementary"] is False
        assert doc["witness"] is None
        assert sorted(doc["violating_cycle"]) == [0, 1, 2, 3]
        assert doc["consistent"] is True

    def test_rejects_undirected_input(self, capsys):
        code, _, err = invoke(capsys, "check", K44)
        assert code == 2
        assert "oriented" in err

    def test_rejects_non_bipartite(self, capsys, tmp_path):
        f = tmp_path / "tri.og"
        f.write_text("og 3 3\na 0 1\na 1 2\na 2 0\n")
        code, _, err = invoke(capsys, "check", str(f))
        assert code == 2
        assert err.startswith("error:")

    def test_uniform_past_the_enumeration_cap(self, capsys, tmp_path):
        # Q6 has more than 10^6 chordless cycles; check enumerates none.
        q6 = tmp_path / "q6.og"
        q6.write_text(serialize_graph(elementary_orientation(hypercube(6))))
        code, doc, _ = invoke(capsys, "check", str(q6))
        assert code == 0
        assert doc["all_chordless_uniform"] is True
        assert doc["consistent"] is True

    def test_dense_cycle_false_verdict(self, capsys, tmp_path):
        # The k44 r=2 member has more than 10^6 chordless cycles, and some
        # fundamental cycle of its forest is not uniform.
        out = str(tmp_path / "k44r2.og")
        assert invoke(capsys, "family", out, "--base", "k44", "--r", "2")[0] == 0
        code, doc, _ = invoke(capsys, "check", out)
        assert code == 1
        assert doc["consistent"] is True
        assert doc["spectral_match"] is False
        assert doc["all_chordless_uniform"] is False
        assert doc["equivalent_to_elementary"] is False


def write_orientation(path, g, bits) -> str:
    path.write_text(serialize_graph(graph_module.OrientedGraph(g, tuple(bits))))
    return str(path)


class TestSharedGraphs:
    # A short parsed graph is shared within a process, and its forest,
    # half-order layout, fundamental cycles and adjacency magnitudes are
    # kept on it, so only the work of the orientation is done again.
    Q3 = str(DATA_DIR / "q3_elementary.og")

    def test_warm_check_builds_no_forest_and_solves_one_block(
        self, capsys, monkeypatch, tmp_path
    ):
        other = write_orientation(tmp_path / "q3.og", hypercube(3), [1] + [0] * 11)
        invoke(capsys, "check", self.Q3)
        forests, solves, built = count_work(monkeypatch)
        code, doc, _ = invoke(capsys, "check", other)
        assert doc["consistent"] is True and code == 1
        assert forests == []
        assert solves == [(1, 4, 4)]
        assert built == []

    def test_warm_equiv_builds_no_forest(self, capsys, monkeypatch, tmp_path):
        other = write_orientation(tmp_path / "q3.og", hypercube(3), [1] + [0] * 11)
        invoke(capsys, "check", self.Q3)
        invoke(capsys, "check", other)
        forests, _, _ = count_work(monkeypatch)
        code, doc, _ = invoke(capsys, "equiv", self.Q3, other)
        assert code == 1 and doc["equivalent"] is False
        assert forests == []

    def test_warm_adjacency_spectrum_solves_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        # The magnitudes kept from check's stacked solve print the same
        # spectrum as the cold single solve of |B|.
        ug = tmp_path / "q3.ug"
        ug.write_text(serialize_graph(hypercube(3)))
        run(["spectrum", "--adjacency", str(ug)])
        cold = capsys.readouterr().out
        graph_module._shared_graph.cache_clear()
        invoke(capsys, "check", self.Q3)
        _, solves, _ = count_work(monkeypatch)
        run(["spectrum", "--adjacency", str(ug)])
        assert capsys.readouterr().out == cold
        assert solves == []

    def test_every_q3_orientation_reads_the_same_warm_and_cold(self, tmp_path):
        # All 4096 orientations of Q3, with other graphs between them:
        # three more bipartite ones, a triangle (an input error for
        # check) and, now and then, one more even cycle than the cache
        # holds, so Q3's graph is evicted and parsed again.  Every exit
        # code, report and error line is the same with the shared graphs
        # kept as with them cleared before each call, at the default
        # tolerance and at 0 and 1.
        q3 = hypercube(3)
        triangle = tmp_path / "k3.og"
        triangle.write_text("og 3 3\na 0 1\na 1 2\na 2 0\n")
        others = [C8_NONUNIFORM, str(DATA_DIR / "k23_elementary.og"), C6_R2, str(triangle)]
        cap = graph_module._SHARED_GRAPHS
        evict = [tmp_path / f"c{k}.og" for k in range(2, 3 + cap)]
        for k, path in enumerate(evict, 2):
            path.write_text(serialize_graph(elementary_orientation(cycle(2 * k))))
        argvs, plain = [], set()
        for i in range(4096):
            path = write_orientation(
                tmp_path / f"{i:04d}.og", q3, [(i >> j) & 1 for j in range(12)]
            )
            plain.add((path,))
            argvs.append(("check", path))
            if i % 256 == 255:
                argvs += [("check", path, "--tol", "0"), ("check", path, "--tol", "1")]
                argvs += [("check", p) for p in others]
            if i % 1024 == 1000:
                argvs += [("check", str(p)) for p in evict]

        def sweep(cold):
            seen = []
            for argv in argvs:
                if cold:
                    graph_module._shared_graph.cache_clear()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
                seen.append((code, out.getvalue(), err.getvalue()))
            return seen

        warm = sweep(False)
        info = graph_module._shared_graph.cache_info()
        assert info.hits > 4000
        # More graphs went in than fit, so some were evicted.
        assert info.misses > info.maxsize == info.currsize
        assert warm == sweep(True)
        codes = [code for (code, _, _), argv in zip(warm, argvs) if argv[1:] in plain]
        assert (codes.count(0), codes.count(1)) == (128, 4096 - 128)
        # The triangle is refused with the same one error line each time.
        refused = {err for code, _, err in warm if code == 2}
        assert [code for code, _, _ in warm].count(2) == 16
        assert len(refused) == 1 and refused.pop().startswith("error: graph is not bipartite")


class TestInconsistentRoutes:
    """Exit 3: results that must agree came out differently."""

    @pytest.mark.parametrize("path", [C6_ELEM, C4_ODD])
    def test_check_with_a_flipped_verdict(self, capsys, monkeypatch, path):
        uniform = switching_module.all_chordless_uniform
        monkeypatch.setattr(cli_module, "all_chordless_uniform", lambda og: not uniform(og))
        code, doc, err = invoke(capsys, "check", path)
        assert code == 3 and err == ""
        assert doc["consistent"] is False
        assert doc["all_chordless_uniform"] is not doc["spectral_match"]

    @pytest.mark.parametrize("check", ["_matrix_identity", "_spectrum_match"])
    def test_product_verify_still_writes(self, capsys, monkeypatch, tmp_path, check):
        expected = tmp_path / "expected.og"
        assert invoke(capsys, "product", P2, C4_ODD, str(expected), "--verify")[0] == 0
        monkeypatch.setattr(cli_module, check, lambda *args: False)
        out = tmp_path / "prod.og"
        code, doc, err = invoke(capsys, "product", P2, C4_ODD, str(out), "--verify")
        assert code == 3 and err == ""
        assert doc[check.lstrip("_")] is False
        assert out.read_bytes() == expected.read_bytes()


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        invoke(capsys, "check", C4_ELEM)

        def refuse(*args, **kwargs):
            raise AssertionError("ArgumentParser built again")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert invoke(capsys, "check", C4_ELEM)[0] == 0

    def test_options_do_not_leak_into_the_next_call(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("SKEWSPEC_TOL", raising=False)
        _, doc, _ = invoke(capsys, "check", "--tol", "1e-4", "--timing", C4_ELEM)
        assert doc["tol"] == 1e-4 and "timing_seconds" in doc
        _, doc, _ = invoke(capsys, "check", C4_ELEM)
        assert doc["tol"] == 1e-8 and "timing_seconds" not in doc

        _, doc, _ = invoke(capsys, "spectrum", "--adjacency", C4_ODD)
        assert doc["kind"] == "adjacency"
        _, doc, _ = invoke(capsys, "spectrum", C4_ODD)
        assert doc["kind"] == "skew"

        out = str(tmp_path / "f.og")
        with pytest.raises(SystemExit) as exc:
            run(["family", out, "--base", "zz", "--r", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, doc, _ = invoke(capsys, "family", out, "--base", "k4", "--r", "1")
        assert code == 0 and doc["base"] == "k4"


def outcome(capsys, argv):
    # Exit code (or SystemExit code), stdout and stderr of run(argv).
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDispatch:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["nosuch"],
            ["che", C4_ODD],
            ["check"],
            ["check", "-h"],
            ["equiv", C4_ODD],
            ["check", C4_ODD, "--tol", "nan"],
            ["check", C4_ODD, "--bogus"],
            ["check", C4_ODD, "--timing", "--tol", "1e-3"],
            ["-h", "check"],
        ],
        ids=repr,
    )
    def test_same_as_the_full_parser(self, capsys, monkeypatch, argv):
        # A subcommand's own parser reads its line, and anything else goes
        # to the full parser; both give the same bytes and exit codes.
        mine = outcome(capsys, argv)
        parser, _ = cli_module._build_parser()
        monkeypatch.setattr(cli_module, "_build_parser", lambda: (parser, {}))
        full = outcome(capsys, argv)
        if "--timing" in argv:
            mine, full = (
                (c, json.dumps({**json.loads(o), "timing_seconds": 0}), e)
                for c, o, e in (mine, full)
            )
        assert mine == full

    def test_subcommand_parsed_by_its_own_parser(self, capsys, monkeypatch):
        parser, commands = cli_module._build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("the full parser read a subcommand line")

        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        assert invoke(capsys, "check", C4_ELEM)[0] == 0
        assert sorted(commands) == sorted(
            ["spectrum", "check", "product", "family", "search", "switch", "equiv"]
        )


class TestToleranceResolution:
    def test_default_is_1e_8(self, capsys, monkeypatch):
        monkeypatch.delenv("SKEWSPEC_TOL", raising=False)
        _, doc, _ = invoke(capsys, "check", C4_ELEM)
        assert doc["tol"] == 1e-8

    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWSPEC_TOL", "1e-6")
        _, doc, _ = invoke(capsys, "check", C4_ELEM)
        assert doc["tol"] == 1e-6

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWSPEC_TOL", "1e-6")
        _, doc, _ = invoke(capsys, "check", "--tol", "1e-4", C4_ELEM)
        assert doc["tol"] == 1e-4

    def test_bad_env_value_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWSPEC_TOL", "tiny")
        code, _, err = invoke(capsys, "check", C4_ELEM)
        assert code == 2
        assert "SKEWSPEC_TOL" in err

    @pytest.mark.parametrize(
        "env, flag",
        [(None, "nan"), (None, "inf"), (None, "-1"), ("nan", None)],
        ids=["flag-nan", "flag-inf", "flag-negative", "env-nan"],
    )
    def test_non_finite_or_negative_is_an_input_error(
        self, capsys, monkeypatch, env, flag
    ):
        if env is None:
            monkeypatch.delenv("SKEWSPEC_TOL", raising=False)
        else:
            monkeypatch.setenv("SKEWSPEC_TOL", env)
        argv = ["check", C4_ELEM] + (["--tol", flag] if flag else [])
        code, doc, err = invoke(capsys, *argv)
        assert code == 2 and doc is None
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tol_only_on_subcommands_that_compare_spectra(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--tol", "1e-6", P2])
        assert exc.value.code == 2


class TestTiming:
    def test_flag_appends_seconds(self, capsys):
        _, doc, _ = invoke(capsys, "spectrum", "--timing", P2)
        assert "timing_seconds" in doc
        assert doc["timing_seconds"] >= 0

    def test_absent_by_default(self, capsys):
        _, doc, _ = invoke(capsys, "spectrum", P2)
        assert "timing_seconds" not in doc

    def test_flag_names_the_spectrum_route(self, capsys, tmp_path):
        _, doc, _ = invoke(capsys, "spectrum", "--timing", C4_ODD)
        assert doc["spectrum_route"] == "certificate"
        _, doc, _ = invoke(capsys, "spectrum", "--timing", C4_ELEM)
        assert doc["spectrum_route"] == "bipartite"
        _, doc, _ = invoke(
            capsys, "family", str(tmp_path / "f.og"), "--base", "k4", "--r", "2",
            "--timing",
        )
        assert doc["spectrum_route"] == "certificate"
        _, doc, _ = invoke(capsys, "spectrum", C4_ODD)
        assert "spectrum_route" not in doc

    def test_route_of_uncertified_orientations(self, capsys, tmp_path):
        _, doc, _ = invoke(capsys, "spectrum", "--timing", C8_NONUNIFORM)
        assert doc["spectrum_route"] == "bipartite"
        # A transitive K4: S S^T is not 3 I, and K4 has triangles.
        k4 = tmp_path / "k4_transitive.og"
        k4.write_text(serialize_graph(from_arcs(4, combinations(range(4), 2))))
        _, doc, _ = invoke(capsys, "spectrum", "--timing", str(k4))
        assert doc["certificate"] is False
        assert doc["spectrum_route"] == "dense"


class TestProduct:
    def test_writes_product_and_verifies(self, capsys, tmp_path):
        out = tmp_path / "prod.og"
        code, doc, _ = invoke(
            capsys, "product", P2, C4_ODD, str(out), "--verify"
        )
        assert code == 0
        assert doc["n"] == 8
        assert doc["matrix_identity"] is True
        assert doc["spectrum_match"] is True
        og = parse_graph(out.read_text())
        assert og.n == 8
        assert og.graph.m == 12

    def test_empty_factor_verifies(self, capsys, tmp_path):
        empty = tmp_path / "empty.og"
        empty.write_text("og 0 0\n")
        for h, g in ((str(empty), C4_ODD), (C4_ELEM, str(empty))):
            out = tmp_path / "prod.og"
            code, doc, _ = invoke(capsys, "product", h, g, str(out), "--verify")
            assert code == 0 and doc["n"] == 0
            assert doc["matrix_identity"] is True
            assert doc["spectrum_match"] is True

    def test_tol_without_verify_is_an_input_error(
        self, capsys, monkeypatch, tmp_path
    ):
        out = tmp_path / "prod.og"
        code, doc, err = invoke(capsys, "product", P2, P2, str(out), "--tol", "nan")
        assert code == 2 and doc is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
        monkeypatch.setenv("SKEWSPEC_TOL", "nan")
        code, doc, _ = invoke(capsys, "product", P2, P2, str(out))
        assert code == 0 and "tol" not in doc

    def test_verify_errors_write_nothing(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "prod.og"
        code, _, err = invoke(
            capsys, "product", P2, C4_ODD, str(out), "--verify", "--tol", "nan"
        )
        assert code == 2 and err.startswith("error:")
        assert not out.exists()
        monkeypatch.setenv("SKEWSPEC_TOL", "nan")
        code, _, _ = invoke(capsys, "product", P2, C4_ODD, str(out), "--verify")
        assert code == 2
        assert not out.exists()
        monkeypatch.delenv("SKEWSPEC_TOL")
        wide = tmp_path / "wide.og"
        wide.write_text("og 4097 0\n")
        code, _, err = invoke(capsys, "product", str(wide), P2, str(out), "--verify")
        assert code == 2 and "cap" in err
        assert not out.exists()

    def test_verify_builds_the_product_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        build = products_module.oriented_product

        def counted(ht, gs):
            calls.append(1)
            return build(ht, gs)

        monkeypatch.setattr(cli_module, "oriented_product", counted)
        monkeypatch.setattr(products_module, "oriented_product", counted)
        out = tmp_path / "prod.og"
        code, doc, _ = invoke(capsys, "product", P2, C4_ODD, str(out), "--verify")
        assert code == 0 and doc["matrix_identity"] and doc["spectrum_match"]
        assert len(calls) == 1

    def test_non_bipartite_left_factor_rejected(self, capsys, tmp_path):
        tri = tmp_path / "tri.og"
        tri.write_text("og 3 3\na 0 1\na 1 2\na 2 0\n")
        code, _, err = invoke(
            capsys, "product", str(tri), P2, str(tmp_path / "x.og")
        )
        assert code == 2
        assert err.startswith("error:")


class TestFamily:
    def test_generates_and_certifies(self, capsys, tmp_path):
        out = tmp_path / "fam.og"
        code, doc, _ = invoke(
            capsys, "family", str(out), "--base", "k4", "--r", "1"
        )
        assert code == 0
        assert doc["order"] == 4
        assert doc["degree"] == 3
        assert doc["maximum"] is True
        assert doc["certificate"] is True
        og = parse_graph(out.read_text())
        assert og.n == 4

    def test_depth_zero_is_an_input_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "family", str(tmp_path / "x.og"), "--base", "k4", "--r", "0"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_order_cap_is_an_input_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "family", str(tmp_path / "x.og"), "--base", "k44", "--r", "7"
        )
        assert code == 2
        assert err == (
            "error: k44 family member of depth 7 has order 2**21, "
            "over the cap of 262144\n"
        )

    def test_huge_depth_is_one_short_input_error(self, capsys, tmp_path):
        code, doc, err = invoke(
            capsys, "family", str(tmp_path / "x.og"), "--base", "k44", "--r", "5000"
        )
        assert code == 2 and doc is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert "depth 5000" in err and len(err) < 200

    def test_unknown_base_rejected_by_parser(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run(["family", str(tmp_path / "x.og"), "--base", "k5", "--r", "1"])


class TestSearch:
    def test_found_reports_arcs(self, capsys):
        code, doc, _ = invoke(capsys, "search", K4)
        assert code == 0
        assert doc["found"] is True
        assert doc["exhausted"] is False
        assert len(doc["arcs"]) == 6

    def test_not_found_is_a_clean_false(self, capsys, tmp_path):
        c6 = tmp_path / "c6.ug"
        c6.write_text("ug 6 6\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 0 5\n")
        code, doc, _ = invoke(capsys, "search", str(c6))
        assert code == 1
        assert doc["found"] is False
        assert doc["exhausted"] is True
        assert doc["arcs"] is None

    def test_budget_stops_early(self, capsys):
        code, doc, _ = invoke(capsys, "search", "--budget", "2", K44)
        assert code == 1
        assert doc["states"] == 2
        assert doc["exhausted"] is False

    @pytest.mark.parametrize("budget", ["-1", "-5"])
    def test_negative_budget_is_an_input_error(self, capsys, budget):
        code, doc, err = invoke(capsys, "search", "--budget", budget, K44)
        assert code == 2 and doc is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--budget" in err

    def test_irregular_graph_rejected(self, capsys):
        code, _, err = invoke(capsys, "search", P5)
        assert code == 2
        assert err.startswith("error:")

    def test_rejects_oriented_input(self, capsys):
        code, _, err = invoke(capsys, "search", P2)
        assert code == 2
        assert "undirected" in err


class TestSwitch:
    def test_writes_switched_file(self, capsys, tmp_path):
        out = tmp_path / "sw.og"
        code, doc, _ = invoke(
            capsys, "switch", C4_ELEM, str(out), "--set", "0,2"
        )
        assert code == 0
        assert doc["w"] == [0, 2]
        og = parse_graph(out.read_text())
        base = parse_graph(open(C4_ELEM).read())
        # switching by both X-side vertices reverses every arc
        assert og.direction == tuple(1 - b for b in base.direction)

    def test_set_tolerates_spaces_and_duplicates(self, capsys, tmp_path):
        out = tmp_path / "sw.og"
        _, doc, _ = invoke(
            capsys, "switch", C4_ELEM, str(out), "--set", " 2, 0, 2 "
        )
        assert doc["w"] == [0, 2]

    def test_empty_set_copies_orientation(self, capsys, tmp_path):
        out = tmp_path / "sw.og"
        code, doc, _ = invoke(capsys, "switch", C4_ELEM, str(out))
        assert code == 0
        assert doc["w"] == []
        assert out.read_text() == open(C4_ELEM).read()

    def test_non_integer_entry_rejected(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "switch", C4_ELEM, str(tmp_path / "x.og"), "--set", "0,a"
        )
        assert code == 2
        assert "not an integer" in err

    def test_out_of_range_vertex_rejected(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "switch", C4_ELEM, str(tmp_path / "x.og"), "--set", "9"
        )
        assert code == 2
        assert err.startswith("error:")


class TestEquiv:
    def test_equivalent_pair_exits_zero(self, capsys, tmp_path):
        sw = tmp_path / "sw.og"
        run(["switch", C6_ELEM, str(sw), "--set", "1,4"])
        capsys.readouterr()
        code, doc, _ = invoke(capsys, "equiv", C6_ELEM, str(sw))
        assert code == 0
        assert doc["equivalent"] is True
        assert doc["witness"] == [1, 4]
        assert doc["violating_cycle"] is None

    def test_inequivalent_pair_exits_one(self, capsys):
        code, doc, _ = invoke(capsys, "equiv", C6_ELEM, C6_R2)
        assert code == 1
        assert doc["equivalent"] is False
        assert doc["witness"] is None
        assert len(doc["violating_cycle"]) == 6

    def test_mismatched_graphs_are_an_input_error(self, capsys):
        code, _, err = invoke(capsys, "equiv", P2, C4_ODD)
        assert code == 2
        assert err.startswith("error:")


class TestInputErrors:
    def test_dense_cap_spares_certified_orientations(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr("skewspec.graph.ORDER_CAP", 3)
        edgeless = tmp_path / "edgeless.og"
        edgeless.write_text("og 8 0\n")
        code, doc, _ = invoke(capsys, "spectrum", str(edgeless))
        assert code == 0 and doc["certificate"] is True
        assert doc["values"] == [0] * 8
        code, doc, _ = invoke(capsys, "spectrum", C4_ODD)
        assert code == 0 and doc["energy"] == pytest.approx(4 * math.sqrt(2))
        code, doc, err = invoke(capsys, "spectrum", C4_ELEM)
        assert code == 2 and doc is None
        assert err.startswith("error:") and "cap" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "no_such_file.og")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["spectrum", "check", "search"])
    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path, command):
        f = tmp_path / "bad.ug"
        f.write_bytes(b"\xff\xfe\n")
        code, doc, err = invoke(capsys, command, str(f))
        assert code == 2 and doc is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert "UTF-8" in err

    def test_search_over_the_term_cap_is_an_input_error(self, capsys, tmp_path):
        # K_300 (415 KB) has 13,365,300 S S^T terms: refused before any
        # is made, where it once ran out of memory.
        f = tmp_path / "k300.ug"
        f.write_text(serialize_graph(complete(300)))
        code, doc, err = invoke(capsys, "search", str(f), "--budget", "1000")
        assert code == 2 and doc is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "13365300" in err and "cap" in err

    @pytest.mark.parametrize("command", ["check", "product"])
    def test_huge_vertex_count_is_an_input_error(self, capsys, tmp_path, command):
        f = tmp_path / "huge.og"
        f.write_text("og 100000000000000000000 0\n")
        files = [str(f)] if command == "check" else [str(f), P2, str(tmp_path / "x.og")]
        code, doc, err = invoke(capsys, command, *files)
        assert code == 2 and doc is None
        assert err.startswith("error: line 1:") and err.count("\n") == 1
        assert "cap" in err

    @pytest.mark.parametrize("header", ["ug -1 0", "og 3 -2"])
    def test_negative_header_count_is_an_input_error(self, capsys, tmp_path, header):
        f = tmp_path / "negative.og"
        f.write_text(header + "\n")
        code, doc, err = invoke(capsys, "check", str(f))
        assert code == 2 and doc is None
        assert err.startswith("error: line 1:") and err.count("\n") == 1

    def test_parse_error_reports_line(self, capsys, tmp_path):
        f = tmp_path / "bad.og"
        f.write_text("og 2 1\na 0 0\n")
        code, _, err = invoke(capsys, "spectrum", str(f))
        assert code == 2
        assert "line 2" in err


def _text_mode_load(path):
    # The reference: the file read in text mode, universal newlines.
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc.reason})"
    try:
        return parse_graph(text)
    except SkewspecError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "data",
    [
        b"og 4 4\r\na 0 1\r\na 1 2\r\na 2 3\r\na 3 0\r\n",
        b"og 4 4\ra 0 1\ra 1 2\ra 2 3\ra 3 0\r",
        b"og 4 4\r\n\r\ra 0 1\r\r\na 1 2\na 2 3\ra 3 3\r\n",
        b"og 4 4\r\n# a comment\r\ra 0 1\r\na 1 x\r\n",
        b"og 4 4\x0ca 0 1\x0ca 1 2\na 2 3\na 3 0 \x0c\n",
        b"og 4 4\na 0 1\x0ca 1 2\x0ca 2 3\x0ca 3 0\x0ca 0 2\n",
        b"og 2 1\r\xc2\x85a 0 1\xe2\x80\xa8\n",
        b"\xef\xbb\xbfog 2 1\na 0 1\n",
        b"og 2 1\n\xef\xbb\xbfa 0 1\n",
        b"og 2 1\na 0 1\n# \xe2\x82",
        b"og 2 1\na 0 1\xff\n",
        b"og 2 1\r\na 0 1\r\n# \xc3\x28\r\n",
    ],
    ids=[
        "crlf", "cr", "mixed", "crlf-bad-line", "form-feed", "form-feed-extra",
        "nel-ls", "bom", "bom-in-body", "truncated", "invalid-start",
        "invalid-continuation",
    ],
)
def test_byte_read_matches_the_text_mode_read(tmp_path, data):
    # _load reads bytes and decodes once; every file gives the graph, or
    # the error text, that a text-mode read gives.
    path = tmp_path / "g.og"
    path.write_bytes(data)
    try:
        loaded = cli_module._load(str(path))
    except SkewspecError as exc:
        loaded = str(exc)
    assert loaded == _text_mode_load(str(path))


class TestInternalErrors:
    def test_unexpected_exception_is_exit_4(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("skewspec.cli.switching_equivalent", fail)
        code, doc, err = invoke(capsys, "equiv", C6_ELEM, C6_R2)
        assert code == 4 and doc is None
        assert err == "error: internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_propagate(self, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("skewspec.cli.switching_equivalent", fail)
        with pytest.raises(exc):
            run(["equiv", C6_ELEM, C6_R2])


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        template, expected = ("check", "q3_elementary.og"), 0
        argv = resolve_command(template, tmp_path / "unused")
        first = run_command(argv)
        second = run_command(argv)
        assert first.returncode == expected
        assert second.returncode == expected
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_energy_value_formatting(self, tmp_path):
        argv = resolve_command(("spectrum", "c4_odd.og"), tmp_path / "unused")
        out = run_command(argv).stdout.decode()
        doc = json.loads(out)
        assert doc["energy"] == pytest.approx(4 * math.sqrt(2), rel=1e-12)
        assert '"energy": 5.65685424949' in out
