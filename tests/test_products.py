import contextlib
import hashlib
import io
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import skewspec.cli as cli_module
import skewspec.graph as graph_module
import skewspec.products as products_module
from skewspec import (
    VERTEX_CAP,
    BudgetExceededError,
    NotBipartiteError,
    OrientedGraph,
    Spectrum,
    adjacency_spectrum,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    elementary_orientation,
    from_arcs,
    hypercube,
    is_gram_scalar,
    oriented_product,
    path,
    predicted_product_spectrum,
    product_matrix_identity,
    serialize_graph,
    product_skew_kronecker,
    seed_orientation,
    skew_adjacency,
    skew_gram,
    skew_spectrum,
    spectra_equal,
    verify_product_spectrum,
)
from oracles import random_graph, random_orientation

# Bipartite left factors: the K4,4 seed lists its X side first, while the
# canonical sides of C4 ({0, 2} / {1, 3}), P4 and Q3 interleave.
LEFT_FACTORS = {
    "k44": lambda: seed_orientation("k44"),
    "c4": lambda: elementary_orientation(cycle(4)),
    "p4": lambda: elementary_orientation(path(4)),
    "q3": lambda: elementary_orientation(hypercube(3)),
}


class TestCartesianProduct:
    def test_p2_p2_is_square(self):
        g = cartesian_product(path(2), path(2))
        assert g.n == 4 and g.m == 4
        assert set(g.degrees()) == {2}

    def test_p2_c4_is_cube(self):
        g = cartesian_product(path(2), cycle(4))
        assert g.n == 8 and g.m == 12
        assert set(g.degrees()) == {3}
        assert spectra_equal(
            adjacency_spectrum(g), adjacency_spectrum(hypercube(3)), 1e-9
        )

    def test_counts(self):
        h, g = complete_bipartite(2, 3), cycle(5)
        p = cartesian_product(h, g)
        assert p.n == h.n * g.n
        assert p.m == h.n * g.m + g.n * h.m


class TestOrientedProduct:
    def test_p2_p2_example(self):
        p2 = from_arcs(2, [(0, 1)])
        op = oriented_product(p2, p2)
        assert op.arcs() == ((0, 1), (0, 2), (1, 3), (3, 2))
        assert np.array_equal(skew_gram(op), 2 * np.eye(4, dtype=np.int64))

    @pytest.mark.parametrize("left", LEFT_FACTORS)
    def test_underlying_graph_matches_cartesian(self, left):
        ht = LEFT_FACTORS[left]()
        gs = seed_orientation("c4")
        op = oriented_product(ht, gs)
        assert op.graph == cartesian_product(ht.graph, gs.graph)
        # (u, v) is vertex u * n + v, so H's arcs cross the fibers there
        n = gs.n
        h_arcs = {(t * n + v, head * n + v) for t, head in ht.arcs() for v in range(n)}
        assert h_arcs <= set(op.arcs())

    def test_order_over_the_vertex_cap_builds_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built arcs over the cap")

        monkeypatch.setattr(products_module, "from_arcs", refuse)
        wide = from_arcs(VERTEX_CAP // 2 + 1, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            oriented_product(from_arcs(2, [(0, 1)]), wide)

    def test_reversal_happens_on_y_fibers_only(self):
        p2 = from_arcs(2, [(0, 1)])
        c3 = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        op = oriented_product(p2, c3)
        arcs = set(op.arcs())
        # fiber over X-vertex 0 keeps C3's arcs, fiber over Y-vertex 1
        # reverses them; H-arcs cross fibers unchanged
        assert {(0, 1), (1, 2), (2, 0)} <= arcs
        assert {(4, 3), (5, 4), (3, 5)} <= arcs
        assert {(0, 3), (1, 4), (2, 5)} <= arcs

    def test_nonbipartite_left_factor_rejected(self):
        c3 = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(NotBipartiteError):
            oriented_product(c3, c3)

    def test_p2_with_max_k4_gives_4i(self):
        op = oriented_product(from_arcs(2, [(0, 1)]), seed_orientation("k4"))
        assert op.n == 8
        assert np.array_equal(skew_gram(op), 4 * np.eye(8, dtype=np.int64))


class TestMatrixIdentity:
    def test_p2_p2(self):
        p2 = from_arcs(2, [(0, 1)])
        assert product_matrix_identity(p2, p2)

    @pytest.mark.parametrize("left", LEFT_FACTORS)
    def test_k44_c4(self, left):
        ht, gs = LEFT_FACTORS[left](), seed_orientation("c4")
        assert product_matrix_identity(ht, gs)
        assert verify_product_spectrum(ht, gs)

    def test_skipping_reversal_breaks_identity(self):
        p2 = from_arcs(2, [(0, 1)])
        # (u, v) is vertex u * 2 + v; the fiber over Y-vertex 1 keeps 2 -> 3
        arcs = [(u * 2, u * 2 + 1) for u in range(2)]
        arcs += [(v, 2 + v) for v in range(2)]
        unreversed = from_arcs(4, arcs)
        assert not np.array_equal(
            skew_adjacency(unreversed), product_skew_kronecker(p2, p2)
        )

    def test_dense_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(graph_module, "ORDER_CAP", 3)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated a matrix over the cap")

        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        p2 = from_arcs(2, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            product_skew_kronecker(p2, p2)
        with pytest.raises(BudgetExceededError):
            skew_gram(seed_orientation("c4"))

    def test_random_pairs_exact(self, rng):
        lefts = [path(2), path(4), cycle(4), cycle(6), complete_bipartite(2, 3)]
        for _ in range(30):
            h = rng.choice(lefts)
            g = random_graph(rng, rng.randint(1, 5))
            assert product_matrix_identity(
                random_orientation(rng, h), random_orientation(rng, g)
            )


class TestPredictedSpectrum:
    def test_two_paths(self):
        sp = predicted_product_spectrum(Spectrum((1.0, -1.0)), Spectrum((1.0, -1.0)))
        r2 = math.sqrt(2)
        assert sp.values == pytest.approx((r2, r2, -r2, -r2))

    def test_zero_factor_passes_through(self):
        sp = predicted_product_spectrum(Spectrum((1.0, -1.0)), Spectrum((0.0,)))
        assert sp.values == (1.0, -1.0)

    def test_star_times_odd_c4(self):
        s3, s2, s5 = math.sqrt(3), math.sqrt(2), math.sqrt(5)
        sp = predicted_product_spectrum(
            Spectrum((s3, 0.0, 0.0, -s3)), Spectrum((s2, s2, -s2, -s2))
        )
        expected = sorted(
            [s5] * 4 + [s2] * 4 + [-s2] * 4 + [-s5] * 4, reverse=True
        )
        assert sp.values == pytest.approx(tuple(expected))

    def test_rejects_non_antisymmetric(self):
        from skewspec import NotAntisymmetricError

        with pytest.raises(NotAntisymmetricError):
            predicted_product_spectrum(Spectrum((1.0, 0.0)), Spectrum((0.0,)))

    @given(st.data())
    def test_matches_casewise_bookkeeping(self, data):
        # the casewise form: for positive entries mu_j (j<=t)
        # and lambda_k (k<=r), emit +-sqrt(mu^2+lambda^2) twice each,
        # +-mu_j with multiplicity (n-2r), +-lambda_k with (m-2t), and
        # (m-2t)(n-2r) zeros; the all-pairs construction must agree
        def antisym(draw, size):
            pos = sorted(
                draw(
                    st.lists(
                        st.floats(0.1, 9.0, allow_nan=False),
                        min_size=size // 2,
                        max_size=size // 2,
                    )
                ),
                reverse=True,
            )
            mid = [0.0] * (size - 2 * (size // 2))
            return Spectrum(tuple(pos) + tuple(mid) + tuple(-v for v in reversed(pos)))

        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 6))
        sp_h, sp_g = antisym(data.draw, m), antisym(data.draw, n)
        mus = [v for v in sp_h.values if v > 0]
        lams = [v for v in sp_g.values if v > 0]
        t, r = len(mus), len(lams)
        case = []
        for mu in mus:
            for lam in lams:
                case += [math.sqrt(mu * mu + lam * lam)] * 2
                case += [-math.sqrt(mu * mu + lam * lam)] * 2
        for mu in mus:
            case += [mu] * (n - 2 * r) + [-mu] * (n - 2 * r)
        for lam in lams:
            case += [lam] * (m - 2 * t) + [-lam] * (m - 2 * t)
        case += [0.0] * ((m - 2 * t) * (n - 2 * r))
        predicted = predicted_product_spectrum(sp_h, sp_g)
        assert len(case) == len(predicted)
        for a, b in zip(sorted(case, reverse=True), predicted.values):
            assert abs(a - b) < 1e-12


class TestVerifyProductSpectrum:
    def test_catalog_pairs(self, rng):
        for h in (path(2), path(4), cycle(4), complete_bipartite(2, 3)):
            for g in (path(3), cycle(3), cycle(5), complete(4)):
                for _ in range(5):
                    assert verify_product_spectrum(
                        random_orientation(rng, h), random_orientation(rng, g), 1e-8
                    )

    def test_energy_composition_exact(self):
        # factors on the bound compose: l I and k I give (l + k) I
        ht = seed_orientation("k44")
        gs = seed_orientation("k4")
        op = oriented_product(ht, gs)
        assert np.array_equal(skew_gram(op), 7 * np.eye(32, dtype=np.int64))
        assert is_gram_scalar(op, 7)


# sha256 of each family member's file, as written by ``family`` and by
# serialize_graph of the iterated oriented_product.  They pin the product
# numbering, the Y-fibre reversal and the file format byte for byte.
FAMILY_SHA256 = {
    ("c4", 1): "f5d5f69eb33faf2318263df67aeed5008f25b66f313ad8fa58790420c9ba3cb8",
    ("c4", 2): "21b745869d379a221ff8ca309e8e10b5096c2b6b0fc04bc5f431a9f8bb0ca155",
    ("c4", 3): "18ae007f6586ba6a2581286d3d4afb1b23b838f5d8f43e9ddca28fc7a783c487",
    ("k4", 1): "72ea7dead72bfbe20ac8354cbe3aab0cfc85f71be0f019001aa5142efdb0c9f9",
    ("k4", 2): "d9a8641c0ec62ec052df214ed3d0a9f76c6d20bb2f9d161cda59586b4ae7ccfe",
    ("k4", 3): "29c8e810b69ea25b498400a89d8880d63ce31ba4e70130ec242e9022a1874c95",
    ("k44", 1): "6c414e9d19906830f19980ffe2ceee014f4d9a2b8a1168765d5c8ee0283aaa01",
    ("k44", 2): "4c84bd4cec5b154b6fac241da72d2cdfda02b9648762a3b43917a7819ee356d1",
    ("k44", 3): "a1face74fe0ae674fa661723fc2bd0e30bb3d49f507d3734631ce8d5e10430dd",
    ("k44", 4): "b1fe081226781edc0ac9ce6c5edee8820a29646e86ebfe9f883985fbddadb28a",
    ("p2", 1): "fc949d9f23dc9e646eabdf052b6a78ff48d378f6176759a2d578c093d5b62d04",
    ("p2", 2): "04216a478014723313408a1a6709cf77cddf794667fbb1f7103a7ba8020d4312",
    ("p2", 3): "e11bea86947ac1df7842a8dd4f111de275931e2449a96cab67822928d27d5eaa",
}


class TestPinnedProducts:
    @pytest.mark.parametrize("base, r", sorted(FAMILY_SHA256))
    def test_family_file_and_product_bytes(self, base, r, tmp_path):
        out = tmp_path / "member.og"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_module.run(["family", str(out), "--base", base, "--r", str(r)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FAMILY_SHA256[base, r]
        og = seed_orientation(base)
        for _ in range(r - 1):
            og = oriented_product(seed_orientation("k44"), og)
        text = serialize_graph(og).encode()
        assert hashlib.sha256(text).hexdigest() == FAMILY_SHA256[base, r]
