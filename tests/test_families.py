import math

import numpy as np
import pytest

from skewspec import (
    BudgetExceededError,
    FamilySpec,
    generate_family,
    is_gram_scalar,
    seed_orientation,
    skew_energy,
    skew_gram,
)

CLOSED_FORMS = {
    "k44": lambda r: (2 ** (3 * r), 4 * r),
    "k4": lambda r: (2 ** (3 * r - 1), 4 * r - 1),
    "c4": lambda r: (2 ** (3 * r - 1), 4 * r - 2),
    "p2": lambda r: (2 ** (3 * r - 2), 4 * r - 3),
}


class TestSeeds:
    def test_seeds_are_certified(self):
        for base, k in [("k44", 4), ("k4", 3), ("c4", 2), ("p2", 1)]:
            og = seed_orientation(base)
            assert is_gram_scalar(og, k)


class TestFamilySpec:
    def test_bad_base(self):
        with pytest.raises(ValueError):
            FamilySpec("petersen", 1)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            FamilySpec("k44", 0)

    def test_order_cap(self):
        # Depth 7 is order 2**21, over the vertex cap of 2**18.
        with pytest.raises(BudgetExceededError) as info:
            generate_family(FamilySpec("k44", 7))
        assert str(info.value) == (
            "k44 family member of depth 7 has order 2**21, over the cap of 262144"
        )

    def test_huge_depth_is_over_the_cap(self):
        # The cap is decided from the exponent: 2**(3 * 10**21) is never built.
        with pytest.raises(BudgetExceededError) as info:
            generate_family(FamilySpec("k44", 10**21))
        assert str(info.value) == (
            f"k44 family member of depth {10**21} has order "
            f"2**{3 * 10**21}, over the cap of 262144"
        )


class TestGeneratedMembers:
    @pytest.mark.parametrize("base", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("r", [1, 2])
    def test_order_degree_certificate_energy(self, base, r):
        order, degree = CLOSED_FORMS[base](r)
        res = generate_family(FamilySpec(base, r))
        og = res.orientation
        assert (res.order, res.degree) == (order, degree)
        assert og.n == order
        assert og.graph.regular_degree() == degree
        assert np.array_equal(
            skew_gram(og), degree * np.eye(order, dtype=np.int64)
        )
        energy = skew_energy(og).energy
        target = order * math.sqrt(degree)
        assert abs(energy - target) <= 1e-8 * target

    @pytest.mark.parametrize("base", sorted(CLOSED_FORMS))
    def test_certified_energy_equals_its_bound(self, base):
        # n copies of sqrt(k) summed with one rounding give n * sqrt(k)
        # exactly; a running float sum drifts from it.
        for r in range(1, 5):
            report = skew_energy(generate_family(FamilySpec(base, r)).orientation)
            assert report.exact_certificate
            assert report.energy == report.bound

    def test_k44_r1_energy_is_16(self):
        res = generate_family(FamilySpec("k44", 1))
        assert abs(skew_energy(res.orientation).energy - 16.0) < 1e-9

    def test_p2_r1_is_single_arc(self):
        res = generate_family(FamilySpec("p2", 1))
        assert res.orientation.arcs() == ((0, 1),)

    def test_depth_three_still_exact(self):
        res = generate_family(FamilySpec("p2", 3))
        assert res.orientation.n == 2**7
        assert is_gram_scalar(res.orientation, 9)
