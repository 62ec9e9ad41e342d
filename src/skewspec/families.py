"""Iterated families of orientations with maximum skew energy.

Each family starts from a small seed graph oriented so that S S^T = k I
exactly, then repeatedly takes the oriented Cartesian product with a
maximum-energy K_{4,4} on the left.  Because the left factor contributes
4 I and the right factor k I, every member of the family satisfies
S S^T = (k + 4(r-1)) I exactly, so its skew energy sits on the
n * sqrt(degree) ceiling.  Orders and degrees follow closed forms in the
iteration depth r:

    base K_{4,4}: order 2**(3r),     degree 4r
    base K_4:     order 2**(3r - 1), degree 4r - 1
    base C_4:     order 2**(3r - 1), degree 4r - 2
    base P_2:     order 2**(3r - 2), degree 4r - 3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .catalog import complete, complete_bipartite, cycle, path
from .errors import BudgetExceededError
from .graph import VERTEX_CAP, Graph, OrientedGraph
from .products import oriented_product

# Frozen outputs of find_max_energy_orientation on each seed graph: the
# lexicographically first direction vector with S S^T = k I, first bit 0.
# A regression test re-derives each one by search.
K44_SEED_DIRECTION = (0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0)
K4_SEED_DIRECTION = (0, 0, 0, 0, 1, 0)
C4_SEED_DIRECTION = (0, 0, 0, 0)
P2_SEED_DIRECTION = (0,)

# Per base: the seed graph, its frozen direction, and the shifts (a, b) in
# the closed form order 2**(3r - a), degree 4r - b of the depth-r member.
_BASES: dict[str, tuple[Callable[[], Graph], tuple[int, ...], int, int]] = {
    "k44": (lambda: complete_bipartite(4, 4), K44_SEED_DIRECTION, 0, 0),
    "k4": (lambda: complete(4), K4_SEED_DIRECTION, 1, 1),
    "c4": (lambda: cycle(4), C4_SEED_DIRECTION, 1, 2),
    "p2": (lambda: path(2), P2_SEED_DIRECTION, 2, 3),
}

BASE_NAMES = tuple(sorted(_BASES))


@dataclass(frozen=True)
class FamilySpec:
    """A family member: seed graph name and iteration depth r >= 1."""

    base: str
    r: int

    def __post_init__(self):
        if self.base not in _BASES:
            raise ValueError(f"unknown base {self.base!r}; expected one of {BASE_NAMES}")
        if self.r < 1:
            raise ValueError("iteration depth r must be at least 1")


@dataclass(frozen=True)
class FamilyResult:
    """A generated family member with its closed-form order and degree."""

    orientation: OrientedGraph
    order: int
    degree: int


def seed_orientation(base: str) -> OrientedGraph:
    """The frozen maximum-energy orientation of a seed graph."""
    make, direction, _, _ = _BASES[base]
    return OrientedGraph(make(), direction)


def generate_family(spec: FamilySpec) -> FamilyResult:
    """Build the depth-r member of the chosen family.

    Raises :class:`BudgetExceededError` when the closed-form order would
    exceed :data:`VERTEX_CAP`, decided from its exponent, so a huge depth
    builds no huge number.
    """
    _, _, a, b = _BASES[spec.base]
    exponent = 3 * spec.r - a
    # 2**e > cap exactly when e >= cap.bit_length().
    if exponent >= VERTEX_CAP.bit_length():
        raise BudgetExceededError(
            f"{spec.base} family member of depth {spec.r} has order "
            f"2**{exponent}, over the cap of {VERTEX_CAP}"
        )
    order, degree = 2**exponent, 4 * spec.r - b
    og = seed_orientation(spec.base)
    left = seed_orientation("k44")
    for _ in range(spec.r - 1):
        og = oriented_product(left, og)
    return FamilyResult(og, order, degree)
