"""Dependence spaces on the power set and reduct enumeration.

A dependence space is an equivalence relation on the subsets of a ground
set.  It is kept intensional here: a space is a canonical-key function, and
two subsets are related exactly when their keys compare equal.  Two spaces
matter for reduction: relating subsets with the same containment profile
over a fixed collection of sets, and relating subsets with the same matroid
closure.  Over the hyperplanes of a matroid the two coincide, which turns
reduct enumeration into minimal hitting sets of the hyperplane complements.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .errors import CapacityError, EmptyTargetError
from .matroid import GroundSet, TransversalMatroid

__all__ = [
    "DependenceSpace",
    "closure_space",
    "complement_family",
    "minimal_hitting_masks",
    "minimal_hitting_sets",
    "profile_space",
    "reducts_via_hyperplanes",
    "spaces_equal_on",
]


class DependenceSpace:
    """Equivalence relation on the power set, given by a canonical key.

    The extensional relation is doubly exponential, so it is never
    materialized; exhaustive comparisons live behind :func:`spaces_equal_on`.
    """

    def __init__(self, ground: GroundSet, key_of_mask: Callable[[int], Hashable]):
        self.ground = ground
        self._key_of_mask = key_of_mask

    def key_of_mask(self, mask: int) -> Hashable:
        """Key of the subset ``mask``; a mask with bits outside the ground is refused."""
        self.ground.refuse_outside(mask)
        return self._key_of_mask(mask)

    def key(self, subset: Iterable) -> Hashable:
        return self._key_of_mask(self.ground.mask_of(subset))

    def related(self, first: Iterable, second: Iterable) -> bool:
        return self.key(first) == self.key(second)


def _profile_key(profile_masks: Iterable[int]) -> Callable[[int], tuple[int, ...]]:
    masks = sorted(set(profile_masks))

    def key(mask: int) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(masks) if mask & ~t == 0)

    return key


def profile_space(ground: GroundSet, profile_sets: Iterable[Iterable]) -> DependenceSpace:
    """Space relating subsets with the same containment profile.

    The key of a subset B is the tuple of indices of the profile sets that
    contain B; with no profile sets every pair of subsets is related.
    """
    return DependenceSpace(ground, _profile_key(ground.mask_of(s) for s in profile_sets))


def closure_space(matroid: TransversalMatroid) -> DependenceSpace:
    """Space relating subsets with equal closures."""
    return DependenceSpace(matroid.ground, matroid.closure_mask)


def spaces_equal_on(matroid: TransversalMatroid, *, max_elements: int = 12) -> bool:
    """Compare the hyperplane-profile and closure spaces of ``matroid``.

    Exhaustively keys the power set under both spaces.  The two partitions
    are equal iff the distinct (profile key, closure key) pairs are as many
    as the distinct keys on each side; guarded because the scan is 2**n.
    """
    n = len(matroid.ground)
    if n > max_elements:
        raise CapacityError(
            f"power-set comparison capped at {max_elements} elements, got {n}"
        )
    profile, closure = _profile_key(matroid.hyperplane_masks()), matroid.closure_mask
    pairs = {(profile(m), closure(m)) for m in range(1 << n)}
    return len(pairs) == len({p for p, _ in pairs}) == len({c for _, c in pairs})


def minimal_hitting_sets(
    ground: GroundSet, targets: Iterable[Iterable]
) -> tuple[frozenset, ...]:
    """All inclusion-minimal subsets meeting every target set.

    Targets are converted to masks of ``ground`` and searched by
    :func:`minimal_hitting_masks`; the output is sorted by (size, member
    indices).  With no targets at all the empty set is the unique answer.
    """
    masks = minimal_hitting_masks([ground.mask_of(t) for t in targets])
    return tuple(ground.subset_of(m) for m in masks)


def minimal_hitting_masks(target_masks: Iterable[int]) -> list[int]:
    """All inclusion-minimal masks meeting every target mask.

    Berge's method (*Hypergraphs*, 1989): the minimal hitters are grown
    target by target, smallest targets first, from the empty mask.  For a
    target t the hitters meeting t are kept, and every other hitter h is
    grown by each bit b of t, unless a kept hitter meets t in b alone and
    its other bits lie inside h.  That one-bit test is exact, since h misses
    t and the hitters so far form an antichain, so no two grown masks
    coincide or nest.  Output is sorted by (size, member indices), which
    under the ground's bit numbering is size, then descending int.  With no
    targets the empty mask is the unique answer.
    """
    targets = sorted(set(target_masks), key=int.bit_count)
    if targets and targets[0] == 0:
        raise EmptyTargetError("an empty target set cannot be hit")
    hitters = {0}
    for t in targets:
        # the hitters missing t; the rest of each one meeting t in one bit, by bit
        missed: list[int] = []
        rests: dict[int, list[int]] = {}
        for h in hitters:
            hit = h & t
            if not hit:
                missed.append(h)
            elif not hit & (hit - 1):
                rests.setdefault(hit, []).append(h ^ hit)
        hitters.difference_update(missed)
        bits = t
        while bits:
            bit = bits & -bits
            bits ^= bit
            rest = rests.get(bit)
            hitters.update([h | bit for h in missed if not rest or all(r & ~h for r in rest)])
    found = sorted(hitters, reverse=True)
    found.sort(key=int.bit_count)
    return found


def complement_family(ground: GroundSet, sets: Iterable[Iterable]) -> tuple[frozenset, ...]:
    """Complement of each given set within the ground set, input order kept."""
    full = ground.full_mask
    return tuple(ground.subset_of(full & ~ground.mask_of(s)) for s in sets)


def reducts_via_hyperplanes(matroid: TransversalMatroid) -> tuple[frozenset, ...]:
    """Minimal subsets meeting every hyperplane complement.

    These are exactly the subsets that span the matroid and are minimal with
    that property, i.e. the reducts of both dependence spaces above.  Output
    is sorted by (size, member indices).
    """
    ground = matroid.ground
    masks = minimal_hitting_masks(ground.full_mask & ~h for h in matroid.hyperplane_masks())
    return tuple(ground.subset_of(m) for m in masks)
