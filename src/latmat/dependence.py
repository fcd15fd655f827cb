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
from .matroid import GroundSet, TransversalMatroid, size_then_members

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
        return self._key_of_mask(mask)

    def key(self, subset: Iterable) -> Hashable:
        return self._key_of_mask(self.ground.mask_of(subset))

    def related(self, first: Iterable, second: Iterable) -> bool:
        return self.key(first) == self.key(second)


def profile_space(ground: GroundSet, profile_sets: Iterable[Iterable]) -> DependenceSpace:
    """Space relating subsets with the same containment profile.

    The key of a subset B is the tuple of indices of the profile sets that
    contain B; with no profile sets every pair of subsets is related.
    """
    masks = tuple(
        sorted(
            {ground.mask_of(s) for s in profile_sets},
            key=size_then_members(len(ground)),
        )
    )

    def key(mask: int) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(masks) if mask & ~t == 0)

    return DependenceSpace(ground, key)


def closure_space(matroid: TransversalMatroid) -> DependenceSpace:
    """Space relating subsets with equal closures."""
    return DependenceSpace(matroid.ground, matroid.closure_mask)


def spaces_equal_on(matroid: TransversalMatroid, *, max_elements: int = 12) -> bool:
    """Compare the hyperplane-profile and closure spaces of ``matroid``.

    Exhaustively partitions the power set under both keys and compares the
    partitions; guarded because the scan is 2**n.
    """
    n = len(matroid.ground)
    if n > max_elements:
        raise CapacityError(
            f"power-set comparison capped at {max_elements} elements, got {n}"
        )
    hyperplanes = [matroid.ground.subset_of(h) for h in matroid.hyperplane_masks()]
    profiles = profile_space(matroid.ground, hyperplanes)
    closures = closure_space(matroid)
    by_profile: dict[Hashable, set[int]] = {}
    by_closure: dict[Hashable, set[int]] = {}
    for mask in range(1 << n):
        by_profile.setdefault(profiles.key_of_mask(mask), set()).add(mask)
        by_closure.setdefault(closures.key_of_mask(mask), set()).add(mask)
    return {frozenset(c) for c in by_profile.values()} == {
        frozenset(c) for c in by_closure.values()
    }


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

    Depth-first branching on the unmet target with fewest remaining options
    (MMCS, Murakami & Uno 2014).  The options are tried in bit order, and
    each option's branch bans the lower ones, so no hitter is generated
    twice.  A leaf is kept only when each chosen element is the sole chosen
    member of some target; that drops the non-minimal strays the branching
    can reach.  Output is sorted by (size, member indices); with no targets
    the empty mask is the unique answer.
    """
    target_masks = sorted(set(target_masks))
    if target_masks and target_masks[0] == 0:
        raise EmptyTargetError("an empty target set cannot be hit")
    if not target_masks:
        return [0]

    found: list[int] = []

    def keep_if_minimal(chosen: int) -> None:
        private = 0
        for t in target_masks:
            hit = t & chosen
            if hit & (hit - 1) == 0:
                private |= hit
        if private == chosen:
            found.append(chosen)

    # an explicit stack, so the depth is not bounded by the recursion limit;
    # a frame holds its parent's pending targets and the bit it adds to them
    stack = [(0, 0, 0, target_masks)]
    while stack:
        chosen, banned, bit, pending = stack.pop()
        pending = [t for t in pending if not t & bit]
        common = -1
        for t in pending:
            common &= t
        options = min((t & ~banned for t in pending), key=int.bit_count)
        # an element of every pending target completes a hitter at once
        while options:
            bit = options & -options
            options ^= bit
            if bit & common:
                keep_if_minimal(chosen | bit)
            else:
                stack.append((chosen | bit, banned, bit, pending))
            banned |= bit

    found.sort(key=size_then_members(target_masks[-1].bit_length()))
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
