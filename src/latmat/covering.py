"""Covering-specific structure of the induced matroid.

When the blocks of a family jointly cover the ground set, the height-one
flats can be read directly off the blocks: each block's residue (the part of
it shared with no other block) is an atom, and every element covered by two
or more blocks forms a singleton atom.  The closures of single elements then
partition the ground set, which yields rough-set style lower and upper
approximation operators.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import NotACoveringError, NotAFlatError
from .matroid import SetFamily, TransversalMatroid, residue_masks

__all__ = [
    "Covering",
    "CoveringEquivalenceReport",
    "ResidueSplit",
    "check_covering_equivalences",
    "is_covering",
]


def is_covering(family: SetFamily) -> bool:
    """True when the nonempty blocks jointly cover the ground set."""
    union = 0
    for mask in family.block_masks:
        union |= mask
    return union == family.ground.full_mask


class ResidueSplit(NamedTuple):
    """Split of a covering into block residues and the multiply covered rest.

    ``residues`` holds, once each, every nonempty set of elements private to a
    single block; ``shared`` collects the elements lying in two or more blocks.
    Together they partition the ground set.
    """

    residues: tuple[frozenset, ...]
    shared: frozenset


class Covering:
    """A set family whose blocks cover the ground set.

    Wraps the induced transversal matroid with covering-only operations; the
    matroid and the single-element closures are computed once and cached.
    """

    def __init__(self, family: SetFamily):
        if not is_covering(family):
            raise NotACoveringError("blocks do not cover the ground set")
        self.family = family
        self.ground = family.ground

    @cached_property
    def matroid(self) -> TransversalMatroid:
        return TransversalMatroid(self.family)

    @cached_property
    def _singleton_closure_masks(self) -> tuple[int, ...]:
        return tuple(map(self.matroid.closure_mask, self.ground.bits))

    @cached_property
    def singleton_closures(self) -> dict:
        """Closure of each one-element set; the class of that element.

        For a covering the image of this map partitions the ground set.
        """
        return {
            element: self.ground.subset_of(mask)
            for element, mask in zip(self.ground.elements, self._singleton_closure_masks)
        }

    def residue_split(self) -> ResidueSplit:
        """Residue of each block (the block minus all others) plus the rest."""
        residues, shared = residue_masks(self.family.block_masks)
        return ResidueSplit(
            residues=tuple(self.ground.subset_of(r) for r in residues),
            shared=self.ground.subset_of(shared),
        )

    def atoms(self) -> tuple[frozenset, ...]:
        """Height-one flats, read directly off the block structure.

        The residues are atoms, and each shared element is a singleton atom;
        no matroid computation is involved.  Agrees with the lattice atoms
        and with the image of :attr:`singleton_closures`.
        """
        masks, shared = residue_masks(self.family.block_masks)
        masks.extend(bit for bit in self.ground.bits if bit & shared)
        masks.sort(reverse=True)  # atoms are disjoint, so ints give member order
        return tuple(self.ground.subset_of(m) for m in masks)

    def lower_approx(self, subset: Iterable) -> frozenset:
        """Elements whose whole class fits inside ``subset``."""
        mask = self.ground.mask_of(subset)
        out = 0
        for bit, cls in zip(self.ground.bits, self._singleton_closure_masks):
            if cls & ~mask == 0:
                out |= bit
        return self.ground.subset_of(out)

    def upper_approx(self, subset: Iterable) -> frozenset:
        """Elements whose class meets ``subset``."""
        mask = self.ground.mask_of(subset)
        out = 0
        for bit, cls in zip(self.ground.bits, self._singleton_closure_masks):
            if cls & mask:
                out |= bit
        return self.ground.subset_of(out)

    def flat_is_union_of_closures(self, flat: Iterable) -> bool:
        """Check that a flat is the union of the classes of its elements."""
        mask = self.ground.mask_of(flat)
        if self.matroid.closure_mask(mask) != mask:
            raise NotAFlatError("argument is not a flat of the induced matroid")
        union = 0
        for bit, cls in zip(self.ground.bits, self._singleton_closure_masks):
            if bit & mask:
                union |= cls
        return union == mask


class CoveringEquivalenceReport(NamedTuple):
    """Truth values of the four equivalent covering characterizations.

    For any family of nonempty blocks the four statements agree: the blocks
    cover the ground set iff the empty set is closed iff the single-element
    closures partition the ground set iff those closures are exactly the
    atoms of the flat lattice.
    """

    covering: bool
    empty_set_closed: bool
    closures_partition: bool
    closures_are_atoms: bool

    @property
    def statements(self) -> tuple[bool, bool, bool, bool]:
        return tuple(self)

    @property
    def consistent(self) -> bool:
        return len(set(self.statements)) == 1


def check_covering_equivalences(matroid: TransversalMatroid) -> CoveringEquivalenceReport:
    """Evaluate all four covering characterizations on the matroid's family."""
    ground = matroid.ground
    image = set(map(matroid.closure_mask, ground.bits))
    # each element lies in its own closure, so the distinct closures cover
    # the ground set; they are pairwise disjoint iff their sizes sum to n
    partition = sum(c.bit_count() for c in image) == len(ground)

    atom_masks = {
        m for m, r in zip(matroid.flat_masks(), matroid.flat_ranks()) if r == 1
    }

    return CoveringEquivalenceReport(
        covering=is_covering(matroid.family),
        empty_set_closed=matroid.closure_mask(0) == 0,
        closures_partition=partition,
        closures_are_atoms=image == atom_masks,
    )
