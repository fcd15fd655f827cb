"""Transversal matroids induced by finite set families.

A family of nonempty blocks over a finite ground set induces a matroid whose
independent sets are the partial transversals of the family: the subsets that
can be matched injectively into blocks containing them.  Rank is therefore a
maximum bipartite matching size.  One breadth-first sweep over a matching, the
alternating forest of Kuhn's method, gives both the closure and a path that
matches each element outside it.  One pass over the flats, rank by rank,
yields them together with their ranks and Hasse covers; each flat is closed
once, and a flat reuses the covers already found one rank up.

All subset arithmetic runs on bitmask encodings with a stable element-to-bit
numbering, so enumeration order is deterministic for a fixed ground order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .errors import DegenerateMatroidError, UnknownElementError

__all__ = [
    "GroundSet",
    "SetFamily",
    "TransversalMatroid",
    "iter_bits",
    "pick",
    "size_then_members",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pick(table: Sequence, mask: int) -> list:
    """Entries of ``table`` at the set bits of ``mask``, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(table[low.bit_length() - 1])
        mask ^= low
    return out


def size_then_members(width: int) -> Callable[[int], tuple[int, int]]:
    """Sort key ordering masks below ``2**width`` by (size, member indices).

    Within one size, ascending member tuples are descending bit-reversed
    masks, and one int conversion is cheaper than a tuple.
    """

    def key(mask: int) -> tuple[int, int]:
        return mask.bit_count(), -int(f"{mask:0{width}b}"[::-1], 2)

    return key


@dataclass(frozen=True)
class GroundSet:
    """Ordered universe of distinct elements with a stable bit numbering.

    ``texts[i]`` is element ``i`` as printed, ``str(e)``; ``tokens[i]`` is
    it as a JSON literal, for the string and integer elements that documents
    hold.  Both are computed once, and every rendering reads them.
    """

    elements: tuple[Hashable, ...]
    full_mask: int = field(init=False, repr=False, compare=False)
    texts: tuple[str, ...] = field(init=False, repr=False, compare=False)
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("ground set must not be empty")
        index: dict = {}
        for i, element in enumerate(elements):
            if element in index:
                raise ValueError(f"duplicate element {element!r} in ground set")
            index[element] = i
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "full_mask", (1 << len(elements)) - 1)
        object.__setattr__(self, "texts", tuple(map(str, elements)))
        object.__setattr__(
            self,
            "tokens",
            tuple(encode_basestring_ascii(e) if isinstance(e, str) else str(e) for e in elements),
        )
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element) -> bool:
        return element in self._index

    def index_of(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElementError(element) from None

    def mask_of(self, subset: Iterable) -> int:
        """Bitmask of a subset given by element identifiers."""
        mask = 0
        for element in subset:
            mask |= 1 << self.index_of(element)
        return mask

    def subset_of(self, mask: int) -> frozenset:
        return frozenset(self.members(mask))

    def members(self, mask: int) -> tuple:
        """Members of ``mask`` in ground order."""
        return tuple(pick(self.elements, mask))

    def label(self, mask: int) -> str:
        """``mask`` printed as ``{a,b}``, members in ground order."""
        return "{" + ",".join(pick(self.texts, mask)) + "}"


@dataclass(frozen=True)
class SetFamily:
    """Indexed family of nonempty blocks over a ground set.

    Blocks may overlap, may repeat, and need not cover the ground set; an
    element lying in no block becomes a rank-zero element of the induced
    matroid.
    """

    ground: GroundSet
    blocks: tuple[frozenset, ...]
    block_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(frozenset(block) for block in self.blocks)
        if not blocks:
            raise ValueError("family must contain at least one block")
        masks = []
        for k, block in enumerate(blocks):
            if not block:
                raise ValueError(f"block {k} is empty")
            masks.append(self.ground.mask_of(block))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_masks", tuple(masks))

    @property
    def size(self) -> int:
        return len(self.blocks)


class TransversalMatroid:
    """Matroid whose independent sets are the partial transversals of a family.

    Rank is the size of a maximum matching of elements into blocks containing
    them.  A sweep over a matching reaches the free-reaching blocks, those
    unmatched or owned by an element of one; the closure adds every element
    they miss, and each element they hold is matched by one walk back.
    The first :meth:`flat_masks` call enumerates the flats with their ranks
    and Hasse covers; apart from that record, instances are immutable.
    """

    def __init__(self, family: SetFamily):
        self.family = family
        self.ground = family.ground
        self._flat_record: tuple | None = None  # (masks, ranks, covers)
        self.ground_rank = self.rank_mask(self.ground.full_mask)

    # mask-level core --------------------------------------------------

    def _closed(self, mask: int, owner: list[int]) -> tuple[int, list[int]]:
        """Closure of ``mask`` and ``into``, given a maximum matching ``owner`` of it.

        Breadth-first from the unmatched blocks, a block is queued once its
        owner is reached, so only free-reaching blocks are visited.
        ``into[i]`` is the block that first reached element ``i``, or -1.
        """
        blocks = self.family.block_masks
        into = [-1] * len(self.ground)
        held = into.copy()  # per element, the block it owns or -1
        queue = []
        for b, i in enumerate(owner):
            if i < 0:
                queue.append(b)
            else:
                held[i] = b
        reached = 0
        for b in queue:
            new = blocks[b] & ~reached
            reached |= new
            while new:
                low = new & -new
                i = low.bit_length() - 1
                into[i] = b
                if held[i] >= 0:
                    queue.append(held[i])
                new ^= low
        return mask | (self.ground.full_mask & ~reached), into

    @staticmethod
    def _shift(i: int, owner: list[int], into: list[int]) -> None:
        """Match element ``i``, reached by the sweep that gave ``into``.

        Each block's owner moves to the block that reached it, which was
        queued earlier, so the walk ends at an unmatched block.
        """
        while i >= 0:
            b = into[i]
            owner[b], i = i, owner[b]

    def _matching(self, mask: int) -> list[int]:
        """Maximum matching of the elements of ``mask`` into blocks.

        Returns ``owner``: per block, the matched element index or -1.
        """
        owner = [-1] * self.family.size
        for i in iter_bits(mask):
            into = self._closed(0, owner)[1]
            if into[i] >= 0:
                self._shift(i, owner, into)
        return owner

    def rank_mask(self, mask: int) -> int:
        return sum(1 for i in self._matching(mask) if i >= 0)

    def closure_mask(self, mask: int) -> int:
        return self._closed(mask, self._matching(mask))[0]

    def flat_masks(self) -> tuple[int, ...]:
        """All closed sets, sorted by (rank, member indices).

        The first call enumerates them rank by rank from the closure of the
        empty set.  The covers of a flat F partition the elements outside F,
        and every flat of the next rank that holds F covers it (Oxley,
        *Matroid Theory*, section 1.7).  So F first takes the covers already
        found in its level, looked up through a per-element mask of the
        found flats holding that element, and strikes their elements.  Each
        element left yields a new cover cl(F + e): F's matching takes e by
        one walk along F's sweep, and the grown matching is swept once and
        kept, with its sweep, for the cover.
        Every flat is thus closed exactly once, and each cover is recorded
        as a Hasse edge (see :meth:`flat_ranks`, :meth:`flat_covers`).
        """
        if self._flat_record is None:
            full = self.ground.full_mask
            unmatched = [-1] * self.family.size
            loops, into = self._closed(0, unmatched)
            level = {loops: (unmatched, into)}
            masks: list[int] = []
            ranks: list[int] = []
            ups: list[list[int]] = []
            while level:
                # flats of the next rank found so far, with their matchings
                # and sweeps; ``found`` lists them in order, and per element
                # ``holders`` has a mask of the positions of the flats holding it
                above: dict[int, tuple[list[int], list[int]]] = {}
                found: list[int] = []
                holders = [0] * len(self.ground)
                # flats of one rank differ in size and are ordered by their
                # members alone, so the (size, members) key does not apply
                for flat in sorted(level, key=lambda m: tuple(iter_bits(m))):
                    owner, into = level[flat]
                    masks.append(flat)
                    ranks.append(len(owner) - owner.count(-1))
                    ups.append([])
                    rest = full & ~flat
                    # a found flat holding flat is one rank up, so covers it
                    held = (1 << len(found)) - 1
                    for i in iter_bits(flat & ~loops):
                        held &= holders[i]
                    for j in iter_bits(held):
                        cover = found[j]
                        ups[-1].append(cover)
                        rest &= ~cover
                    while rest:
                        bit = rest & -rest
                        grown = owner.copy()
                        self._shift(bit.bit_length() - 1, grown, into)
                        cover, reach = self._closed(flat | bit, grown)
                        rest &= ~cover
                        ups[-1].append(cover)
                        above[cover] = grown, reach
                        slot = 1 << len(found)
                        found.append(cover)
                        for i in iter_bits(cover & ~loops):
                            holders[i] |= slot
                level = above
            position = {m: k for k, m in enumerate(masks)}
            covers = tuple(tuple(sorted(position[c] for c in cs)) for cs in ups)
            self._flat_record = (tuple(masks), tuple(ranks), covers)
        return self._flat_record[0]

    def flat_ranks(self) -> tuple[int, ...]:
        """Rank of each flat, position for position with :meth:`flat_masks`."""
        self.flat_masks()
        return self._flat_record[1]

    def flat_covers(self) -> tuple[tuple[int, ...], ...]:
        """Per flat, the ascending positions in :meth:`flat_masks` of its covers."""
        self.flat_masks()
        return self._flat_record[2]

    def hyperplane_masks(self) -> tuple[int, ...]:
        if self.ground_rank == 0:
            raise DegenerateMatroidError("a rank-zero matroid has no hyperplanes")
        want = self.ground_rank - 1
        return tuple(m for m, r in zip(self.flat_masks(), self.flat_ranks()) if r == want)

    def closure_via_hyperplanes_mask(self, mask: int) -> int:
        if self.rank_mask(mask) == self.ground_rank:
            return self.ground.full_mask
        closed = self.ground.full_mask
        for h in self.hyperplane_masks():
            if mask & ~h == 0:
                closed &= h
        return closed

    # element-level interface -------------------------------------------

    def is_independent(self, subset: Iterable) -> bool:
        """True iff the subset is a partial transversal of the family."""
        mask = self.ground.mask_of(subset)
        return self.rank_mask(mask) == mask.bit_count()

    def rank(self, subset: Iterable) -> int:
        """Size of a largest independent subset, via maximum matching."""
        return self.rank_mask(self.ground.mask_of(subset))

    def closure(self, subset: Iterable) -> frozenset:
        """All elements whose addition leaves the rank unchanged."""
        return self.ground.subset_of(self.closure_mask(self.ground.mask_of(subset)))

    def flats(self) -> tuple[frozenset, ...]:
        """Every closed set, in deterministic (rank, member) order."""
        return tuple(self.ground.subset_of(m) for m in self.flat_masks())

    def hyperplanes(self) -> tuple[frozenset, ...]:
        """Closed sets of rank one below the ground rank."""
        return tuple(self.ground.subset_of(m) for m in self.hyperplane_masks())

    def closure_via_hyperplanes(self, subset: Iterable) -> frozenset:
        """Closure computed as an intersection of enclosing hyperplanes.

        Spanning subsets close to the whole ground set; anything else closes
        to the intersection of every hyperplane containing it.  Must agree
        with :meth:`closure` everywhere.
        """
        mask = self.ground.mask_of(subset)
        return self.ground.subset_of(self.closure_via_hyperplanes_mask(mask))
