"""Transversal matroids induced by finite set families.

A family of nonempty blocks over a finite ground set induces a matroid whose
independent sets are the partial transversals of the family: the subsets that
can be matched injectively into blocks containing them.  Rank is therefore a
maximum bipartite matching size.  One breadth-first sweep over a matching, the
alternating forest of Kuhn's method, gives the closure and the blocks visited,
along which one walk back matches any element outside it.  One pass over the
flats, rank by rank, yields their ranks and Hasse covers, each flat closed
once.  All subset arithmetic runs on bitmasks with a stable element-to-bit
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
    "members_order",
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


def members_order(width: int) -> Callable[[int], int]:
    """Sort key ordering an antichain of masks below ``2**width`` by members.

    In an antichain no member tuple is a prefix of another, so ascending
    member tuples are descending bit-reversed masks: one int, not a tuple.
    """
    return lambda mask: -int(f"{mask:0{width}b}"[::-1], 2)


def size_then_members(width: int) -> Callable[[int], tuple[int, int]]:
    """Sort key ordering masks below ``2**width`` by (size, member indices).

    Masks of one size form an antichain, keyed as by :func:`members_order`,
    written out again so that each mask costs one call.
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
        """Closure of ``mask`` and the blocks swept, given a maximum matching ``owner`` of it.

        Breadth-first from the unmatched blocks, a block is queued once its
        owner is reached; the closure adds every element the queue misses.
        """
        blocks = self.family.block_masks
        queue, matched = [], 0
        for b, i in enumerate(owner):
            if i < 0:
                queue.append(b)
            else:
                matched |= 1 << i
        reached = 0
        for b in queue:
            new = blocks[b] & ~reached
            reached |= new
            new &= matched
            while new:
                low = new & -new
                queue.append(owner.index(low.bit_length() - 1))  # the block it owns
                new ^= low
        return mask | (self.ground.full_mask & ~reached), queue

    def _shift(self, i: int, owner: list[int], queue: list[int]) -> None:
        """Match element ``i``, reached by the sweep that gave ``queue``.

        Each block's owner moves to the first block in ``queue`` holding it,
        queued earlier, so the walk ends at an unmatched block.
        """
        blocks = self.family.block_masks
        while i >= 0:
            for b in queue:
                if blocks[b] >> i & 1:
                    break
            owner[b], i = i, owner[b]

    def _matching(self, mask: int) -> list[int]:
        """Maximum matching ``owner`` of ``mask``: per block, its element index or -1."""
        owner = [-1] * self.family.size
        for i in iter_bits(mask):
            closure, queue = self._closed(0, owner)
            if not closure >> i & 1:
                self._shift(i, owner, queue)
        return owner

    def rank_mask(self, mask: int) -> int:
        return sum(1 for i in self._matching(mask) if i >= 0)

    def closure_mask(self, mask: int) -> int:
        return self._closed(mask, self._matching(mask))[0]

    def flat_masks(self) -> tuple[int, ...]:
        """All closed sets, sorted by (rank, member indices).

        The first call enumerates them rank by rank from the closure of the
        empty set; a rank is an antichain, sorted by one int key.  A flat one
        rank up covers a flat F iff it holds a basis of F, and the covers of
        F partition the elements outside F (Oxley, *Matroid Theory*, 1.7).
        So F takes the found covers holding its matched basis, and closes
        each element e left into a new cover cl(F + e), its matching grown by
        one walk back.  Each flat is closed once and listed by its covers.
        """
        if self._flat_record is None:
            full = self.ground.full_mask
            unmatched = [-1] * self.family.size
            loops, queue = self._closed(0, unmatched)
            level = {loops: (unmatched, queue, [])}
            masks, ranks, covers = [], [], []
            rank = 0
            while level:
                # the next rank's flats found so far, with their matchings,
                # swept blocks and lower flats; ``holders[i]`` masks the found
                # flats holding element i, and ``holders[-1]`` holds them all
                above, found = {}, []
                holders = [0] * len(self.ground) + [-1]
                for flat in sorted(level, key=members_order(len(self.ground))):
                    owner, queue, lower = level[flat]
                    here = len(masks)
                    for k in lower:
                        covers[k].append(here)
                    masks.append(flat)
                    ranks.append(rank)
                    covers.append([])
                    rest = full & ~flat
                    # a found flat holding flat's matched basis holds flat, so covers it
                    held = (1 << len(found)) - 1
                    for i in owner:
                        held &= holders[i]
                    while held:
                        low = held & -held
                        cover = found[low.bit_length() - 1]
                        above[cover][2].append(here)
                        rest &= ~cover
                        held ^= low
                    while rest:
                        bit = rest & -rest
                        grown = owner.copy()
                        self._shift(bit.bit_length() - 1, grown, queue)
                        cover, reach = self._closed(flat | bit, grown)
                        rest &= ~cover
                        above[cover] = grown, reach, [here]
                        slot = 1 << len(found)
                        found.append(cover)
                        new = cover & ~loops
                        while new:
                            low = new & -new
                            holders[low.bit_length() - 1] |= slot
                            new ^= low
                level, rank = above, rank + 1
            self._flat_record = (tuple(masks), tuple(ranks), tuple(map(tuple, covers)))
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

        The intersection of every hyperplane containing the subset; a
        spanning subset lies in none and closes to the whole ground set.
        Must agree with :meth:`closure` everywhere.
        """
        mask = self.ground.mask_of(subset)
        return self.ground.subset_of(self.closure_via_hyperplanes_mask(mask))
