"""Transversal matroids induced by finite set families.

A family of nonempty blocks over a finite ground set induces a matroid whose
independent sets are the partial transversals of the family: the subsets that
can be matched injectively into blocks containing them.  Rank is therefore a
maximum bipartite matching size, taken over the r blocks that one maximum
matching of the ground uses: they present the same matroid (Oxley, *Matroid
Theory*, 1.6).  One breadth-first sweep over a matching, the alternating
forest of Kuhn's method, gives the closure and the blocks visited, along which
one walk back matches any element outside it.  One pass over the flats, rank
by rank, yields their ranks and Hasse covers, each flat closed once.  All
subset arithmetic runs on bitmasks in which element i of an n-element
ground is bit n - 1 - i, so for masks of one size ascending member tuples are
descending ints: every canonical (size, members) order is a plain int sort.
Only this module reads that numbering; other code takes bits from
``GroundSet.bits`` and members from :func:`pick`.  A list of masks is
rendered by :func:`joined` along one of two routes, chosen by the list
alone: a list with fewer members than two half tables of the entries hold
walks each mask through :func:`pick`; a longer one builds those tables and
reads each mask from them with two lookups.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import UnknownElementError

__all__ = [
    "GroundSet",
    "SetFamily",
    "TransversalMatroid",
    "iter_bits",
    "joined",
    "labels",
    "pick",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, highest first: in ground order."""
    while mask:
        top = mask.bit_length() - 1
        yield top
        mask ^= 1 << top


def pick(table: Sequence, mask: int) -> list:
    """Entries of ``table`` at the members of ``mask``, in table order.

    Entry i stands at bit ``len(table) - 1 - i``, so the walk starts at the
    top bit.  A negative mask, or one with bits at or above ``len(table)``,
    shifts to nonzero and raises ``IndexError`` rather than wrap around.
    """
    n = len(table)
    if mask >> n:
        raise IndexError(f"mask outside a table of {n} entries")
    out = []
    while mask:
        top = mask.bit_length()
        out.append(table[n - top])
        mask ^= 1 << (top - 1)
    return out


def _runs(pieces: Sequence[str]) -> list[str]:
    """At each mask over ``pieces``, its pieces concatenated in order.

    The first piece stands at the top bit.  Built by doubling: each piece,
    from the last, prefixes a copy of the runs so far, so the list holds
    ``2 ** len(pieces)`` strings.
    """
    runs = [""]
    for piece in reversed(pieces):
        runs += [piece + run for run in runs]
    return runs


def joined(table: Sequence[str], masks: Sequence[int], sep: str) -> list[str]:
    """``sep.join(pick(table, mask))`` for each mask of ``masks``.

    For an n-entry table and h = n // 2, a list with at least as many
    members as the 2**h + 2**(n - h) runs of two half tables is read from
    them: each mask is ``high[mask >> h] + low[mask & (2**h - 1)]``, runs of
    separator-prefixed entries, with the leading separator cut.  A shorter
    list walks each mask through :func:`pick`.  Either way a negative mask,
    or one with a bit at or above n, raises ``IndexError``.
    """
    n = len(table)
    h = n // 2
    if sum(map(int.bit_count, masks)) < (1 << h) + (1 << (n - h)):
        return [sep.join(pick(table, mask)) for mask in masks]
    if min(masks) < 0:  # mask >> h would index high from its end
        raise IndexError(f"mask outside a table of {n} entries")
    pieces = [sep + entry for entry in table]
    high, low = _runs(pieces[: n - h]), _runs(pieces[n - h :])
    cut, part = len(sep), (1 << h) - 1
    return [(high[mask >> h] + low[mask & part])[cut:] for mask in masks]


def labels(table: Sequence[str], masks: Sequence[int]) -> list[str]:
    """Each mask written as ``{a,b}`` from the entries of ``table`` at its members.

    :meth:`GroundSet.label` of each mask when ``table`` is the ground's
    ``texts``, joined by :func:`joined`.
    """
    return ["{" + text + "}" for text in joined(table, masks, ",")]


class GroundSet:
    """Ordered universe of distinct elements with a stable bit numbering.

    ``bits[i]`` is element ``i``'s one-bit mask, bit ``n - 1 - i``, so the
    first element holds the top bit.  ``texts[i]`` is element ``i`` as
    printed, ``str(e)``; ``tokens[i]`` is it as a JSON literal, for the
    string and integer elements that documents hold.  All three are computed
    once; masks are built from ``bits`` and rendered from the other two.
    """

    __slots__ = ("elements", "full_mask", "bits", "texts", "tokens", "_index")

    def __init__(self, elements: Iterable[Hashable]):
        elements = tuple(elements)
        if not elements:
            raise ValueError("ground set must not be empty")
        index: dict = {}
        for i, element in enumerate(elements):
            if element in index:
                raise ValueError(f"duplicate element {element!r} in ground set")
            index[element] = i
        self.elements = elements
        self.full_mask = (1 << len(elements)) - 1
        self.bits = tuple(1 << i for i in range(len(elements) - 1, -1, -1))
        self.texts = tuple(map(str, elements))
        self.tokens = tuple(
            encode_basestring_ascii(e) if isinstance(e, str) else str(e) for e in elements
        )
        self._index = index

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
            mask |= self.bits[self.index_of(element)]
        return mask

    def refuse_outside(self, mask: int) -> None:
        """Raise ``UnknownElementError`` naming the lowest bit of ``mask`` outside the ground."""
        stray = mask & ~self.full_mask
        if stray:
            raise UnknownElementError(f"bit {(stray & -stray).bit_length() - 1}") from None

    def subset_of(self, mask: int) -> frozenset:
        return frozenset(self.members(mask))

    def members(self, mask: int) -> tuple:
        """Members of ``mask`` in ground order."""
        try:
            return tuple(pick(self.elements, mask))
        except IndexError:  # pick refuses the mask; name its stray bit
            self.refuse_outside(mask)

    def label(self, mask: int) -> str:
        """``mask`` printed as ``{a,b}``, members in ground order."""
        try:
            return "{" + ",".join(pick(self.texts, mask)) + "}"
        except IndexError:
            self.refuse_outside(mask)


class SetFamily:
    """Indexed family of nonempty blocks over a ground set.

    Blocks may overlap, may repeat, and need not cover the ground set; an
    element lying in no block becomes a rank-zero element of the induced
    matroid.
    """

    __slots__ = ("ground", "blocks", "block_masks")

    def __init__(self, ground: GroundSet, blocks: Iterable[Iterable]):
        blocks = tuple(frozenset(block) for block in blocks)
        if not blocks:
            raise ValueError("family must contain at least one block")
        masks = []
        for k, block in enumerate(blocks):
            if not block:
                raise ValueError(f"block {k} is empty")
            masks.append(ground.mask_of(block))
        self.ground = ground
        self.blocks = blocks
        self.block_masks = tuple(masks)


class TransversalMatroid:
    """Matroid whose independent sets are the partial transversals of a family.

    Rank is the size of a maximum matching of elements into blocks containing
    them; the blocks one matching of the ground uses, in family order, are
    the presentation every later sweep runs over, and ``family`` stays as
    given.  A sweep over a matching reaches the free-reaching blocks, those
    unmatched or owned by an element of one; the closure adds every element
    they miss, and each element they hold is matched by one walk back.
    The first :meth:`flat_masks` call enumerates the flats with their ranks
    and Hasse covers; apart from that record, instances are immutable.
    """

    def __init__(self, family: SetFamily):
        self.family = family
        self.ground = family.ground
        self._flat_record: tuple | None = None  # (masks, ranks, covers)
        self._blocks = family.block_masks  # until the ground's matching picks r of them
        owner = self._matching(self.ground.full_mask)[0]
        self._blocks = tuple(self._blocks[b] for b, i in enumerate(owner) if i >= 0)
        self.ground_rank = len(self._blocks)

    # mask-level core --------------------------------------------------

    def _closed(
        self, mask: int, owner: list[int], free: list[int], matched: int
    ) -> tuple[int, list[int]]:
        """Closure of ``mask`` and the blocks swept, given a maximum matching of it.

        ``owner`` gives each block's matched bit position or -1, ``free`` the
        blocks at -1 in ascending order and ``matched`` the matched elements.
        Breadth-first from the free blocks, a block is queued once its owner
        is reached; the closure adds every element the queue misses.
        """
        blocks = self._blocks
        queue = free.copy()
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

    def _shift(self, i: int, owner: list[int], queue: list[int]) -> int:
        """Match the element at bit ``i``, reached by the sweep that gave ``queue``.

        Each block's owner moves to the first block in ``queue`` holding it,
        queued earlier, so the walk ends at a free block, which is returned.
        """
        blocks = self._blocks
        while i >= 0:
            for b in queue:
                if blocks[b] >> i & 1:
                    break
            owner[b], i = i, owner[b]
        return b

    def _matching(self, mask: int) -> tuple[list[int], list[int], int]:
        """Maximum matching of ``mask``.

        Returned as the ``owner, free, matched`` state that :meth:`_closed` takes.
        """
        self.ground.refuse_outside(mask)
        owner = [-1] * len(self._blocks)
        free, matched = list(range(len(self._blocks))), 0
        for i in iter_bits(mask):
            closure, queue = self._closed(0, owner, free, matched)
            if not closure >> i & 1:
                free.remove(self._shift(i, owner, queue))
                matched |= 1 << i
        return owner, free, matched

    def rank_mask(self, mask: int) -> int:
        return self._matching(mask)[2].bit_count()

    def closure_mask(self, mask: int) -> int:
        return self._closed(mask, *self._matching(mask))[0]

    def flat_masks(self) -> tuple[int, ...]:
        """All closed sets, sorted by (rank, member indices).

        The first call enumerates them rank by rank from the closure of the
        empty set; a rank's flats are an antichain, listed by member indices
        as descending ints.  A flat one rank up covers a flat F iff it holds
        a basis of F, and the covers of F partition the elements outside F
        (Oxley, *Matroid Theory*, 1.7).  So F takes the found covers holding
        its matched basis, and closes each element e left into a new cover
        cl(F + e), its matching grown by one walk back.  Each flat is closed
        once and listed by its covers.
        """
        if self._flat_record is None:
            full = self.ground.full_mask
            empty = self._matching(0)
            loops, queue = self._closed(0, *empty)
            level = {loops: (*empty, queue, [])}
            masks, ranks, covers = [], [], []
            rank = 0
            while level:
                # the next rank's flats found so far, with their matchings and
                # swept blocks; ``lowers[s]`` lists the lower flats of found
                # flat s, and ``holders[i]`` masks the found flats holding bit i
                above, found, lowers = {}, [], []
                holders = [0] * len(self.ground)
                for flat in sorted(level, reverse=True):
                    owner, free, matched, queue, lower = level[flat]
                    here = len(masks)
                    for k in lower:
                        covers[k].append(here)
                    masks.append(flat)
                    ranks.append(rank)
                    covers.append([])
                    rest = full & ~flat
                    # a found flat holding flat's matched basis holds flat, so covers it
                    held = (1 << len(found)) - 1
                    basis = matched
                    while basis:
                        low = basis & -basis
                        held &= holders[low.bit_length() - 1]
                        basis ^= low
                    while held:
                        low = held & -held
                        s = low.bit_length() - 1
                        lowers[s].append(here)
                        rest &= ~found[s]
                        held ^= low
                    while rest:
                        bit = rest & -rest
                        grown, left = owner.copy(), free.copy()
                        left.remove(self._shift(bit.bit_length() - 1, grown, queue))
                        cover, reach = self._closed(flat | bit, grown, left, matched | bit)
                        rest &= ~cover
                        slot = 1 << len(found)
                        found.append(cover)
                        lowers.append([here])
                        above[cover] = grown, left, matched | bit, reach, lowers[-1]
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
        want = self.ground_rank - 1
        return tuple(m for m, r in zip(self.flat_masks(), self.flat_ranks()) if r == want)

    def basis_masks(self) -> list[int]:
        """All bases, sorted by member indices.

        The bases are the sets of distinct representatives of the r presented
        blocks, grown one block at a time, smallest first; each level is a
        set, so no partial transversal repeats.
        """
        level = {0}
        for block in sorted(self._blocks, key=int.bit_count):
            bits = [1 << i for i in iter_bits(block)]
            level = {s | bit for s in level for bit in bits if not s & bit}
        return sorted(level, reverse=True)

    def closure_via_hyperplanes_mask(self, mask: int) -> int:
        self.ground.refuse_outside(mask)
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
