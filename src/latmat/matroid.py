"""Transversal matroids induced by finite set families.

A family of nonempty blocks over a finite ground set induces a matroid whose
independent sets are the partial transversals of the family: the subsets that
can be matched injectively into blocks containing them.  Rank is therefore a
maximum bipartite matching size, taken over the r blocks that one maximum
matching of the ground uses: they present the same matroid (Oxley, *Matroid
Theory*, 1.6).  One breadth-first sweep over a matching, the alternating
forest of Kuhn's method, gives the closure and the blocks visited, along which
one walk back matches any element outside it.  The flats are the loops plus
sets of atoms, read with their ranks into one record off bit vectors indexed
by atom sets; the hyperplanes are its rank r - 1 slice, and the Hasse covers
are built from its atom sets only when read.  All subset arithmetic runs on
bitmasks in which element i of an n-element ground is bit n - 1 - i, so for
masks of one size ascending member tuples are descending ints: every
canonical (size, members) order is a plain int sort.  Only this module reads
that numbering; other code takes bits from ``GroundSet.bits``, and members
from :func:`pick` or, for a list of masks, :func:`joined`.
"""

from __future__ import annotations

import re
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
    "residue_masks",
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

    For an n-entry table and h = n // 2, a long list is read from two half
    tables: each mask is ``high[mask >> h] + low[mask & (2**h - 1)]``, runs
    of separator-prefixed entries, with the leading separator cut.  Building
    a run costs about as much as walking one member through :func:`pick`,
    and each table entry about two more, so a list with fewer members than
    the 2**h + 2**(n - h) runs plus 2n walks each mask through :func:`pick`,
    uncounted when its length times n falls short.  Either way a negative
    mask, or one with a bit at or above n, raises ``IndexError``.
    """
    n = len(table)
    h = n // 2
    cost = (1 << h) + (1 << (n - h)) + 2 * n
    if len(masks) * n < cost or sum(map(int.bit_count, masks)) < cost:
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


def lacks(p: int) -> list[int]:
    """Per item a < p, the vector of 2**p bits whose bit S is set iff set S lacks a."""
    out: list[int] = []
    for a in range(p):
        out = [m | m << (1 << a) for m in out] + [(1 << (1 << a)) - 1]
    return out


def vector_sets(vector: int) -> list[int]:
    """The sets whose bits ``vector`` holds, descending."""
    digits = bin(vector)
    top = len(digits) - 1
    return [top - one.start() for one in re.finditer("1", digits)]


def residue_masks(blocks: Sequence[int]) -> tuple[list[int], int]:
    """The nonempty residues of ``blocks``, in block order, and the shared elements.

    A block's residue is its elements in no other block; nonempty residues
    are disjoint, hence distinct, and repeated blocks have none.  The shared
    elements lie in two or more blocks.
    """
    once = shared = 0
    for mask in blocks:
        shared |= once & mask
        once |= mask
    return [m & ~shared for m in blocks if m & ~shared], shared


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
        n = len(elements)
        if not n:
            raise ValueError("ground set must not be empty")
        index = dict(zip(elements, range(n)))
        if len(index) < n:  # name the first element seen twice
            seen: set = set()
            for element in elements:
                if element in seen:
                    raise ValueError(f"duplicate element {element!r} in ground set")
                seen.add(element)
        self.elements = elements
        self.full_mask = (1 << n) - 1
        self.bits = tuple([1 << i for i in range(n - 1, -1, -1)])
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
    they miss, and each element they hold is matched by one walk back.  One
    flat record, whose rank r - 1 slice is the hyperplanes, is read once off
    r + p vectors of 2**p bits for p <= n atoms: 8 KB each on 16 elements,
    but wide low-rank matroids pay for all 2**p atom sets.  Covers are built
    only when read.
    """

    def __init__(self, family: SetFamily):
        self.family = family
        self.ground = family.ground
        self._flat_record: tuple | None = None  # (masks, ranks, atom sets per rank, atoms)
        self._covers: tuple | None = None  # built by flat_covers alone
        self._blocks = family.block_masks  # until the ground's matching picks r of them
        owner = self._matching(self.ground.full_mask)[0]
        self._blocks = tuple(self._blocks[b] for b, i in enumerate(owner) if i >= 0)
        self.ground_rank = len(self._blocks)

    # mask-level core --------------------------------------------------

    def _closed(self, owner: list[int], free: list[int], matched: int) -> tuple[int, list[int]]:
        """The elements a set's closure adds, and the blocks swept, given its maximum matching.

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
        return self.ground.full_mask & ~reached, queue

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
            closure, queue = self._closed(owner, free, matched)
            if not closure >> i & 1:
                free.remove(self._shift(i, owner, queue))
                matched |= 1 << i
        return owner, free, matched

    def rank_mask(self, mask: int) -> int:
        return self._matching(mask)[2].bit_count()

    def closure_mask(self, mask: int) -> int:
        return mask | self._closed(*self._matching(mask))[0]

    def flat_masks(self) -> tuple[int, ...]:
        """All closed sets, sorted by (rank, member indices); no cover is built.

        Each flat is the loops and a set of atoms (Oxley, *Matroid Theory*,
        1.7).  Over the presented blocks, the elements whose only block is j
        form one atom and an element in two or more is an atom alone; atom a
        is the a-th by top element, so atom sets compare as the flats they
        span.  Bit S of a vector of 2**p bits stands for atom set S: the
        independent sets grow by size, one block at a time, each size
        up-closes into the sets of at least that rank, and a set of rank k is
        a flat iff no atom added to it keeps rank k.  The flat of S, loops
        included, is ``high[S >> p // 2] | low[S & (2 ** (p // 2) - 1)]``.
        Kept: the masks, their ranks, each rank's atom sets, descending, and
        the atoms; the vectors and tables are dropped.
        """
        if self._flat_record is None:
            residues, shared = residue_masks(self._blocks)
            atoms = sorted(residues + [1 << i for i in iter_bits(shared)])
            lacking = lacks(len(atoms))  # lacking[a]: the sets without atom a
            ind = [1] + [0] * self.ground_rank  # ind[k]: the independent k-sets
            for done, block in enumerate(self._blocks):
                held = [a for a, atom in enumerate(atoms) if atom & block]
                for k in range(done + 1, 0, -1):
                    for a in held:
                        ind[k] |= (ind[k - 1] & lacking[a]) << (1 << a)
            levels, above = [], 0
            for vector in reversed(ind):
                for a, lack in enumerate(lacking):  # the sets of this rank or more
                    vector |= (vector & lack) << (1 << a)
                exact, above, kept = vector & ~above, vector, 0
                for a, lack in enumerate(lacking):
                    kept |= exact >> (1 << a) & lack
                levels.insert(0, vector_sets(exact & ~kept))
            h = len(atoms) // 2
            low, high = [self.ground.full_mask & ~sum(atoms)], [0]
            for table, half in ((low, atoms[:h]), (high, atoms[h:])):
                for atom in half:
                    table += [*map(atom.__or__, table)]
            part, masks, ranks = (1 << h) - 1, [], []
            for rank, sets in enumerate(levels):
                masks += [high[s >> h] | low[s & part] for s in sets]
                ranks += [rank] * len(sets)
            self._flat_record = (tuple(masks), tuple(ranks), levels, atoms)
        return self._flat_record[0]

    def flat_ranks(self) -> tuple[int, ...]:
        """Rank of each flat, position for position with :meth:`flat_masks`."""
        self.flat_masks()
        return self._flat_record[1]

    def flat_covers(self) -> tuple[tuple[int, ...], ...]:
        """Per flat, the ascending positions in :meth:`flat_masks` of its covers.

        Built when first read, by :meth:`cover_lists` naming each flat by
        its position, and kept.
        """
        if self._covers is None:
            self._covers = tuple(map(tuple, self.cover_lists(range(len(self.flat_masks())))))
        return self._covers

    def cover_lists(self, names: Sequence) -> list[list]:
        """Per flat, ``names[j]`` for each flat j that covers it, ascending j.

        A flat one rank up covers F iff it holds F's atoms, kept by
        :meth:`flat_masks`; two half tables of ANDs list them.  Each rank's
        atom sets are written as one digit string, each set read from two
        half tables of binary digits, and the string's every p-th digit
        gives an atom's column.  Nothing is kept: the CLI names the covers
        by their JSON text, and :meth:`flat_covers` by position.
        """
        self.flat_masks()
        levels, atoms = self._flat_record[2:]
        p = len(atoms)
        h, part, covers, base = p // 2, (1 << p // 2) - 1, [], -1
        # every (p - h)- and h-digit binary string, indexed by its value
        left, right = ([bin(i | 1 << w)[3:] for i in range(1 << w)] for w in (p - h, h))
        for below, sets in zip(levels, levels[1:]):
            # columns[a]: bit j set iff the j-th set here holds atom a
            digits = "".join([left[s >> h] + right[s & part] for s in reversed(sets)])
            columns = [int(digits[c::p], 2) for c in range(p)][::-1]
            over, under = [(1 << len(sets)) - 1], [-1]
            for table, half in ((under, columns[:h]), (over, columns[h:])):
                for column in half:
                    table += [*map(column.__and__, table)]
            base += len(below)
            for s in below:
                ups, out = over[s >> h] & under[s & part], []
                while ups:
                    rest = ups & ups - 1
                    out.append(names[base + (ups ^ rest).bit_length()])
                    ups = rest
                covers.append(out)
        covers.append([])  # the top: no flat above
        return covers

    def hyperplane_masks(self) -> tuple[int, ...]:
        """The flats of rank r - 1: those before the top, the one flat of rank r."""
        masks = self.flat_masks()
        return masks[-1 - len(self._flat_record[2][self.ground_rank - 1]) : -1]

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
