"""Complete information tables and attribute reduction over them.

Objects are partitioned by agreement on attribute subsets; a reduct is a
minimal subset inducing the same partition as the full attribute set.  Each
attribute is kept as a column of class ids numbered by first occurrence, so
equal partitions give equal columns; :attr:`InformationSystem.partition_columns`
hands them out, and the CLI prints each partition by grouping the objects
by class id.  When attribute subsets with equal partitions always saturate
to the same blocks of the attribute quotient (attributes grouped by equal
single-attribute partitions), the reducts are exactly the minimal hitting
sets of the quotient blocks, one attribute from each.  That condition is
decided from the class counts of k + 1 attribute sets, k being the number of
quotient blocks.  In general the reducts are the minimal hitting sets of the
discernibility matrix (Skowron & Rauszer, 1992): one mask per pair of
distinct rows, marking the attributes on which the two rows differ.  Only
the minimal entries reach the search; when the entries are dense among the
2**m attribute sets they are read off a vector of 2**m bits, otherwise a
sorted scan drops the supersets.  Both routes run the hitting-set search of
:mod:`latmat.dependence`; a guarded power-set scan is their oracle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .dependence import minimal_hitting_masks
from .errors import (
    CapacityError,
    ConditionNotSatisfiedError,
    UnknownAttributeError,
    UnknownElementError,
)
from .matroid import GroundSet, lacks, vector_sets

__all__ = ["InformationSystem"]


class InformationSystem:
    """Finite object/attribute table with a total value assignment.

    ``rows[i][j]`` is the value of ``attributes[j]`` on ``objects[i]``.
    Values are compared as opaque tokens; no coercion is attempted, so
    "1" and 1 are different values.  Missing cells are rejected.
    Attribute and object subsets are bitmasks of ``attribute_ground`` and
    ``object_ground``, built from their ``bits``; the mask-level reduct lists
    come in (size, attribute indices) order, which is size, then descending
    int.  The element-level methods wrap the mask-level ones.
    """

    def __init__(self, objects: Iterable, attributes: Iterable, rows: Iterable[Iterable]):
        self.__post_init__(objects, attributes, rows)

    def __post_init__(self, objects: Iterable, attributes: Iterable, rows: Iterable[Iterable]):
        """Validate the table and derive its grounds and canonical columns."""
        objects = tuple(objects)
        attributes = tuple(attributes)
        rows = tuple(map(tuple, rows))
        if not objects:
            raise ValueError("at least one object is required")
        if not attributes:
            raise ValueError("at least one attribute is required")
        if len(set(objects)) != len(objects):
            raise ValueError("duplicate object identifiers")
        if len(set(attributes)) != len(attributes):
            raise ValueError("duplicate attribute identifiers")
        if len(rows) != len(objects):
            raise ValueError(f"expected {len(objects)} rows, got {len(rows)}")
        # canonical per-attribute columns, in attribute order: value tokens
        # replaced by class ids in first-occurrence order, so equal
        # partitions give equal columns
        columns, values = [], []
        for column in zip(*rows):
            ids: dict = {}
            columns.append(tuple([ids.setdefault(value, len(ids)) for value in column]))
            values += ids
        if {*map(len, rows)} != {len(attributes)} or None in values or "" in values:
            for i, row in enumerate(rows):  # name the first bad row
                if len(row) != len(attributes):
                    raise ValueError(
                        f"row {i} has {len(row)} cells, expected {len(attributes)}"
                    )
                if None in row or "" in row:
                    raise ValueError(f"missing value in row {i}")
        self.objects = objects
        self.attributes = attributes
        self.rows = rows
        self.attribute_ground = GroundSet(attributes)
        self.object_ground = GroundSet(objects)
        # keyed by the attribute's bit
        self._columns = dict(zip(self.attribute_ground.bits, columns))

    def _cap_attributes(self, what: str, max_attributes: int) -> int:
        m = len(self.attributes)
        if m > max_attributes:
            raise CapacityError(f"{what} capped at {max_attributes} attributes, got {m}")
        return m

    def _attribute_mask(self, attrs: Iterable) -> int:
        try:
            return self.attribute_ground.mask_of(attrs)
        except UnknownElementError as exc:
            raise UnknownAttributeError(exc.element) from None

    # indiscernibility ----------------------------------------------------

    def _partition_key_of_mask(self, mask: int) -> tuple[int, ...]:
        if mask & (mask - 1) == 0:
            # no attribute or a single one, whose canonical column is its key
            return self._columns[mask] if mask else (0,) * len(self.objects)
        ids: dict = {}
        return tuple(
            ids.setdefault(row, len(ids))
            for row in zip(*(column for bit, column in self._columns.items() if bit & mask))
        )

    def partition_key(self, attrs: Iterable) -> tuple[int, ...]:
        """Canonical signature of the partition induced by ``attrs``.

        One class id per object, assigned in first-occurrence order; two
        attribute subsets induce the same partition iff their keys are equal.
        """
        return self._partition_key_of_mask(self._attribute_mask(attrs))

    @property
    def partition_columns(self) -> tuple[tuple[int, ...], ...]:
        """Per attribute, in attribute order, its partition as a class-id column.

        Entry i is the class of ``objects[i]``; ids are numbered from 0 in
        order of first occurrence, so they run in the block order of
        :meth:`partition_masks`, and equal partitions give equal columns.
        """
        return tuple(self._columns.values())

    def partition_masks(self, attr_mask: int) -> tuple[int, ...]:
        """Object masks of the partition induced by ``attr_mask``.

        Blocks are ordered by their first object, the order of the class ids.
        """
        self.attribute_ground.refuse_outside(attr_mask)
        key = self._partition_key_of_mask(attr_mask)
        blocks = [0] * (max(key) + 1)
        for bit, cid in zip(self.object_ground.bits, key):
            blocks[cid] |= bit
        return tuple(blocks)

    def indiscernibility(self, attrs: Iterable) -> tuple[frozenset, ...]:
        """Partition of the objects by joint agreement on ``attrs``.

        The empty attribute set gives the single-block partition.  Blocks are
        ordered by their first object.
        """
        masks = self.partition_masks(self._attribute_mask(attrs))
        return tuple(map(self.object_ground.subset_of, masks))

    # attribute quotient ---------------------------------------------------

    @cached_property
    def quotient_masks(self) -> tuple[int, ...]:
        """Attribute masks grouped by equal single-attribute partitions.

        Blocks are ordered by their first attribute.
        """
        groups: dict[tuple[int, ...], int] = {}
        for bit, column in self._columns.items():
            groups[column] = groups.get(column, 0) | bit
        return tuple(groups.values())

    def attribute_quotient(self) -> tuple[frozenset, ...]:
        """Attributes grouped by equality of their single-attribute partitions."""
        return tuple(map(self.attribute_ground.subset_of, self.quotient_masks))

    def quotient_saturation(self, attrs: Iterable) -> frozenset:
        """Union of the quotient blocks meeting ``attrs``."""
        wanted = self._attribute_mask(attrs)
        # quotient blocks are disjoint, so their sum is their union
        out = sum(block for block in self.quotient_masks if block & wanted)
        return self.attribute_ground.subset_of(out)

    # the quotient-rule precondition ---------------------------------------

    def check_saturation_condition(self) -> bool:
        """True when equal partitions always force equal saturations.

        Every attribute set induces the partition of its saturation, so the
        condition holds iff distinct unions of quotient blocks induce
        distinct partitions.  That fails iff dropping some block's
        representative from a set R of one representative per block leaves
        the partition of R unchanged.  Dropping an attribute can only
        coarsen a partition, so it is unchanged iff its number of classes
        is, and k + 1 class counts decide the condition for k blocks.  The
        empty attribute set has one class, not zero.
        """
        columns = [*dict.fromkeys(self._columns.values())]  # one per block
        full = len(set(zip(*columns)))
        return all(
            max(len(set(zip(*columns[:j], *columns[j + 1 :]))), 1) != full
            for j in range(len(columns))
        )

    # reducts ----------------------------------------------------------------

    def quotient_reduct_masks(self, *, max_attributes: int = 15) -> list[int]:
        """Minimal hitting sets of the quotient blocks: the quotient rule.

        The blocks are disjoint, so the hitters are the selections of one
        attribute from each block, and their number is the product of the
        block sizes.  Valid only when :meth:`check_saturation_condition`
        holds, which callers check first.  Output sorted by (size, attribute
        indices).
        """
        self._cap_attributes("quotient rule", max_attributes)
        return minimal_hitting_masks(self.quotient_masks)

    def reducts_via_quotient(self, *, max_attributes: int = 15) -> tuple[frozenset, ...]:
        """Frozenset form of :meth:`quotient_reduct_masks`, same order.

        Raises ``ConditionNotSatisfiedError`` unless the saturation check
        holds; the rule's guard comes first.
        """
        masks = self.quotient_reduct_masks(max_attributes=max_attributes)
        if not self.check_saturation_condition():
            raise ConditionNotSatisfiedError(
                "equal partitions do not force equal saturations; "
                "use discernibility_reducts instead"
            )
        return tuple(map(self.attribute_ground.subset_of, masks))

    def discernibility_reduct_masks(self, *, max_attributes: int = 20) -> list[int]:
        """Minimal hitting sets of the nonempty discernibility-matrix entries.

        An attribute subset keeps the full partition iff it separates every
        pair of distinct rows, i.e. meets the mask of attributes on which
        the two rows differ.  Equal rows add no entry.  Output sorted by
        (size, attribute indices), the order of :meth:`brute_force_reducts`;
        guarded by ``max_attributes`` like it.  Time and memory stay
        polynomial in the rows and m, however large ``max_attributes``.
        """
        m = self._cap_attributes("discernibility reduct search", max_attributes)
        # Each distinct row is packed into one int with a field of step bits
        # per attribute, placed at the attribute's bit position, its class id
        # in the low w bits.  Adding 2**w - 1 to every field of u ^ v carries
        # into the field's bit w iff rows u and v differ on that attribute,
        # and never into the next field.
        w = max(map(max, self._columns.values())).bit_length()
        step = max(w + 1, m)
        rows = [0] * len(self.objects)
        for bit, column in self._columns.items():
            at = (bit.bit_length() - 1) * step
            rows = [r | c << at for r, c in zip(rows, column)]
        rows = [*set(rows)]
        low = sum(1 << f * step for f in range(m))
        fill, top = low * ((1 << w) - 1), low << w
        entries = {((u ^ v) + fill) & top for a, u in enumerate(rows) for v in rows[:a]}
        # One multiply moves bit w of field f to bit f of the m-bit window at
        # (m - 1)(step - 1) + w, which is the attribute mask: step >= m, so
        # no two partial products meet.
        spread = sum(1 << k * (step - 1) for k in range(m))
        shift, full = (m - 1) * (step - 1) + w, (1 << m) - 1
        masks = [e * spread >> shift & full for e in entries]
        # An entry above another constrains nothing further.  When the
        # entries fill a sixteenth of the 2**m sets, they are read off a
        # vector of 2**m bits, whose strict up-closure ``above`` is grown by
        # one attribute at a time; sparser entries would make that vector
        # exponential in m, so a scan by size keeps those not above a kept one.
        if 1 << m <= 16 * len(masks):
            vector = sum(1 << mask for mask in masks)
            above = 0
            for a, lack in enumerate(lacks(m)):
                above |= ((vector | above) & lack) << (1 << a)
            return minimal_hitting_masks(vector_sets(vector & ~above))
        kept: list[int] = []
        for mask in sorted(masks, key=int.bit_count):
            if all(k & ~mask for k in kept):
                kept.append(mask)
        return minimal_hitting_masks(kept)

    def discernibility_reducts(self, *, max_attributes: int = 20) -> tuple[frozenset, ...]:
        """Frozenset form of :meth:`discernibility_reduct_masks`, same order."""
        masks = self.discernibility_reduct_masks(max_attributes=max_attributes)
        return tuple(map(self.attribute_ground.subset_of, masks))

    def brute_force_reducts(self, *, max_attributes: int = 20) -> tuple[frozenset, ...]:
        """Inclusion-minimal attribute subsets preserving the full partition.

        Exhaustive 2**m scan in (size, attribute indices) order; supersets of
        an already kept reduct are skipped.  The oracle for the quotient rule and for
        :meth:`discernibility_reducts`, guarded by ``max_attributes``.
        """
        m = self._cap_attributes("brute-force reduct scan", max_attributes)
        full_key = self._partition_key_of_mask(self.attribute_ground.full_mask)
        kept: list[int] = []
        for mask in sorted(range((1 << m) - 1, -1, -1), key=int.bit_count):
            if any(k & ~mask == 0 for k in kept):
                continue
            if self._partition_key_of_mask(mask) == full_key:
                kept.append(mask)
        return tuple(map(self.attribute_ground.subset_of, kept))
