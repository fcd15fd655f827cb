"""Complete information tables and attribute reduction over them.

Objects are partitioned by agreement on attribute subsets; a reduct is a
minimal subset inducing the same partition as the full attribute set.  When
attribute subsets with equal partitions always saturate to the same blocks
of the attribute quotient (attributes grouped by equal single-attribute
partitions), the reducts are exactly the one-element-per-block selections.
That condition is decided from k + 1 partition keys, k being the number of
quotient blocks.  In general the reducts are the minimal hitting sets of the
discernibility matrix (Skowron & Rauszer, 1992): one mask per pair of
distinct rows, marking the attributes on which the two rows differ.  A
guarded power-set scan survives as the oracle for both routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

from .dependence import minimal_hitting_masks
from .errors import (
    CapacityError,
    ConditionNotSatisfiedError,
    UnknownAttributeError,
)
from .matroid import iter_bits

__all__ = ["InformationSystem"]


@dataclass(frozen=True)
class InformationSystem:
    """Finite object/attribute table with a total value assignment.

    ``rows[i][j]`` is the value of ``attributes[j]`` on ``objects[i]``.
    Values are compared as opaque tokens; no coercion is attempted, so
    "1" and 1 are different values.  Missing cells are rejected.
    """

    objects: tuple
    attributes: tuple
    rows: tuple[tuple, ...]
    _columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _attr_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        objects = tuple(self.objects)
        attributes = tuple(self.attributes)
        rows = tuple(tuple(row) for row in self.rows)
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
        for i, row in enumerate(rows):
            if len(row) != len(attributes):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(attributes)}"
                )
            for value in row:
                if value is None or value == "":
                    raise ValueError(f"missing value in row {i}")
        # canonical per-attribute columns: value tokens replaced by class ids
        # in first-occurrence order, so equal partitions give equal columns
        columns = []
        for j in range(len(attributes)):
            ids: dict = {}
            columns.append(
                tuple(ids.setdefault(rows[i][j], len(ids)) for i in range(len(objects)))
            )
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_columns", tuple(columns))
        object.__setattr__(self, "_attr_index", {a: j for j, a in enumerate(attributes)})

    # indiscernibility ----------------------------------------------------

    def attribute_index(self, attribute) -> int:
        try:
            return self._attr_index[attribute]
        except KeyError:
            raise UnknownAttributeError(attribute) from None

    def _indices_of(self, attrs: Iterable) -> tuple[int, ...]:
        return tuple(sorted({self.attribute_index(a) for a in attrs}))

    def _partition_key_of_mask(self, mask: int) -> tuple[int, ...]:
        if mask & (mask - 1) == 0:
            # no attribute or a single one, whose canonical column is its key
            return self._columns[mask.bit_length() - 1] if mask else (0,) * len(self.objects)
        ids: dict = {}
        return tuple(
            ids.setdefault(row, len(ids))
            for row in zip(*(self._columns[j] for j in iter_bits(mask)))
        )

    def partition_key(self, attrs: Iterable) -> tuple[int, ...]:
        """Canonical signature of the partition induced by ``attrs``.

        One class id per object, assigned in first-occurrence order; two
        attribute subsets induce the same partition iff their keys are equal.
        """
        mask = 0
        for j in self._indices_of(attrs):
            mask |= 1 << j
        return self._partition_key_of_mask(mask)

    def indiscernibility(self, attrs: Iterable) -> tuple[frozenset, ...]:
        """Partition of the objects by joint agreement on ``attrs``.

        The empty attribute set gives the single-block partition.  Blocks are
        ordered by their first object.
        """
        key = self.partition_key(attrs)
        blocks: dict[int, list] = {}
        for i, cid in enumerate(key):
            blocks.setdefault(cid, []).append(self.objects[i])
        return tuple(frozenset(blocks[cid]) for cid in sorted(blocks))

    # attribute quotient ---------------------------------------------------

    def attribute_quotient(self) -> tuple[frozenset, ...]:
        """Attributes grouped by equality of their single-attribute partitions."""
        groups: dict[tuple[int, ...], list] = {}
        for j, attribute in enumerate(self.attributes):
            groups.setdefault(self._columns[j], []).append(attribute)
        ordered = sorted(groups.values(), key=lambda g: self._attr_index[g[0]])
        return tuple(frozenset(g) for g in ordered)

    def quotient_saturation(self, attrs: Iterable) -> frozenset:
        """Union of the quotient blocks meeting ``attrs``."""
        wanted = set(self._indices_of(attrs))
        out: set = set()
        for block in self.attribute_quotient():
            if any(self._attr_index[a] in wanted for a in block):
                out |= block
        return frozenset(out)

    # the quotient-rule precondition ---------------------------------------

    def check_saturation_condition(self, *, max_attributes: int = 15) -> bool:
        """True when equal partitions always force equal saturations.

        Every attribute set induces the partition of its saturation, so the
        condition holds iff distinct unions of quotient blocks induce
        distinct partitions.  That fails iff dropping some block's
        representative from a set R of one representative per block leaves
        the partition of R unchanged, so k + 1 partition keys decide it for
        k blocks.  Guarded by ``max_attributes``.
        """
        m = len(self.attributes)
        if m > max_attributes:
            raise CapacityError(
                f"condition check capped at {max_attributes} attributes, got {m}"
            )
        representatives = 0
        for block in self.attribute_quotient():
            representatives |= 1 << min(self._attr_index[a] for a in block)
        full_key = self._partition_key_of_mask(representatives)
        return all(
            self._partition_key_of_mask(representatives & ~(1 << j)) != full_key
            for j in iter_bits(representatives)
        )

    # reducts ----------------------------------------------------------------

    def reducts_via_quotient(self, *, max_attributes: int = 15) -> tuple[frozenset, ...]:
        """One attribute from each quotient block; every selection is a reduct.

        Valid only when :meth:`check_saturation_condition` holds, which is
        verified first; the number of reducts is the product of the block
        sizes.  Output sorted by (size, attribute indices).
        """
        if not self.check_saturation_condition(max_attributes=max_attributes):
            raise ConditionNotSatisfiedError(
                "equal partitions do not force equal saturations; "
                "use discernibility_reducts instead"
            )
        blocks = [
            sorted(block, key=self._attr_index.__getitem__)
            for block in self.attribute_quotient()
        ]
        picks = [frozenset(combo) for combo in product(*blocks)]
        picks.sort(key=lambda s: (len(s), tuple(sorted(map(self._attr_index.__getitem__, s)))))
        return tuple(picks)

    def discernibility_reducts(self, *, max_attributes: int = 20) -> tuple[frozenset, ...]:
        """Minimal hitting sets of the nonempty discernibility-matrix entries.

        An attribute subset keeps the full partition iff it separates every
        pair of distinct rows, i.e. meets the mask of attributes on which
        the two rows differ.  Equal rows add no entry.  Output sorted by
        (size, attribute indices), the order of :meth:`brute_force_reducts`;
        guarded by ``max_attributes`` like it.
        """
        m = len(self.attributes)
        if m > max_attributes:
            raise CapacityError(
                f"discernibility reduct search capped at {max_attributes} attributes, got {m}"
            )
        # Each distinct row is packed into one int with a field of w + 1 bits
        # per attribute, its class id in the low w bits.  Adding 2**w - 1 to
        # every field of u ^ v carries into the field's top bit iff rows u
        # and v differ on that attribute, and never into the next field.
        # Those top bits ascend with the attribute index, so the masks sort
        # as the attribute sets they stand for.
        w = max(map(max, self._columns)).bit_length()
        step = w + 1
        low = sum(1 << (j * step) for j in range(m))
        fill, top = low * ((1 << w) - 1), low << w
        rows = list({
            sum(c << (j * step) for j, c in enumerate(row)) for row in zip(*self._columns)
        })
        entries = {((u ^ v) + fill) & top for a, u in enumerate(rows) for v in rows[:a]}
        # supersets of another entry constrain nothing further
        kept: list[int] = []
        for entry in sorted(entries, key=int.bit_count):
            if all(k & ~entry for k in kept):
                kept.append(entry)
        return tuple(
            frozenset(self.attributes[b // step] for b in iter_bits(mask))
            for mask in minimal_hitting_masks(kept)
        )

    def brute_force_reducts(self, *, max_attributes: int = 20) -> tuple[frozenset, ...]:
        """Inclusion-minimal attribute subsets preserving the full partition.

        Exhaustive 2**m scan in ascending subset size; supersets of an already
        kept reduct are skipped.  The oracle for the quotient rule and for
        :meth:`discernibility_reducts`, guarded by ``max_attributes``.
        """
        m = len(self.attributes)
        if m > max_attributes:
            raise CapacityError(
                f"brute-force reduct scan capped at {max_attributes} attributes, got {m}"
            )
        full_key = self._partition_key_of_mask((1 << m) - 1)
        kept: list[int] = []
        order = sorted(range(1 << m), key=lambda x: (x.bit_count(), tuple(iter_bits(x))))
        for mask in order:
            if any(k & ~mask == 0 for k in kept):
                continue
            if self._partition_key_of_mask(mask) == full_key:
                kept.append(mask)
        return tuple(
            frozenset(self.attributes[j] for j in iter_bits(mask)) for mask in kept
        )
