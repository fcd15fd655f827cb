"""The lattice of closed sets of a matroid, ordered by inclusion.

Meet is intersection, join is the least flat containing the union, and the
height of a flat equals its matroid rank, which makes the lattice graded.
The structure is self-contained: once built it answers order queries without
the inducing matroid.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import NotAFlatError
from .matroid import GroundSet, TransversalMatroid, joined

__all__ = ["GeometricLattice", "GeometricityReport", "build_lattice", "hasse_dot"]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


class GeometricityReport(NamedTuple):
    """Outcome of the atomicity and height-semimodularity checks."""

    atomic: bool
    semimodular: bool
    atomicity_failure: frozenset | None = None
    semimodularity_failure: tuple[frozenset, frozenset] | None = None

    @property
    def passed(self) -> bool:
        return self.atomic and self.semimodular


class GeometricLattice:
    """Flats in canonical order plus their Hasse diagram.

    ``masks[i]`` is flat ``i`` as a bitmask of ``ground``; ``covers[i]`` lists
    the indices of the flats immediately above it; ``heights[i]`` is its rank
    in the inducing matroid.  Flats are sorted by (height, member indices), so
    the bottom sits at index 0 and the top last.
    """

    def __init__(self, ground: GroundSet, masks: tuple, heights: tuple, covers: tuple):
        self.ground = ground
        self.masks = masks
        self.heights = heights
        self.covers = covers

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.masks) - 1

    @cached_property
    def flats(self) -> tuple[frozenset, ...]:
        """Every flat as a frozenset of elements, built on first use."""
        return tuple(self.ground.subset_of(m) for m in self.masks)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    # order queries ------------------------------------------------------

    def _index(self, mask: int) -> int:
        try:
            return self._position[mask]
        except KeyError:
            label = self.ground.label(mask)
            raise NotAFlatError(f"{label} is not a flat of this lattice") from None

    def index_of(self, flat: Iterable) -> int:
        return self._index(self.ground.mask_of(flat))

    def height_of(self, flat: Iterable) -> int:
        return self.heights[self.index_of(flat)]

    def _closed_hull(self, mask: int) -> int:
        # least flat containing mask; flats are closed under intersection
        hull = self.masks[self.top]
        for m in self.masks:
            if mask & ~m == 0:
                hull &= m
        return hull

    def meet(self, x: Iterable, y: Iterable) -> frozenset:
        """Greatest lower bound: plain intersection, itself a flat."""
        meet = self.masks[self.index_of(x)] & self.masks[self.index_of(y)]
        return self.ground.subset_of(self.masks[self._index(meet)])

    def join(self, x: Iterable, y: Iterable) -> frozenset:
        """Least upper bound: the least flat containing the union."""
        union = self.masks[self.index_of(x)] | self.masks[self.index_of(y)]
        return self.ground.subset_of(self.masks[self._index(self._closed_hull(union))])

    def _row(self, k: int) -> tuple[frozenset, ...]:
        return tuple(self.ground.subset_of(m) for m, h in zip(self.masks, self.heights) if h == k)

    def atoms(self) -> tuple[frozenset, ...]:
        """Flats of height one."""
        return self._row(1)

    def coatoms(self) -> tuple[frozenset, ...]:
        """Flats one below the top's height; equals the matroid's hyperplanes."""
        return self._row(self.heights[self.top] - 1)

    # diagnostics ----------------------------------------------------------

    def verify_geometric(self) -> GeometricityReport:
        """Exhaustive pairwise geometricity check; desk-scale lattices only.

        Atomicity: every flat is the join of the atoms below it.
        Semimodularity: h(x) + h(y) >= h(x v y) + h(x ^ y) for all pairs.
        Raises ``NotAFlatError`` when a meet or join is not a member, i.e.
        the masks are not closed under intersection.
        """
        atom_masks = [m for m, h in zip(self.masks, self.heights) if h == 1]
        atomic = True
        atomicity_failure = None
        for mask in self.masks:
            below = 0
            for am in atom_masks:
                if am & ~mask == 0:
                    below |= am
            if self._closed_hull(below) != mask:
                atomic = False
                atomicity_failure = self.ground.subset_of(mask)
                break

        semimodular = True
        semimodularity_failure = None
        masks = self.masks
        for i in range(len(masks)):
            for j in range(i, len(masks)):
                meet_h = self.heights[self._index(masks[i] & masks[j])]
                join_h = self.heights[self._index(self._closed_hull(masks[i] | masks[j]))]
                if self.heights[i] + self.heights[j] < join_h + meet_h:
                    semimodular = False
                    semimodularity_failure = (
                        self.ground.subset_of(masks[i]),
                        self.ground.subset_of(masks[j]),
                    )
                    break
            if not semimodular:
                break

        return GeometricityReport(
            atomic=atomic,
            semimodular=semimodular,
            atomicity_failure=atomicity_failure,
            semimodularity_failure=semimodularity_failure,
        )

    # rendering ------------------------------------------------------------

    def to_dot(self) -> str:
        """Hasse diagram as a deterministic DOT digraph, one rank row per height.

        Written by :func:`hasse_dot`, with flat i named ``n{i}`` and each
        int cover named by its flat's id.
        """
        ids = [f"n{i}" for i in range(len(self.masks))]
        covers = [[ids[j] for j in ups] for ups in self.covers]
        return hasse_dot(self.ground.texts, self.masks, self.heights, ids, covers)


def hasse_dot(
    texts: Sequence[str],
    masks: Sequence[int],
    heights: Sequence[int],
    ids: Sequence[str],
    covers: Sequence[Sequence[str]],
) -> str:
    """The Hasse diagram of flats ``masks`` over ``texts`` as a DOT digraph.

    Flat i is node ``ids[i]``, and ``covers[i]`` lists the ids of the flats
    just above it.  Nodes of one height share a rank row, in order of first
    appearance, so heights may skip a value.  Labels escape ``\\`` and
    ``"``, so Graphviz prints them as :meth:`GroundSet.label` writes them.
    Escaping acts per character and braces and commas need none, so each
    element text is escaped once and each node line is written around its
    flat's escaped texts, joined by :func:`matroid.joined`.  A flat's edge
    lines are one join over its cover ids.
    """
    escaped = [_dot_escape(text) for text in texts]
    rows: dict[int, list[str]] = {}
    for node, height in zip(ids, heights):
        rows.setdefault(height, []).append(node)
    lines = [
        "digraph flats {",
        "  rankdir=BT;",
        "  node [shape=box];",
        *[f'  {node} [label="{{{run}}}"];' for node, run in zip(ids, joined(escaped, masks, ","))],
        *["  { rank=same; " + "; ".join(row) + "; }" for row in rows.values()],
    ]
    for node, ups in zip(ids, covers):
        if ups:
            head = "  " + node + " -> "
            lines.append(head + (";\n" + head).join(ups) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_lattice(matroid: TransversalMatroid) -> GeometricLattice:
    """Materialize the full lattice of flats of ``matroid``."""
    return GeometricLattice(
        matroid.ground, matroid.flat_masks(), matroid.flat_ranks(), matroid.flat_covers()
    )
