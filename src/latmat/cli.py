"""Command-line front end: ``latmat lattice | reducts | infosys``.

Coverings and families arrive as JSON documents with ``universe`` and
``blocks`` keys; information tables arrive as CSV with attribute names in the
header row and object names in the first column.  All outputs are
byte-deterministic for identical inputs.  Every output is rendered from
masks through the token tables of ``GroundSet``; ``--json`` documents go
through one writer, :func:`to_json`.

Exit codes: 0 success, 2 parse error, 4 capacity guard.  Code 3 (degenerate
input) is reserved: every family the loader accepts has rank at least 1, so
no document reaches it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from .covering import check_covering_equivalences, is_covering
from .dependence import minimal_hitting_masks
from .errors import (
    CapacityError,
    ConditionNotSatisfiedError,
    DegenerateLatticeError,
    DegenerateMatroidError,
    DocumentError,
    LatmatError,
)
from .infosys import InformationSystem
from .lattice import build_lattice
from .matroid import GroundSet, SetFamily, TransversalMatroid, pick

DEFAULT_MAX_ELEMENTS = 16
DEFAULT_MAX_ATTRIBUTES = 15
EXIT_CODES = {
    DocumentError: 2,
    DegenerateMatroidError: 3,
    DegenerateLatticeError: 3,
    CapacityError: 4,
}

# ---------------------------------------------------------------------------
# document parsing


def _read_text(path: str, newline: str | None = None) -> str:
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _scalars(items) -> bool:
    # exact types: JSON true and false load as bool, a subclass of int
    return all(type(e) in (str, int) for e in items)


def load_covering_document(path: str) -> SetFamily:
    """Parse a JSON family document into a SetFamily."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer literal past int()'s digit limit
        raise DocumentError(f"{path}: parse error: a number has too many digits") from None
    except RecursionError:
        raise DocumentError(f"{path}: parse error: lists or objects nested too deeply") from None
    if not isinstance(doc, dict) or "universe" not in doc or "blocks" not in doc:
        raise DocumentError(f"{path}: expected an object with 'universe' and 'blocks' keys")
    universe = doc["universe"]
    blocks = doc["blocks"]
    if not isinstance(universe, list) or not universe:
        raise DocumentError(f"{path}: 'universe' must be a nonempty list")
    if not _scalars(universe):
        raise DocumentError(f"{path}: universe elements must be strings or integers")
    try:  # JSON escapes can spell lone surrogates, which no output can print
        for e in universe:
            if type(e) is str:
                e.encode("utf-8")
    except UnicodeEncodeError:
        raise DocumentError(f"{path}: universe element {e!r} is not valid Unicode text") from None
    if len({str(e) for e in universe}) < len(set(universe)):
        raise DocumentError(f"{path}: two universe elements print identically")
    if not isinstance(blocks, list) or not blocks:
        raise DocumentError(f"{path}: 'blocks' must be a nonempty list")
    for k, block in enumerate(blocks):
        if not isinstance(block, list):
            raise DocumentError(f"{path}: block {k} must be a list")
        if not _scalars(block):
            raise DocumentError(f"{path}: block {k} elements must be strings or integers")
    try:
        ground = GroundSet(tuple(universe))
        return SetFamily(ground, tuple(frozenset(block) for block in blocks))
    except (LatmatError, ValueError) as exc:
        raise DocumentError(f"{path}: {exc}") from None


def load_table_document(path: str) -> InformationSystem:
    """Parse a CSV table into an InformationSystem.

    Header row: first cell is the object-column label (ignored), the rest are
    attribute names.  Each following row: object name, then one value per
    attribute.  Cells are stripped; empty cells are rejected.
    """
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    try:
        raw = [row for row in reader if row]
    except csv.Error as exc:
        raise DocumentError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(raw) < 2:
        raise DocumentError(f"{path}: need a header row and at least one object row")
    header = [cell.strip() for cell in raw[0]]
    if len(header) < 2:
        raise DocumentError(f"{path}: header must name at least one attribute")
    attributes = tuple(header[1:])
    if any(a == "" for a in attributes):
        raise DocumentError(f"{path}: empty attribute name in header")
    objects = []
    rows = []
    for lineno, row in enumerate(raw[1:], start=2):
        if len(row) != len(header):
            raise DocumentError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        cells = [cell.strip() for cell in row]
        if any(cell == "" for cell in cells):
            raise DocumentError(f"{path}: row {lineno} has an empty cell")
        objects.append(cells[0])
        rows.append(tuple(cells[1:]))
    try:
        return InformationSystem(tuple(objects), attributes, tuple(rows))
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# rendering helpers


class Members:
    """A mask of ``ground`` that :func:`to_json` writes as the list of its members."""

    __slots__ = ("ground", "mask")

    def __init__(self, ground: GroundSet, mask: int):
        self.ground = ground
        self.mask = mask


def to_json(value, pad: str = "\n") -> str:
    """``value`` written exactly as ``json.dumps(value, indent=2)`` writes it.

    ``value`` nests dicts with string keys, lists, tuples, strings, ints,
    bools, None and :class:`Members`, whose members are written from
    ``GroundSet.tokens``.  ``pad`` is the newline and indent of the level
    that holds ``value``.
    """
    kind = type(value)
    if kind is Members:
        items = pick(value.ground.tokens, value.mask)
    elif kind is list or kind is tuple:
        inner = pad + "  "
        items = [to_json(v, inner) for v in value]
    elif kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            f"{encode_basestring_ascii(k)}: {to_json(v, inner)}" for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    elif kind is str:
        return encode_basestring_ascii(value)
    elif kind is int:
        return str(value)
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def fmt_many(ground: GroundSet, masks) -> str:
    return " ".join(map(ground.label, masks))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# commands


def _load_matroid(args) -> TransversalMatroid:
    family = load_covering_document(args.path)
    n = len(family.ground)
    if n > args.max_elems:
        raise CapacityError(
            f"universe capped at {args.max_elems} elements, got {n};"
            " raise --max-elems to override"
        )
    return TransversalMatroid(family)


def cmd_lattice(args) -> int:
    matroid = _load_matroid(args)
    family, ground = matroid.family, matroid.ground
    lattice = build_lattice(matroid)
    covering = is_covering(family)
    if not covering:
        print("warning: family is not a covering of the universe", file=sys.stderr)

    if args.dot:
        sys.stdout.write(lattice.to_dot())
        return 0
    checks = {} if covering else asdict(check_covering_equivalences(matroid))

    if args.json:
        doc = {
            "universe": Members(ground, ground.full_mask),
            "flats": [
                {"members": Members(ground, mask), "height": height}
                for mask, height in zip(lattice.masks, lattice.heights)
            ],
            "covers": lattice.covers,
            "bottom": lattice.bottom,
            "top": lattice.top,
            "covering": covering,
        }
        if checks:
            doc["covering_checks"] = checks
        print(to_json(doc))
        return 0

    print("universe:", " ".join(ground.texts))
    print("blocks:", fmt_many(ground, family.block_masks))
    print("covering:", _yesno(covering))
    print("rank:", matroid.ground_rank)
    print(f"flats ({len(lattice.masks)}):")
    rows: dict[int, list[int]] = {}  # heights ascend in canonical order
    for mask, height in zip(lattice.masks, lattice.heights):
        rows.setdefault(height, []).append(mask)
    for height, row in rows.items():
        print(f"  height {height}: " + fmt_many(ground, row))
    print("atoms:", fmt_many(ground, rows[1]))
    print("coatoms:", fmt_many(ground, rows[matroid.ground_rank - 1]))
    if checks:
        print(
            "covering checks:",
            *(f"{name.replace('_', '-')}={_yesno(flag)}" for name, flag in checks.items()),
        )
    return 0


def cmd_reducts(args) -> int:
    matroid = _load_matroid(args)
    ground = matroid.ground
    hyperplanes = matroid.hyperplane_masks()
    complements = [ground.full_mask & ~h for h in hyperplanes]
    reducts = minimal_hitting_masks(complements)

    if args.json:
        doc = {
            "universe": Members(ground, ground.full_mask),
            "rank": matroid.ground_rank,
            "hyperplanes": [Members(ground, h) for h in hyperplanes],
            "complements": [Members(ground, c) for c in complements],
            "reducts": [Members(ground, r) for r in reducts],
        }
        print(to_json(doc))
        return 0

    print("universe:", " ".join(ground.texts))
    print("rank:", matroid.ground_rank)
    print(f"hyperplanes ({len(hyperplanes)}):", fmt_many(ground, hyperplanes))
    print(f"complements ({len(complements)}):", fmt_many(ground, complements))
    print(f"reducts ({len(reducts)}):")
    for reduct in reducts:
        print("  " + ground.label(reduct))
    return 0


def _drop_decision_column(system: InformationSystem, decision: str) -> InformationSystem:
    # relative reducts are out of scope; the decision column is set aside and
    # reduction runs over the remaining condition attributes
    if decision not in system.attributes:
        raise DocumentError(f"decision column {decision!r} is not in the table")
    keep = [j for j, a in enumerate(system.attributes) if a != decision]
    if not keep:
        raise DocumentError("table has no condition attributes besides the decision column")
    return InformationSystem(
        system.objects,
        tuple(system.attributes[j] for j in keep),
        tuple(tuple(row[j] for j in keep) for row in system.rows),
    )


def cmd_infosys(args) -> int:
    system = load_table_document(args.path)
    if args.decision is not None:
        system = _drop_decision_column(system, args.decision)
    attributes, objects = system.attribute_ground, system.object_ground
    method = "brute-force"
    if args.force_brute:
        condition = system.check_saturation_condition(max_attributes=args.max_attrs)
    else:
        try:  # the quotient rule runs the saturation check itself
            reducts = system.quotient_reduct_masks(max_attributes=args.max_attrs)
            condition, method = True, "quotient-rule"
        except ConditionNotSatisfiedError:
            condition = False
    if method == "brute-force":  # the label predates the discernibility route
        reducts = system.discernibility_reduct_masks(max_attributes=args.max_attrs)

    if args.json:
        doc = {
            "objects": Members(objects, objects.full_mask),
            "attributes": Members(attributes, attributes.full_mask),
            "decision": args.decision,
            "partitions": {
                a: [Members(objects, b) for b in system.partition_masks(1 << j)]
                for j, a in enumerate(system.attributes)
            },
            "attribute_blocks": [Members(attributes, b) for b in system.quotient_masks],
            "condition_holds": condition,
            "method": method,
            "reducts": [Members(attributes, r) for r in reducts],
        }
        print(to_json(doc))
        return 0

    print("objects:", " ".join(objects.texts))
    print("attributes:", " ".join(attributes.texts))
    if args.decision is not None:
        print(f"decision column: {args.decision} (excluded from reduction)")
    print("partitions:")
    for j, a in enumerate(system.attributes):
        print(f"  {a}: " + fmt_many(objects, system.partition_masks(1 << j)))
    print("attribute blocks:", fmt_many(attributes, system.quotient_masks))
    print("condition:", "holds" if condition else "fails")
    if not condition:
        print("note: condition fails; falling back to brute-force reducts")
    print(f"reducts ({len(reducts)}) via {method}:")
    for reduct in reducts:
        print("  " + attributes.label(reduct))
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmat",
        description=(
            "Turn set families into transversal matroids, materialize the "
            "lattice of flats, and compute attribute reducts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="flats, atoms and coatoms of the induced matroid")
    lat.add_argument("path", help="JSON family document")
    group = lat.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    group.add_argument("--json", action="store_true", help="emit the lattice as JSON")
    lat.add_argument("--max-elems", type=int, default=DEFAULT_MAX_ELEMENTS, metavar="N")
    lat.set_defaults(func=cmd_lattice)

    red = sub.add_parser("reducts", help="hyperplanes, their complements, and all reducts")
    red.add_argument("path", help="JSON family document")
    red.add_argument("--json", action="store_true", help="emit results as JSON")
    red.add_argument("--max-elems", type=int, default=DEFAULT_MAX_ELEMENTS, metavar="N")
    red.set_defaults(func=cmd_reducts)

    inf = sub.add_parser("infosys", help="attribute partitions, quotient and reducts of a table")
    inf.add_argument("path", help="CSV table")
    inf.add_argument("--force-brute", action="store_true", help="always use the brute-force route")
    inf.add_argument("--json", action="store_true", help="emit results as JSON")
    inf.add_argument("--max-attrs", type=int, default=DEFAULT_MAX_ATTRIBUTES, metavar="N")
    inf.add_argument(
        "--decision",
        metavar="NAME",
        default=None,
        help="set a column aside as the decision attribute (excluded from reduction)",
    )
    inf.set_defaults(func=cmd_infosys)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))
    except BrokenPipeError:
        # downstream consumer closed the pipe, e.g. DOT output into head
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
