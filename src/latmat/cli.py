"""Command-line front end: ``latmat lattice | reducts | infosys``.

Coverings and families arrive as JSON documents with ``universe`` and
``blocks`` keys; information tables arrive as CSV with attribute names in the
header row and object names in the first column.  All outputs are
byte-deterministic for identical inputs.  Each command returns its whole
stdout, rendered through the texts and tokens of ``GroundSet``, and
:func:`main` writes it with one ``sys.stdout.write``; ``--json`` documents
go through one writer, :func:`to_json`, and every member list in them
through one leaf, :class:`MemberLists`.  Each list of masks is joined by
``matroid.joined``: a list with more members than two half tables of the
ground's entries cost to build is read from those tables, two lookups a
mask, and a shorter one walks each mask through ``matroid.pick``.  A
table's partitions are grouped from class-id columns by :func:`grouped`.
Every member list is then written by one ``str.join`` whose separator holds
the wrappers between two sets: ``} {`` in text (:func:`braced`), the closing
and opening brackets in JSON.  ``reducts`` joins its hyperplanes,
complements and bases in one ``joined`` call per form, from one pair of
half tables, and cuts the three lists out of it.  The lattice's JSON and
DOT forms are read from the matroid's flat record, with no
``GeometricLattice``: their covers come out of
``TransversalMatroid.cover_lists`` already as the text they print, the
decimal strings that :func:`listed` joins or the node ids that
:func:`lattice.hasse_dot` joins.  The text form joins every flat at once
and writes one row per run of a rank.

Exit codes: 0 success, 2 parse error, 4 capacity guard.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .covering import check_covering_equivalences, is_covering
from .errors import CapacityError, DocumentError, LatmatError
from .infosys import InformationSystem
from .lattice import hasse_dot
from .matroid import GroundSet, SetFamily, TransversalMatroid, joined

DEFAULT_MAX_ELEMENTS = 16
DEFAULT_MAX_ATTRIBUTES = 15
EXIT_CODES = {DocumentError: 2, CapacityError: 4}

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


def load_table_document(path: str, decision: str | None = None) -> InformationSystem:
    """Parse a CSV table into an InformationSystem.

    Header row: first cell is the object-column label (ignored), the rest are
    attribute names.  Each following row: object name, then one value per
    attribute.  The rows are read column by column: cells are stripped and
    empty cells are rejected, and only a table that fails a check is scanned
    row by row, to name the line on which its first bad row starts.  The
    column named ``decision`` is set aside: relative reducts are out of
    scope, so reduction runs over the condition attributes left.
    """
    text = _read_text(path, newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        raw = [row for row in reader if row]
    except csv.Error as exc:
        raise DocumentError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(raw) < 2:
        raise DocumentError(f"{path}: need a header row and at least one object row")
    header = [cell.strip() for cell in raw[0]]
    if len(header) < 2:
        raise DocumentError(f"{path}: header must name at least one attribute")
    attributes = header[1:]
    if any(a == "" for a in attributes):
        raise DocumentError(f"{path}: empty attribute name in header")
    # a decision column named once beside other attributes is left out; any
    # other decision is refused after the whole table has been checked
    aside = None
    if len(attributes) > 1 and attributes.count(decision) == 1:
        aside = header.index(decision, 1)
        del attributes[aside - 1]
    body = raw[1:]
    columns = [[*map(str.strip, column)] for column in zip(*body)]
    if {*map(len, body)} != {len(header)} or not all(map(all, columns)):
        # name the line a record starts on: blank lines and quoted newlines shift it
        reader, starts, end = csv.reader(io.StringIO(text, newline="")), [], 0
        for row in reader:
            if row:
                starts.append(end + 1)
            end = reader.line_num
        for lineno, row in zip(starts[1:], body):
            if len(row) != len(header):
                raise DocumentError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            if "" in map(str.strip, row):
                raise DocumentError(f"{path}: row {lineno} has an empty cell")
    if aside is not None:
        del columns[aside]
    try:
        system = InformationSystem(columns[0], attributes, zip(*columns[1:]))
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    if decision is not None and aside is None:
        if decision not in attributes:
            raise DocumentError(f"decision column {decision!r} is not in the table")
        raise DocumentError("table has no condition attributes besides the decision column")
    return system


# ---------------------------------------------------------------------------
# rendering helpers


class MemberLists:
    """Sets that :func:`to_json` writes as a list of member lists.

    ``join(tokens, sets, sep)`` gives each set's entries of ``tokens``
    joined by ``sep``, one string per set; ``sets`` is whatever ``join``
    reads: masks for :func:`matroid.joined`, a class-id column for
    :func:`grouped`, lists that hold their tokens already for
    :func:`listed`, and for ``reducts`` a slice of one list of masks that
    its ``join`` joins once per separator.  With ``heights``, as for the
    lattice's flats, each list is written as ``{"members": [...], "height": h}``.
    """

    __slots__ = ("tokens", "sets", "join", "heights")

    def __init__(self, tokens: Sequence[str], sets, join=joined, heights=None):
        self.tokens = tokens
        self.sets = sets
        self.join = join
        self.heights = heights


def grouped(table: Sequence[str], column: Sequence[int], sep: str) -> list[str]:
    """Per class id of ``column``, ascending, its entries of ``table`` joined by ``sep``.

    The ids must run from 0 with none skipped, as class-id columns do.
    """
    classes: list[list] = [[] for _ in range(max(column) + 1)]
    for cid, entry in zip(column, table):
        classes[cid].append(entry)
    return [*map(sep.join, classes)]


def listed(table: Sequence[str], lists, sep: str) -> list[str]:
    """Each of ``lists``, a list of entries of ``table`` already, joined by ``sep``.

    So come the lattice's covers, named by ``TransversalMatroid.cover_lists``.
    """
    return [*map(sep.join, lists)]


def to_json(value, pad: str = "\n") -> str:
    """``value`` written exactly as ``json.dumps(value, indent=2)`` writes it.

    ``value`` nests dicts with string keys, lists, tuples, strings, ints,
    bools, None and :class:`MemberLists`, whose lists are written from
    their joined runs in one pass: no token is empty, so a run is empty
    only for an empty set, written ``[]``.  Without heights, the lists are
    written by one join, with the brackets between two lists in its
    separator, and an empty set's brackets are then replaced by ``[]``:
    every token is a JSON literal with no raw newline, so a bracket and
    newline are followed by another newline only there.  ``pad`` is the
    newline and indent of the level that holds ``value``.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        inner = pad + "  "
        items = [to_json(v, inner) for v in value]
    elif kind is MemberLists:
        # with heights, each list sits one level deeper, in its flat's object
        outer = pad + "  "
        inner = outer if value.heights is None else outer + "  "
        deeper = inner + "  "
        runs = value.join(value.tokens, value.sets, "," + deeper)
        if value.heights is None:
            # one join, the wrappers in its separator: only an empty set leaves
            # start + end, and the scan for it is skipped where no run is empty
            start, end = "[" + deeper, inner + "]"
            text = f"{start}{(end + ',' + inner + start).join(runs)}{end}"
            items = runs and [text if all(runs) else text.replace(start + end, "[]")]
        else:  # a flat's tail after its members is written once per height
            head = "{" + inner + '"members": ['
            start, ends, empties = head + deeper, {}, {}
            for h in {*value.heights}:
                tail = "," + inner + '"height": ' + str(h) + outer + "}"
                ends[h], empties[h] = inner + "]" + tail, head + "]" + tail
            items = [
                start + run + ends[h] if run else empties[h]
                for run, h in zip(runs, value.heights)
            ]
    elif kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            f"{encode_basestring_ascii(k)}: {str(v) if type(v) is int else to_json(v, inner)}"
            for k, v in value.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
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
    return f"[{inner}{(',' + inner).join(items)}{pad}]"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def braced(runs: Sequence[str], sep: str = "} {") -> str:
    """Each of ``runs`` written ``{run}``, one join: ``sep`` holds the braces between two."""
    return "{" + sep.join(runs) + "}"


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


def cmd_lattice(args) -> str:
    matroid = _load_matroid(args)
    family, ground = matroid.family, matroid.ground
    covering = is_covering(family)
    if not covering:
        print("warning: family is not a covering of the universe", file=sys.stderr)

    masks, ranks = matroid.flat_masks(), matroid.flat_ranks()
    if args.dot:
        ids = [f"n{j}" for j in range(len(masks))]
        return hasse_dot(ground.texts, masks, ranks, ids, matroid.cover_lists(ids))
    checks = {} if covering else check_covering_equivalences(matroid)._asdict()

    if args.json:
        names = [*map(str, range(len(masks)))]
        doc = {
            "universe": ground.elements,
            "flats": MemberLists(ground.tokens, masks, heights=ranks),
            "covers": MemberLists(names, matroid.cover_lists(names), listed),
            "bottom": 0,
            "top": len(masks) - 1,
            "covering": covering,
        }
        if checks:
            doc["covering_checks"] = checks
        return to_json(doc) + "\n"

    # ranks ascend and are graded: every rank 0..r starts a run of flats
    r = matroid.ground_rank
    starts = [*map(ranks.index, range(r + 1)), len(ranks)]
    runs = joined(ground.texts, masks, ",")
    texts = [braced(runs[a:b]) for a, b in zip(starts, starts[1:])]
    lines = [
        "universe: " + " ".join(ground.texts),
        "blocks: " + braced(joined(ground.texts, family.block_masks, ",")),
        "covering: " + _yesno(covering),
        f"rank: {r}",
        f"flats ({len(masks)}):",
        *[f"  height {height}: {text}" for height, text in enumerate(texts)],
        "atoms: " + texts[1],
        "coatoms: " + texts[r - 1],
    ]
    if checks:
        lines.append(
            "covering checks: "
            + " ".join(f"{name.replace('_', '-')}={_yesno(flag)}" for name, flag in checks.items())
        )
    return "\n".join(lines) + "\n"


def cmd_reducts(args) -> str:
    matroid = _load_matroid(args)
    ground = matroid.ground
    hyperplanes = matroid.hyperplane_masks()
    reducts = matroid.basis_masks()
    # hyperplanes, their complements and the bases are joined as one list, from
    # one pair of half tables, and cut apart
    k = len(hyperplanes)
    masks = [*hyperplanes, *[ground.full_mask & ~h for h in hyperplanes], *reducts]

    if args.json:
        runs = {}

        def cut(tokens, part, sep):  # one join per separator, shared by the three lists
            if sep not in runs:
                runs[sep] = joined(tokens, masks, sep)
            return runs[sep][part]

        doc = {
            "universe": ground.elements,
            "rank": matroid.ground_rank,
            "hyperplanes": MemberLists(ground.tokens, slice(k), cut),
            "complements": MemberLists(ground.tokens, slice(k, 2 * k), cut),
            "reducts": MemberLists(ground.tokens, slice(2 * k, None), cut),
        }
        return to_json(doc) + "\n"

    runs = joined(ground.texts, masks, ",")
    lines = [
        "universe: " + " ".join(ground.texts),
        f"rank: {matroid.ground_rank}",
        f"hyperplanes ({k}): " + braced(runs[:k]),
        f"complements ({k}): " + braced(runs[k : 2 * k]),
        f"reducts ({len(reducts)}):",
        "  " + braced(runs[2 * k :], "}\n  {"),
    ]
    return "\n".join(lines) + "\n"


def cmd_infosys(args) -> str:
    system = load_table_document(args.path, args.decision)
    attributes, objects = system.attribute_ground, system.object_ground
    condition = system.check_saturation_condition()
    if condition and not args.force_brute:
        method, route = "quotient-rule", system.quotient_reduct_masks
    else:  # the label predates the discernibility route
        method, route = "brute-force", system.discernibility_reduct_masks
    reducts = route(max_attributes=args.max_attrs)
    columns = system.partition_columns

    if args.json:
        doc = {
            "objects": objects.elements,
            "attributes": attributes.elements,
            "decision": args.decision,
            "partitions": {
                a: MemberLists(objects.tokens, column, grouped)
                for a, column in zip(system.attributes, columns)
            },
            "attribute_blocks": MemberLists(attributes.tokens, system.quotient_masks),
            "condition_holds": condition,
            "method": method,
            "reducts": MemberLists(attributes.tokens, reducts),
        }
        return to_json(doc) + "\n"

    lines = ["objects: " + " ".join(objects.texts), "attributes: " + " ".join(attributes.texts)]
    if args.decision is not None:
        lines.append(f"decision column: {args.decision} (excluded from reduction)")
    lines.append("partitions:")
    # equal columns, equal partitions: each distinct one is grouped once
    text = {c: braced(grouped(objects.texts, c, ",")) for c in {*columns}}
    lines += [f"  {a}: {text[c]}" for a, c in zip(system.attributes, columns)]
    lines += [
        "attribute blocks: " + braced(joined(attributes.texts, system.quotient_masks, ",")),
        "condition: " + ("holds" if condition else "fails"),
    ]
    if not condition:
        lines.append("note: condition fails; falling back to brute-force reducts")
    lines.append(f"reducts ({len(reducts)}) via {method}:")
    lines.append("  " + braced(joined(attributes.texts, reducts, ","), "}\n  {"))
    return "\n".join(lines) + "\n"


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
    inf.add_argument(
        "--force-brute",
        action="store_true",
        help="always take the discernibility route (labelled brute-force)",
    )
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
        sys.stdout.write(args.func(args))
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))
    except BrokenPipeError:
        # downstream consumer closed the pipe, e.g. DOT output into head
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
