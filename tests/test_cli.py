"""CLI front end: parsing, subcommands, output determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from latmat import (
    DocumentError,
    GeometricLattice,
    GroundSet,
    InformationSystem,
    TransversalMatroid,
    build_lattice,
    complement_family,
    reducts_via_hyperplanes,
)
from latmat.cli import (
    MemberLists,
    build_parser,
    grouped,
    listed,
    load_covering_document,
    load_table_document,
    main,
    to_json,
)
from latmat.matroid import joined
from strategies import information_systems, set_families
from test_data_snapshots import EXPECTED as SNAPSHOTS
from test_data_snapshots import ROOT as SNAPSHOT_ROOT

COVERING_DOC = '{"universe": [1, 2, 3, 4, 5], "blocks": [[1, 3], [2, 3], [3, 4, 5]]}'
FAMILY_DOC = '{"universe": [1, 2, 3, 4, 5], "blocks": [[1, 3], [2, 3], [3, 4]]}'
WEATHER_CSV = (
    "object,outlook,temperature,humidity\n"
    "x1,sunny,hot,high\n"
    "x2,rain,mild,normal\n"
    "x3,rain,cool,normal\n"
    "x4,rain,hot,normal\n"
)
COUNTEREXAMPLE_CSV = (
    "object,a,b,c\n"
    "x1,v0,v1,v0\n"
    "x2,v1,v0,v0\n"
    "x3,v1,v1,v1\n"
)

LATTICE_TEXT = """\
universe: 1 2 3 4 5
blocks: {1,3} {2,3} {3,4,5}
covering: yes
rank: 3
flats (12):
  height 0: {}
  height 1: {1} {2} {3} {4,5}
  height 2: {1,2} {1,3} {1,4,5} {2,3} {2,4,5} {3,4,5}
  height 3: {1,2,3,4,5}
atoms: {1} {2} {3} {4,5}
coatoms: {1,2} {1,3} {1,4,5} {2,3} {2,4,5} {3,4,5}
"""

REDUCTS_TEXT = """\
universe: 1 2 3 4 5
rank: 3
hyperplanes (6): {1,2} {1,3} {1,4,5} {2,3} {2,4,5} {3,4,5}
complements (6): {3,4,5} {2,4,5} {2,3} {1,4,5} {1,3} {1,2}
reducts (7):
  {1,2,3}
  {1,2,4}
  {1,2,5}
  {1,3,4}
  {1,3,5}
  {2,3,4}
  {2,3,5}
"""

INFOSYS_TEXT = """\
objects: x1 x2 x3 x4
attributes: outlook temperature humidity
partitions:
  outlook: {x1} {x2,x3,x4}
  temperature: {x1,x4} {x2} {x3}
  humidity: {x1} {x2,x3,x4}
attribute blocks: {outlook,humidity} {temperature}
condition: holds
reducts (2) via quotient-rule:
  {outlook,temperature}
  {temperature,humidity}
"""


@pytest.fixture
def covering_file(tmp_path):
    path = tmp_path / "covering.json"
    path.write_text(COVERING_DOC)
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(FAMILY_DOC)
    return str(path)


@pytest.fixture
def weather_file(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(WEATHER_CSV)
    return str(path)


# ---------------------------------------------------------------------------
# document parsing


def test_load_covering_document(covering_file):
    family = load_covering_document(covering_file)
    assert family.ground.elements == (1, 2, 3, 4, 5)
    assert family.blocks[2] == frozenset({3, 4, 5})


def test_load_covering_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(DocumentError, match="line 1 column"):
        load_covering_document(str(path))


def test_load_covering_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"universe": [1, 2]}')
    with pytest.raises(DocumentError, match="blocks"):
        load_covering_document(str(path))


def test_load_covering_rejects_foreign_element(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"universe": [1, 2], "blocks": [[1, 9]]}')
    with pytest.raises(DocumentError, match="9"):
        load_covering_document(str(path))


def test_load_covering_rejects_ambiguous_universe(tmp_path, capsys):
    path = tmp_path / "ambiguous.json"
    path.write_text('{"universe": [1, "1"], "blocks": [[1], ["1"]]}')
    with pytest.raises(DocumentError, match="print identically"):
        load_covering_document(str(path))
    assert main(["reducts", str(path)]) == 2
    assert "print identically" in capsys.readouterr().err


@pytest.mark.parametrize(
    "member",
    ["[1, 2]", '{"a": 1}', "1.0", "true"],
    ids=["nested-list", "object", "float", "bool"],
)
def test_lattice_rejects_non_scalar_block_member(tmp_path, capsys, member):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"universe": [1, 2], "blocks": [[2], [{member}]]}}')
    with pytest.raises(DocumentError, match="block 1 elements must be strings or integers"):
        load_covering_document(str(path))
    assert main(["lattice", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "block 1 elements must be strings or integers" in out.err


def test_reducts_rejects_boolean_universe_element(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"universe": [true, 2], "blocks": [[2]]}')
    assert main(["reducts", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "universe elements must be strings or integers" in out.err


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("lattice", "doc.json", '{"universe": ["é"], "blocks": [["é"]]}'),
        ("infosys", "table.csv", "object,a\nx1,é\nx2,b\n"),
    ],
    ids=["lattice-json", "infosys-csv"],
)
def test_non_utf8_file_is_parse_error(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: not UTF-8 text"), out.err


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("lattice", "doc.json", '{"universe": [' + "1" * 5000 + '], "blocks": [[1]]}'),
        ("reducts", "doc.json", '{"universe": [1], "blocks": %s}' % ("[" * 10**5 + "]" * 10**5)),
        ("infosys", "table.csv", "object,a\nx1," + "v" * 131_073 + "\nx2,b\n"),
    ],
    ids=["integer-over-4300-digits", "arrays-nested-100000-deep", "csv-cell-over-field-limit"],
)
def test_oversized_input_is_parse_error(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), out.err


@pytest.mark.parametrize(
    "argv",
    [["lattice"], ["lattice", "--dot"], ["lattice", "--json"], ["reducts"], ["reducts", "--json"]],
    ids=" ".join,
)
def test_lone_surrogate_element_is_parse_error(tmp_path, capsys, argv):
    # the JSON escape \ud800 loads as a lone surrogate, which no output encodes
    path = tmp_path / "surrogate.json"
    path.write_text('{"universe": ["\\ud800", "c"], "blocks": [["\\ud800", "c"]]}')
    assert main([argv[0], str(path), *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.err
    assert "is not valid Unicode text" in lines[0]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["lattice"], None, ": No such file or directory"),
        (["lattice"], '{"universe": [], "blocks": [[1]]}', "'universe' must be a nonempty list"),
        (["reducts"], '{"universe": "1", "blocks": [[1]]}', "'universe' must be a nonempty list"),
        (["lattice"], '{"universe": [1], "blocks": []}', "'blocks' must be a nonempty list"),
        (["reducts"], '{"universe": [1], "blocks": {"b": [1]}}', "'blocks' must be a nonempty list"),
        (["lattice"], '{"universe": [1], "blocks": [[1], 1]}', "block 1 must be a list"),
        (["infosys"], "object,a,b\n", "need a header row and at least one object row"),
        (["infosys"], "object\nx1\n", "header must name at least one attribute"),
        (["infosys"], "object,a,\nx1,1,2\n", "empty attribute name in header"),
        (["infosys", "--decision", "a"], "object,a\nx1,1\n", "no condition attributes besides"),
        (["infosys", "--decision", "a"], "object,a,b,a\nx1,1,2,3\n", "duplicate attribute identifiers"),
        (["infosys", "--decision", "a"], "object,a\nx1,1\nx1,2\n", "duplicate object identifiers"),
        (["infosys", "--decision", "object"], "object,a\nx1,1\n", "'object' is not in the table"),
        (["infosys", "--decision", "c"], "object,a,b\nx1,1,\n", "row 2 has an empty cell"),
    ],
    ids=[
        "missing-file",
        "empty-universe",
        "non-list-universe",
        "empty-blocks",
        "non-list-blocks",
        "non-list-block",
        "header-only-csv",
        "header-without-attribute",
        "empty-attribute-name",
        "decision-is-only-column",
        "decision-named-twice",
        "decision-beside-duplicate-objects",
        "decision-is-object-label",
        "decision-beside-empty-cell",
    ],
)
def test_malformed_input_is_parse_error(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], out.err


def test_load_table_document(weather_file):
    system = load_table_document(weather_file)
    assert system.objects == ("x1", "x2", "x3", "x4")
    assert system.attributes == ("outlook", "temperature", "humidity")


def test_load_table_document_sets_decision_aside(weather_file):
    system = load_table_document(weather_file, "temperature")
    assert system.attributes == ("outlook", "humidity")
    assert system.rows == (
        ("sunny", "high"),
        ("rain", "normal"),
        ("rain", "normal"),
        ("rain", "normal"),
    )


def test_load_table_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("object,a,b\nx1,1,2\nx2,1\n")
    with pytest.raises(DocumentError, match="row 3"):
        load_table_document(str(path))


@pytest.mark.parametrize(
    "text",
    ["object,a\nx1,1\nx1,2\n", "object,a,a\nx1,1,2\n"],
    ids=["duplicate-object", "duplicate-attribute"],
)
def test_infosys_duplicate_name_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "dup.csv"
    path.write_text(text)
    assert main(["infosys", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: duplicate "), out.err


def test_load_table_rejects_empty_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("object,a,b\nx1,1,\n")
    with pytest.raises(DocumentError, match="empty cell"):
        load_table_document(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("object,a,b\nx1,1, \nx2,1\n", "row 2 has an empty cell"),
        ("object,a,b\nx1,1\nx2,1,\n", "row 2 has 2 cells, expected 3"),
        ("object,a,b\nx1,1,2\nx2,,2\nx3\n", "row 3 has an empty cell"),
        ("object,a,b\nx1,1,2\nx2,1,2,3\nx3,1,\n", "row 3 has 4 cells, expected 3"),
        ("object,a,b\n\nx1,1,2\n\nx2,1,\n", "row 5 has an empty cell"),
        ('object,a,b\nx1,"1\n",2\nx2,1\n', "row 4 has 2 cells, expected 3"),
    ],
    ids=[
        "empty-then-ragged",
        "ragged-then-empty",
        "empty-first-column",
        "long-row",
        "after-blank-lines",
        "after-quoted-newline",
    ],
)
def test_load_table_names_the_first_bad_row(tmp_path, text, message):
    # the columns are checked as a whole; a fault sends the load back to
    # the rows, which name the first bad one by the line it starts on
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DocumentError) as caught:
        load_table_document(str(path), "b")
    assert str(caught.value) == f"{path}: {message}"


@given(information_systems(max_objects=8, max_values=4, max_copies=2))
@settings(max_examples=60, deadline=None)
def test_grouped_partitions_match_partition_masks(system):
    texts, tokens = system.object_ground.texts, system.object_ground.tokens
    columns = system.partition_columns
    assert columns == tuple(system.partition_key([a]) for a in system.attributes)
    for bit, column in zip(system.attribute_ground.bits, columns):
        blocks = system.partition_masks(bit)
        assert grouped(texts, column, ",") == joined(texts, blocks, ",")
        partition = MemberLists(tokens, column, grouped)
        assert to_json(partition) == to_json(MemberLists(tokens, blocks))
        # the CLI writes partitions two levels deep, under "partitions"
        members = [list(system.object_ground.members(m)) for m in blocks]
        assert to_json({"partitions": {"a": partition}}) == json.dumps(
            {"partitions": {"a": members}}, indent=2
        )
        assert len(grouped(tokens, column, ", ")) == len(blocks)


# ---------------------------------------------------------------------------
# lattice command


def test_lattice_text_golden(covering_file, capsys):
    assert main(["lattice", covering_file]) == 0
    out = capsys.readouterr()
    assert out.out == LATTICE_TEXT
    assert out.err == ""


@pytest.mark.parametrize(
    "command", [c for c in SNAPSHOTS if c.startswith("lattice ") and "--" not in c]
)
def test_lattice_text_builds_no_covers(command, monkeypatch, capsys):
    # the text form prints flats by height, atoms and coatoms, so neither it
    # nor the covering checks of a non-covering family (data/family.json)
    # may build the Hasse covers, as ints or as names
    def refuse(*args):
        raise AssertionError("the text form built the Hasse covers")

    monkeypatch.setattr(TransversalMatroid, "flat_covers", refuse)
    monkeypatch.setattr(TransversalMatroid, "cover_lists", refuse)
    monkeypatch.chdir(SNAPSHOT_ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == SNAPSHOTS[command]


def _run_refusing_int_covers(command, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built int covers or a lattice")

    monkeypatch.setattr(TransversalMatroid, "flat_covers", refuse)
    monkeypatch.setattr(GeometricLattice, "__init__", refuse)
    monkeypatch.chdir(SNAPSHOT_ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == SNAPSHOTS[command]


@pytest.mark.parametrize(
    "command", [c for c in SNAPSHOTS if c.startswith("lattice ") and c.endswith(" --json")]
)
def test_lattice_json_builds_no_int_covers(command, monkeypatch, capsys):
    # the JSON form reads masks and ranks from the flat record and its covers
    # come out of the cover loop named by their JSON text: no lattice is
    # built, and no tuple of int positions
    _run_refusing_int_covers(command, monkeypatch, capsys)


@pytest.mark.parametrize(
    "command", [c for c in SNAPSHOTS if c.startswith("lattice ") and c.endswith(" --dot")]
)
def test_lattice_dot_builds_no_int_covers(command, monkeypatch, capsys):
    # the DOT form does the same, its covers named by their node ids
    _run_refusing_int_covers(command, monkeypatch, capsys)


def test_lattice_warns_on_non_covering(family_file, capsys):
    assert main(["lattice", family_file]) == 0
    out = capsys.readouterr()
    assert "not a covering" in out.err
    assert (
        "covering checks: covering=no empty-set-closed=no"
        " closures-partition=no closures-are-atoms=no" in out.out
    )


def test_lattice_dot(covering_file, capsys):
    assert main(["lattice", covering_file, "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph flats {")
    assert dot.count("[label=") == 12
    assert dot.count("->") == 22


def test_lattice_dot_escapes_labels(tmp_path, capsys):
    path = tmp_path / "quotes.json"
    universe = ['a"b', "c", "d\\", '\\"e']
    blocks = [['a"b', "c"], ["d\\"], ['\\"e', "c"]]
    path.write_text(json.dumps({"universe": universe, "blocks": blocks}))
    family = load_covering_document(str(path))
    lattice = build_lattice(TransversalMatroid(family))
    assert main(["lattice", str(path), "--dot"]) == 0
    # a DOT quoted string holds no bare '"'; Graphviz reads \" as a quote and,
    # inside a label, \\ as one backslash
    quoted = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];')
    labels = {}
    for line in capsys.readouterr().out.splitlines():
        if "[label=" in line:
            match = quoted.fullmatch(line)
            assert match, line
            labels[int(match[1])] = re.sub(r"\\(.)", r"\1", match[2])
    assert labels == {i: family.ground.label(m) for i, m in enumerate(lattice.masks)}


def test_lattice_json_roundtrip(covering_file, capsys):
    assert main(["lattice", covering_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["covering"] is True
    family = load_covering_document(covering_file)
    ground = family.ground
    lattice = build_lattice(TransversalMatroid(family))
    assert doc == {
        "universe": [1, 2, 3, 4, 5],
        "flats": [
            {"members": sorted(flat, key=ground.index_of), "height": lattice.height_of(flat)}
            for flat in lattice.flats
        ],
        "covers": [list(ups) for ups in lattice.covers],
        "bottom": 0,
        "top": len(lattice.flats) - 1,
        "covering": True,
    }


def test_lattice_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["lattice", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_lattice_capacity_exit_code(tmp_path, capsys):
    doc = {"universe": list(range(20)), "blocks": [list(range(20))]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["lattice", str(path)]) == 4
    assert "--max-elems" in capsys.readouterr().err
    assert main(["lattice", str(path), "--max-elems", "20"]) == 0


class CountedWrites(io.StringIO):
    """A stdout that counts its ``write`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("command", SNAPSHOTS)
def test_data_command_writes_stdout_once(command, monkeypatch):
    monkeypatch.chdir(SNAPSHOT_ROOT)
    out = CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(command.split()) == 0
    assert out.calls == 1 and out.getvalue()


@pytest.mark.parametrize(
    "command, code",
    [
        ("lattice {tmp}/bad.json", 2),
        ("reducts {tmp}/bad.json --json", 2),
        ("infosys {tmp}/bad.csv", 2),
        ("lattice data/covering.json --dot --max-elems 2", 4),
        ("reducts data/covering.json --max-elems 2", 4),
        ("infosys data/weather.csv --json --max-attrs 1", 4),
    ],
)
def test_failed_command_writes_stderr_only(command, code, tmp_path, monkeypatch, capsys):
    # a DocumentError or CapacityError leaves stdout untouched
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "bad.csv").write_text("object,a\nx1\n")
    monkeypatch.chdir(SNAPSHOT_ROOT)
    out = CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(command.format(tmp=tmp_path).split()) == code
    assert out.calls == 0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# reducts command


def test_reducts_text_golden(covering_file, capsys):
    assert main(["reducts", covering_file]) == 0
    assert capsys.readouterr().out == REDUCTS_TEXT


def test_reducts_partition_single_reduct(tmp_path, capsys):
    path = tmp_path / "partition.json"
    path.write_text('{"universe": [1, 2], "blocks": [[1], [2]]}')
    assert main(["reducts", str(path)]) == 0
    out = capsys.readouterr().out
    assert "reducts (1):" in out
    assert "{1,2}" in out


def test_reducts_json_roundtrip(covering_file, capsys):
    assert main(["reducts", covering_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    family = load_covering_document(covering_file)
    ground = family.ground
    matroid = TransversalMatroid(family)
    hyperplanes = matroid.hyperplanes()

    def members(subsets):
        return [sorted(s, key=ground.index_of) for s in subsets]

    assert doc == {
        "universe": [1, 2, 3, 4, 5],
        "rank": 3,
        "hyperplanes": members(hyperplanes),
        "complements": members(complement_family(ground, hyperplanes)),
        "reducts": members(reducts_via_hyperplanes(matroid)),
    }


def test_reducts_matches_library(family_file, capsys):
    assert main(["reducts", family_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    family = load_covering_document(family_file)
    expected = reducts_via_hyperplanes(TransversalMatroid(family))
    assert tuple(frozenset(r) for r in doc["reducts"]) == expected


def test_reducts_uniform_8_16(capsys):
    # U(8,16): eight copies of one 16-element block, 12,870 bases
    path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "uniform-8-16.json")
    assert main(["reducts", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("reducts (12870):") + 1
    assert len(lines) - start == 12870
    assert lines[start] == "  {1,2,3,4,5,6,7,8}"
    assert lines[-1] == "  {9,10,11,12,13,14,15,16}"


def test_lattice_prints_every_block_of_many_blocks(capsys):
    # 57 blocks of rank 9: the blocks line lists the family, not its presentation
    path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "many-blocks.json")
    with open(path) as f:
        blocks = json.load(f)["blocks"]
    assert len(blocks) == 57
    assert main(["lattice", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = " ".join("{" + ",".join(map(str, block)) + "}" for block in blocks)
    assert lines[1] == "blocks: " + expected
    assert lines[3] == "rank: 9"


# ---------------------------------------------------------------------------
# infosys command


def test_infosys_text_golden(weather_file, capsys):
    assert main(["infosys", weather_file]) == 0
    assert capsys.readouterr().out == INFOSYS_TEXT


def test_infosys_force_brute(weather_file, capsys):
    assert main(["infosys", weather_file, "--force-brute"]) == 0
    out = capsys.readouterr().out
    assert "via brute-force" in out
    assert "{outlook,temperature}" in out
    assert "{temperature,humidity}" in out


def test_infosys_condition_failure_falls_back(tmp_path, capsys):
    path = tmp_path / "counterexample.csv"
    path.write_text(COUNTEREXAMPLE_CSV)
    assert main(["infosys", str(path)]) == 0
    out = capsys.readouterr().out
    assert "condition: fails" in out
    assert "note: condition fails" in out
    assert "via brute-force" in out
    assert "{a,b}" in out and "{a,c}" in out and "{b,c}" in out


def test_infosys_json(weather_file, capsys):
    assert main(["infosys", weather_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["attribute_blocks"] == [["outlook", "humidity"], ["temperature"]]
    assert doc["condition_holds"] is True
    assert doc["method"] == "quotient-rule"
    assert doc["reducts"] == [["outlook", "temperature"], ["temperature", "humidity"]]


def test_infosys_ragged_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("object,a\nx1\n")
    assert main(["infosys", str(path)]) == 2


def test_infosys_capacity_exit_code(weather_file, capsys):
    assert main(["infosys", weather_file, "--max-attrs", "2"]) == 4
    assert "capped at 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "csv_text, flags, route",
    [
        (WEATHER_CSV, [], "quotient rule"),
        (WEATHER_CSV, ["--force-brute"], "discernibility reduct search"),
        (COUNTEREXAMPLE_CSV, [], "discernibility reduct search"),
    ],
    ids=["quotient", "forced", "fallback"],
)
def test_infosys_capacity_error_names_the_route(tmp_path, capsys, csv_text, flags, route):
    path = tmp_path / "table.csv"
    path.write_text(csv_text)
    assert main(["infosys", str(path), *flags, "--max-attrs", "2"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {route} capped at 2 attributes, got 3\n"


def test_infosys_decision_column_excluded(weather_file, capsys):
    assert main(["infosys", weather_file, "--decision", "humidity"]) == 0
    out = capsys.readouterr().out
    assert "decision column: humidity (excluded from reduction)" in out
    assert "attributes: outlook temperature\n" in out
    assert "  humidity:" not in out
    assert "{outlook,temperature}" in out


def test_infosys_unknown_decision_column(weather_file, capsys):
    assert main(["infosys", weather_file, "--decision", "wind"]) == 2
    assert "wind" in capsys.readouterr().err


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@given(information_systems(max_copies=3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_infosys_matches_library(drawn, force_brute):
    # labels sort in reverse column order, so the output must follow the
    # column numbering and not the labels
    m, n = len(drawn.attributes), len(drawn.objects)
    attributes = tuple(f"c{m - j}" for j in range(m))
    objects = tuple(f"y{n - i}" for i in range(n))
    table = InformationSystem(objects, attributes, drawn.rows)
    column = {a: j for j, a in enumerate(attributes)}.__getitem__
    row = {x: i for i, x in enumerate(objects)}.__getitem__
    condition = table.check_saturation_condition()
    if force_brute or not condition:
        method, reducts = "brute-force", table.discernibility_reducts()
    else:
        method, reducts = "quotient-rule", table.reducts_via_quotient()
    reducts = [sorted(r, key=column) for r in reducts]

    flags = ["--force-brute"] if force_brute else []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(("object",) + attributes) + "\n")
            for x, values in zip(objects, table.rows):
                handle.write(",".join((x,) + values) + "\n")
        json_code, json_out = _run(["infosys", path, "--json", *flags])
        text_code, text_out = _run(["infosys", path, *flags])

    assert json_code == text_code == 0
    assert json.loads(json_out) == {
        "objects": list(objects),
        "attributes": list(attributes),
        "decision": None,
        "partitions": {
            a: [sorted(b, key=row) for b in table.indiscernibility([a])] for a in attributes
        },
        "attribute_blocks": [sorted(b, key=column) for b in table.attribute_quotient()],
        "condition_holds": condition,
        "method": method,
        "reducts": reducts,
    }
    lines = text_out.splitlines()
    start = lines.index(f"reducts ({len(reducts)}) via {method}:") + 1
    assert lines[start:] == ["  {" + ",".join(r) + "}" for r in reducts]


@given(set_families(max_elements=6))
@settings(max_examples=60, deadline=None)
def test_family_commands_match_oracles(family):
    # drawn families need not cover the universe; both commands accept them
    ground = family.ground
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.json")
        with open(path, "w", encoding="utf-8") as handle:
            blocks = [sorted(block) for block in family.blocks]
            json.dump({"universe": list(ground), "blocks": blocks}, handle)
        lattice_code, lattice_out = _run(["lattice", path, "--json"])
        reducts_code, reducts_out = _run(["reducts", path, "--json"])

    assert lattice_code == reducts_code == 0
    lattice = json.loads(lattice_out)
    flats = [ground.mask_of(flat["members"]) for flat in lattice["flats"]]
    ranks = oracles.rank_table(family)
    expected_flats = oracles.flat_masks(family)
    assert len(flats) == len(expected_flats)
    assert set(flats) == expected_flats
    assert [flat["height"] for flat in lattice["flats"]] == [ranks[m] for m in flats]
    covers = {(flats[i], flats[j]) for i, ups in enumerate(lattice["covers"]) for j in ups}
    assert covers == oracles.cover_pairs(expected_flats)
    reducts = [ground.mask_of(r) for r in json.loads(reducts_out)["reducts"]]
    assert len(reducts) == len(set(reducts))
    assert set(reducts) == oracles.minimal_spanning_masks(family)


# Text output against references that print each line through
# GroundSet.label.  The commands inline the label format and write their
# whole output at once; these references keep that format tied to ``label``.


def _reducts_text_reference(family) -> str:
    matroid = TransversalMatroid(family)
    ground = family.ground
    hyperplanes = matroid.hyperplane_masks()
    complements = [ground.full_mask & ~h for h in hyperplanes]
    reducts = matroid.basis_masks()
    out = io.StringIO()
    print("universe:", " ".join(map(str, ground)), file=out)
    print("rank:", matroid.ground_rank, file=out)
    print(f"hyperplanes ({len(hyperplanes)}):", " ".join(map(ground.label, hyperplanes)), file=out)
    print(f"complements ({len(complements)}):", " ".join(map(ground.label, complements)), file=out)
    print(f"reducts ({len(reducts)}):", file=out)
    for reduct in reducts:
        print("  " + ground.label(reduct), file=out)
    return out.getvalue()


def _infosys_text_reference(table, force_brute: bool) -> str:
    attributes, objects = table.attribute_ground, table.object_ground
    condition = table.check_saturation_condition()
    if condition and not force_brute:
        method, reducts = "quotient-rule", table.quotient_reduct_masks()
    else:
        method, reducts = "brute-force", table.discernibility_reduct_masks()
    out = io.StringIO()
    print("objects:", " ".join(map(str, table.objects)), file=out)
    print("attributes:", " ".join(map(str, table.attributes)), file=out)
    print("partitions:", file=out)
    for a, bit in zip(table.attributes, attributes.bits):
        print(f"  {a}:", " ".join(map(objects.label, table.partition_masks(bit))), file=out)
    print("attribute blocks:", " ".join(map(attributes.label, table.quotient_masks)), file=out)
    print("condition:", "holds" if condition else "fails", file=out)
    if not condition:
        print("note: condition fails; falling back to brute-force reducts", file=out)
    print(f"reducts ({len(reducts)}) via {method}:", file=out)
    for reduct in reducts:
        print("  " + attributes.label(reduct), file=out)
    return out.getvalue()


@given(set_families(max_elements=7), information_systems(max_copies=3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_text_output_matches_line_by_line_labels(family, table, force_brute):
    flags = ["--force-brute"] if force_brute else []
    with tempfile.TemporaryDirectory() as tmp:
        family_path = os.path.join(tmp, "family.json")
        with open(family_path, "w", encoding="utf-8") as handle:
            blocks = [sorted(block) for block in family.blocks]
            json.dump({"universe": list(family.ground), "blocks": blocks}, handle)
        table_path = os.path.join(tmp, "table.csv")
        with open(table_path, "w", encoding="utf-8") as handle:
            handle.write(",".join(("object",) + table.attributes) + "\n")
            for x, values in zip(table.objects, table.rows):
                handle.write(",".join((x,) + values) + "\n")
        assert _run(["reducts", family_path]) == (0, _reducts_text_reference(family))
        assert _run(["infosys", table_path, *flags]) == (
            0,
            _infosys_text_reference(table, force_brute),
        )


def test_empty_sets_print_as_braces_and_brackets(tmp_path):
    # a rank-1 family: the empty flat is its only hyperplane
    family_path = tmp_path / "rank-1.json"
    family_path.write_text('{"universe": ["a", "b"], "blocks": [["a", "b"]]}')
    family = load_covering_document(str(family_path))
    text = _reducts_text_reference(family)
    assert "hyperplanes (1): {}\n" in text
    assert _run(["reducts", str(family_path)]) == (0, text)
    reducts = {
        "universe": ["a", "b"],
        "rank": 1,
        "hyperplanes": [[]],
        "complements": [["a", "b"]],
        "reducts": [["a"], ["b"]],
    }
    assert _run(["reducts", str(family_path), "--json"]) == (
        0,
        json.dumps(reducts, indent=2) + "\n",
    )
    # a one-object table: the empty set is its only reduct, on either route
    table_path = tmp_path / "one-object.csv"
    table_path.write_text("object,a,b\nx1,v,w\n")
    table = InformationSystem(("x1",), ("a", "b"), [("v", "w")])
    infosys = {
        "objects": ["x1"],
        "attributes": ["a", "b"],
        "decision": None,
        "partitions": {"a": [["x1"]], "b": [["x1"]]},
        "attribute_blocks": [["a", "b"]],
        "condition_holds": False,
        "method": "brute-force",
        "reducts": [[]],
    }
    for flags in ([], ["--force-brute"]):
        text = _infosys_text_reference(table, bool(flags))
        assert text.endswith("reducts (1) via brute-force:\n  {}\n")
        assert _run(["infosys", str(table_path), *flags]) == (0, text)
        assert _run(["infosys", str(table_path), "--json", *flags]) == (
            0,
            json.dumps(infosys, indent=2) + "\n",
        )


@pytest.mark.parametrize("flags", ["", " --json"], ids=["text", "json"])
def test_reducts_reads_its_lists_from_one_pair_of_half_tables(flags, built, monkeypatch, capsys):
    # U(8,16): 11,440 hyperplanes, as many complements and 12,870 bases
    command = "reducts data/uniform-8-16.json" + flags
    monkeypatch.chdir(SNAPSHOT_ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == SNAPSHOTS[command]
    assert len(built) <= 2


def _check_capped(forms, option, cap, size):
    """Each form with ``option cap`` exits 4 with one error line iff ``size > cap``.

    Otherwise it exits 0 and prints what the uncapped form prints.
    """
    for argv in forms:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, option, str(cap)])
        assert code == (4 if size > cap else 0), argv
        if code == 4:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert "capped at" in lines[0]
        else:
            with contextlib.redirect_stderr(io.StringIO()):
                assert out.getvalue() == _run(argv)[1], argv


@given(set_families(max_elements=7), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_family_capacity_guard(family, max_elems):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.json")
        with open(path, "w", encoding="utf-8") as handle:
            blocks = [sorted(block) for block in family.blocks]
            json.dump({"universe": list(family.ground), "blocks": blocks}, handle)
        forms = [
            [command, path, *json_flag]
            for command in ("lattice", "reducts")
            for json_flag in ([], ["--json"])
        ]
        _check_capped(forms, "--max-elems", max_elems, len(family.ground))


@given(information_systems(max_attributes=5), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_table_capacity_guard(table, max_attrs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(("object",) + table.attributes) + "\n")
            for x, values in zip(table.objects, table.rows):
                handle.write(",".join((x,) + values) + "\n")
        forms = [
            ["infosys", path, *json_flag, *brute_flag]
            for json_flag in ([], ["--json"])
            for brute_flag in ([], ["--force-brute"])
        ]
        _check_capped(forms, "--max-attrs", max_attrs, len(table.attributes))


# ---------------------------------------------------------------------------
# JSON writer

JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800é€😀'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | JSON_TEXT,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(JSON_TEXT, children, max_size=4)
    ),
    max_leaves=24,
)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_to_json_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2)


@given(
    st.lists(JSON_TEXT | st.integers(), min_size=1, max_size=8, unique_by=str),
    st.lists(st.tuples(st.integers(0, 255), st.integers(0, 9)), max_size=5),
)
@settings(max_examples=100, deadline=None)
@example(['q"uote', "back\\slash", "é€😀", -7, 10**20], [(0, 0), (0b10110, 2), (255, 5)])
@example([3], [(0, 0)])
@example([3], [])
def test_to_json_writes_members_from_tokens(elements, drawn):
    # masks of a ground with string and int elements, the empty mask and the
    # empty list among them, alone, in lists and as flats with heights
    ground = GroundSet(tuple(elements))
    masks = [bits & ground.full_mask for bits, _ in drawn]
    heights = [height for _, height in drawn]
    lists = MemberLists(ground.tokens, masks)
    flats = MemberLists(ground.tokens, masks, heights=heights)
    value = {
        "sets": [ground.members(m) for m in masks],
        "lists": lists,
        "flats": flats,
        "nested": [lists, [flats, ground.members(0)]],
        "all": ground.elements,
    }
    members = [list(ground.members(m)) for m in masks]
    plain_flats = [{"members": m, "height": h} for m, h in zip(members, heights)]
    expected = {
        "sets": members,
        "lists": members,
        "flats": plain_flats,
        "nested": [members, [plain_flats, []]],
        "all": list(elements),
    }
    assert to_json(value) == json.dumps(expected, indent=2)
    assert to_json(lists) == json.dumps(members, indent=2)
    assert to_json(flats) == json.dumps(plain_flats, indent=2)


@given(
    st.integers(0, 14).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, max(n - 1, 0)), max_size=4).map(tuple), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=100, deadline=None)
@example([])
@example([(), (3, 10, 11), (), (1,), (), (), (), (), (), (), (), ()])
def test_to_json_writes_index_lists(covers):
    # the lattice's covers: flat indices named by their JSON text, as
    # TransversalMatroid.cover_lists gives them; the top flat's list is empty
    names = [*map(str, range(len(covers)))]
    lists = MemberLists(names, [[names[j] for j in c] for c in covers], listed)
    expected = [list(c) for c in covers]
    assert to_json(lists) == json.dumps(expected, indent=2)
    assert to_json({"covers": lists, "nested": [lists, {"deeper": lists}]}) == json.dumps(
        {"covers": expected, "nested": [expected, {"deeper": expected}]}, indent=2
    )


# element names for documents: quotes, backslashes, commas, braces, non-ASCII
# and control characters, but no whitespace, which table cells lose
NAME = st.text(st.sampled_from('ab"\\,{}é€😀\x01\x7f'), min_size=1, max_size=4)


@given(st.lists(NAME, min_size=1, max_size=5, unique=True), st.data())
@settings(max_examples=40, deadline=None)
def test_json_documents_on_string_universes(universe, data):
    blocks = data.draw(
        st.lists(
            st.lists(st.sampled_from(universe), min_size=1, unique=True), min_size=1, max_size=4
        )
    )
    objects = data.draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    rows = data.draw(
        st.lists(
            st.lists(NAME, min_size=len(universe), max_size=len(universe)),
            min_size=len(objects),
            max_size=len(objects),
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        family = os.path.join(tmp, "family.json")
        with open(family, "w", encoding="utf-8") as handle:
            json.dump({"universe": universe, "blocks": blocks}, handle)
        table = os.path.join(tmp, "table.csv")
        with open(table, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["object", *universe])
            writer.writerows([x, *row] for x, row in zip(objects, rows))
        for argv in (["lattice", family], ["reducts", family], ["infosys", table]):
            code, out = _run([*argv, "--json"])
            assert code == 0, argv
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


# ---------------------------------------------------------------------------
# determinism


def test_outputs_are_deterministic(covering_file, weather_file, capsys):
    runs = []
    for _ in range(2):
        main(["lattice", covering_file])
        main(["lattice", covering_file, "--json"])
        main(["reducts", covering_file])
        main(["infosys", weather_file, "--json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_cached_parser_serves_consecutive_calls(covering_file, capsys):
    assert build_parser() is build_parser()
    assert main(["reducts", covering_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "universe": [1, 2, 3, 4, 5],
        "rank": 3,
        "hyperplanes": [[1, 2], [1, 3], [1, 4, 5], [2, 3], [2, 4, 5], [3, 4, 5]],
        "complements": [[3, 4, 5], [2, 4, 5], [2, 3], [1, 4, 5], [1, 3], [1, 2]],
        "reducts": [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5], [2, 3, 4], [2, 3, 5]],
    }
    with pytest.raises(SystemExit) as exc:
        main(["reducts", covering_file, "--dot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err
    assert main(["lattice", covering_file]) == 0
    assert capsys.readouterr().out == LATTICE_TEXT
