"""CLI front end: parsing, subcommands, output determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latmat import (
    DocumentError,
    GroundSet,
    InformationSystem,
    TransversalMatroid,
    build_lattice,
    complement_family,
    reducts_via_hyperplanes,
)
from latmat.cli import (
    Members,
    build_parser,
    load_covering_document,
    load_table_document,
    main,
    to_json,
)
from strategies import information_systems, set_families

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


def test_load_table_document(weather_file):
    system = load_table_document(weather_file)
    assert system.objects == ("x1", "x2", "x3", "x4")
    assert system.attributes == ("outlook", "temperature", "humidity")


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


# ---------------------------------------------------------------------------
# lattice command


def test_lattice_text_golden(covering_file, capsys):
    assert main(["lattice", covering_file]) == 0
    out = capsys.readouterr()
    assert out.out == LATTICE_TEXT
    assert out.err == ""


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


@given(st.lists(JSON_TEXT | st.integers(), min_size=1, max_size=8, unique_by=str), st.data())
@settings(max_examples=100, deadline=None)
def test_to_json_writes_members_from_tokens(elements, data):
    ground = GroundSet(tuple(elements))
    masks = data.draw(st.lists(st.integers(0, ground.full_mask), max_size=4))
    value = {"sets": [Members(ground, m) for m in masks], "all": Members(ground, ground.full_mask)}
    expected = {"sets": [list(ground.members(m)) for m in masks], "all": list(elements)}
    assert to_json(value) == json.dumps(expected, indent=2)


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
