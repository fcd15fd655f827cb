"""Information tables: partitions, attribute quotient, condition, reducts."""

import random

import pytest
from hypothesis import given, settings

import oracles
from latmat import (
    CapacityError,
    ConditionNotSatisfiedError,
    InformationSystem,
    UnknownAttributeError,
    UnknownElementError,
    infosys,
)
from latmat.dependence import minimal_hitting_masks
from strategies import information_systems, saturated_systems

# found by exhausting all 3x3 binary tables; any two attribute pairs induce
# the discrete partition while the three single columns stay distinct
CONDITION_COUNTEREXAMPLE = InformationSystem(
    objects=("x1", "x2", "x3"),
    attributes=("a", "b", "c"),
    rows=(("v0", "v1", "v0"), ("v1", "v0", "v0"), ("v1", "v1", "v1")),
)


def all_binary_tables():
    for bits in range(512):
        rows = []
        value = bits
        for _ in range(3):
            row = []
            for _ in range(3):
                row.append(f"v{value & 1}")
                value >>= 1
            rows.append(tuple(row))
        yield InformationSystem(("x1", "x2", "x3"), ("a", "b", "c"), tuple(rows))


# ---------------------------------------------------------------------------
# construction


def test_rejects_duplicate_objects():
    with pytest.raises(ValueError, match="duplicate object"):
        InformationSystem(("x", "x"), ("a",), (("1",), ("2",)))


def test_rejects_duplicate_attributes():
    with pytest.raises(ValueError, match="duplicate attribute"):
        InformationSystem(("x",), ("a", "a"), (("1", "2"),))


def test_rejects_ragged_rows():
    with pytest.raises(ValueError, match="cells"):
        InformationSystem(("x1", "x2"), ("a", "b"), (("1", "2"), ("3",)))


@pytest.mark.parametrize(
    "objects, attributes, rows, message",
    [
        ((), ("a",), (), "at least one object"),
        (("x1",), (), ((),), "at least one attribute"),
        (("x1", "x2"), ("a",), (("1",),), "expected 2 rows, got 1"),
    ],
    ids=["no-object", "no-attribute", "row-count"],
)
def test_rejects_wrong_shape(objects, attributes, rows, message):
    with pytest.raises(ValueError, match=message):
        InformationSystem(objects, attributes, rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        ((("1", ""), ("1",)), "missing value in row 0"),
        ((("1",), ("1", "")), "row 0 has 1 cells, expected 2"),
        ((("1", "2"), ("1", None), ("1", "2", "3")), "missing value in row 1"),
        ((("1", "2"), ("1", "2", "3"), (None, "2")), "row 1 has 3 cells, expected 2"),
    ],
    ids=["missing-then-short", "short-then-missing", "none-then-long", "long-then-none"],
)
def test_rejects_the_first_bad_row(rows, message):
    # the columns are checked as a whole; a fault sends the check back to
    # the rows, which name the first bad one
    objects = tuple(f"x{i}" for i in range(len(rows)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        InformationSystem(objects, ("a", "b"), rows)


def test_rejects_missing_values():
    with pytest.raises(ValueError, match="missing"):
        InformationSystem(("x1",), ("a", "b"), (("1", ""),))


def test_values_are_opaque_tokens():
    system = InformationSystem(("x1", "x2"), ("a",), (("1",), (1,)))
    assert len(system.indiscernibility(["a"])) == 2


# ---------------------------------------------------------------------------
# indiscernibility


def test_indiscernibility_golden(weather_system):
    assert weather_system.indiscernibility(["temperature"]) == (
        frozenset({"x1", "x4"}),
        frozenset({"x2"}),
        frozenset({"x3"}),
    )
    assert weather_system.indiscernibility(["outlook"]) == (
        frozenset({"x1"}),
        frozenset({"x2", "x3", "x4"}),
    )
    assert weather_system.indiscernibility(["outlook", "temperature"]) == (
        frozenset({"x1"}),
        frozenset({"x2"}),
        frozenset({"x3"}),
        frozenset({"x4"}),
    )


def test_indiscernibility_empty_attribute_set(weather_system):
    assert weather_system.indiscernibility([]) == (
        frozenset({"x1", "x2", "x3", "x4"}),
    )


def test_indiscernibility_unknown_attribute(weather_system):
    with pytest.raises(UnknownAttributeError, match="wind"):
        weather_system.indiscernibility(["wind"])


def test_partition_masks_refuse_bits_outside_the_attributes(weather_system):
    # three attributes: a stray bit alone, beside attributes, or a negative mask
    full = weather_system.attribute_ground.full_mask
    for mask, bit in {0b1000: 3, 0b1000 | full: 3, 0b110000 | full: 4, -1: 3}.items():
        with pytest.raises(UnknownElementError, match=f"'bit {bit}'"):
            weather_system.partition_masks(mask)


@given(information_systems())
@settings(max_examples=100, deadline=None)
def test_indiscernibility_is_intersection_of_single_attributes(system):
    attrs = system.attributes
    count = len(system.objects)
    singles = {a: system.partition_key([a]) for a in attrs}
    for mask in range(1 << len(attrs)):
        chosen = [attrs[j] for j in range(len(attrs)) if mask >> j & 1]
        joint = system.partition_key(chosen)
        for i in range(count):
            for j in range(count):
                related = all(singles[a][i] == singles[a][j] for a in chosen)
                assert (joint[i] == joint[j]) == related


# ---------------------------------------------------------------------------
# attribute quotient


def test_quotient_golden(weather_system):
    assert weather_system.attribute_quotient() == (
        frozenset({"outlook", "humidity"}),
        frozenset({"temperature"}),
    )


def test_quotient_all_distinct():
    system = InformationSystem(
        ("x1", "x2", "x3"),
        ("a", "b"),
        (("1", "1"), ("1", "2"), ("2", "2")),
    )
    assert system.attribute_quotient() == (frozenset({"a"}), frozenset({"b"}))


def test_quotient_groups_duplicated_columns():
    system = InformationSystem(
        ("x1", "x2", "x3"),
        ("a", "b", "c"),
        (("lo", "lo", "x"), ("hi", "hi", "x"), ("hi", "hi", "y")),
    )
    assert system.attribute_quotient() == (
        frozenset({"a", "b"}),
        frozenset({"c"}),
    )


# ---------------------------------------------------------------------------
# quotient saturation


def test_saturation_golden(weather_system):
    assert weather_system.quotient_saturation(["outlook"]) == frozenset(
        {"outlook", "humidity"}
    )
    assert weather_system.quotient_saturation([]) == frozenset()
    assert weather_system.quotient_saturation(["outlook", "temperature"]) == frozenset(
        {"outlook", "temperature", "humidity"}
    )


def test_saturation_unknown_attribute(weather_system):
    with pytest.raises(UnknownAttributeError):
        weather_system.quotient_saturation(["wind"])


@given(information_systems())
@settings(max_examples=100, deadline=None)
def test_saturation_is_a_closure_operator(system):
    attrs = system.attributes
    subsets = [frozenset(attrs[i] for i in range(len(attrs)) if mask >> i & 1)
               for mask in range(1 << len(attrs))]
    for x in subsets:
        sat = system.quotient_saturation(x)
        assert x <= sat
        assert system.quotient_saturation(sat) == sat
        for y in subsets:
            if x <= y:
                assert sat <= system.quotient_saturation(y)


# ---------------------------------------------------------------------------
# the saturation condition


def test_condition_golden(weather_system):
    assert weather_system.check_saturation_condition()


def test_condition_single_attribute():
    system = InformationSystem(("x1", "x2"), ("a",), (("1",), ("2",)))
    assert system.check_saturation_condition()


def test_condition_counterexample_fails():
    assert not CONDITION_COUNTEREXAMPLE.check_saturation_condition()


def test_condition_counterexample_found_by_scan():
    violators = []
    for system in all_binary_tables():
        holds = system.check_saturation_condition()
        assert holds == oracles.saturation_condition_by_scan(system)
        if not holds:
            violators.append(system)
    assert violators
    assert any(
        s.rows == CONDITION_COUNTEREXAMPLE.rows for s in violators
    )


def test_condition_check_needs_no_attribute_cap():
    # k + 1 partition keys decide it, so a wide table is cheap to check
    m = 64
    rows = tuple(tuple(str(i >> j & 1) for j in range(m)) for i in range(4))
    system = InformationSystem(("x1", "x2", "x3", "x4"), tuple(f"a{j}" for j in range(m)), rows)
    assert len(system.quotient_masks) == 3  # two bit columns and the constant ones
    assert not system.check_saturation_condition()
    with pytest.raises(TypeError):
        system.check_saturation_condition(max_attributes=2)


def test_condition_fails_on_constant_column():
    # the constant column induces the partition of the empty set
    system = InformationSystem(
        ("x1", "x2", "x3"),
        ("a", "k", "b"),
        (("1", "c", "p"), ("2", "c", "p"), ("2", "c", "q")),
    )
    assert not system.check_saturation_condition()
    assert not oracles.saturation_condition_by_scan(system)


def test_condition_fails_on_one_constant_block():
    # one quotient block of constant columns: dropping its representative
    # leaves the empty set, whose single class matches the block's own
    system = InformationSystem(("x1", "x2"), ("a", "b"), (("1", "p"), ("1", "p")))
    assert system.quotient_masks == (0b11,)
    assert not system.check_saturation_condition()
    assert not oracles.saturation_condition_by_scan(system)
    assert system.discernibility_reducts() == system.brute_force_reducts() == (frozenset(),)
    # one block that separates the objects keeps the condition
    split = InformationSystem(("x1", "x2"), ("a", "b"), (("1", "p"), ("2", "q")))
    assert split.check_saturation_condition()
    assert oracles.saturation_condition_by_scan(split)


@given(information_systems(max_objects=6, max_attributes=5, max_copies=3))
@settings(max_examples=200, deadline=None)
def test_condition_matches_power_set_scan(system):
    assert system.check_saturation_condition() == oracles.saturation_condition_by_scan(
        system
    )


# ---------------------------------------------------------------------------
# reducts


def test_reducts_via_quotient_golden(weather_system):
    assert weather_system.reducts_via_quotient() == (
        frozenset({"outlook", "temperature"}),
        frozenset({"temperature", "humidity"}),
    )


def test_reducts_count_is_product_of_block_sizes(weather_system):
    blocks = weather_system.attribute_quotient()
    product = 1
    for block in blocks:
        product *= len(block)
    assert len(weather_system.reducts_via_quotient()) == product == 2


def test_reducts_all_blocks_singleton():
    system = InformationSystem(
        ("x1", "x2", "x3", "x4"),
        ("p", "q"),
        (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
    )
    assert system.reducts_via_quotient() == (frozenset({"p", "q"}),)


def test_reducts_via_quotient_requires_condition():
    with pytest.raises(ConditionNotSatisfiedError, match="discernibility_reducts"):
        CONDITION_COUNTEREXAMPLE.reducts_via_quotient()


def test_quotient_rule_leaves_the_check_to_callers():
    # one attribute per block is {a, b, c}, which is no reduct here
    mask_of = CONDITION_COUNTEREXAMPLE.attribute_ground.mask_of
    assert CONDITION_COUNTEREXAMPLE.quotient_reduct_masks() == [mask_of("abc")]
    assert CONDITION_COUNTEREXAMPLE.discernibility_reduct_masks() == [
        mask_of("ab"), mask_of("ac"), mask_of("bc")
    ]


@pytest.mark.parametrize(
    "method, message",
    [
        ("quotient_reduct_masks", "quotient rule"),
        ("reducts_via_quotient", "quotient rule"),
        ("discernibility_reduct_masks", "discernibility reduct search"),
        ("brute_force_reducts", "brute-force reduct scan"),
    ],
)
def test_capacity_messages(method, message):
    # the guard comes before the saturation check, which fails on this table
    with pytest.raises(CapacityError) as caught:
        getattr(CONDITION_COUNTEREXAMPLE, method)(max_attributes=2)
    assert str(caught.value) == f"{message} capped at 2 attributes, got 3"


def test_brute_force_golden(weather_system):
    assert weather_system.brute_force_reducts() == (
        frozenset({"outlook", "temperature"}),
        frozenset({"temperature", "humidity"}),
    )


def test_brute_force_counterexample():
    assert CONDITION_COUNTEREXAMPLE.brute_force_reducts() == (
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
    )


def test_brute_force_single_attribute():
    system = InformationSystem(("x1", "x2"), ("a",), (("1",), ("2",)))
    assert system.brute_force_reducts() == (frozenset({"a"}),)
    lone = InformationSystem(("x1",), ("a",), (("1",),))
    assert lone.brute_force_reducts() == (frozenset(),)


def test_brute_force_capacity_guard(weather_system):
    with pytest.raises(CapacityError):
        weather_system.brute_force_reducts(max_attributes=2)


def test_discernibility_identical_rows():
    system = InformationSystem(
        ("x1", "x2", "x3"), ("a", "b"), (("1", "2"), ("1", "2"), ("1", "2"))
    )
    assert system.discernibility_reducts() == (frozenset(),)


def test_discernibility_capacity_guard(weather_system):
    with pytest.raises(CapacityError, match="discernibility reduct search capped at 2"):
        weather_system.discernibility_reducts(max_attributes=2)


@given(information_systems(max_objects=7, max_attributes=5, max_values=5, max_copies=3))
@settings(max_examples=200, deadline=None)
def test_discernibility_reducts_match_brute_force(system):
    assert system.discernibility_reducts() == system.brute_force_reducts()


def test_discernibility_gather_matches_brute_force_on_wide_values(monkeypatch):
    # class ids of w bits pack into fields of max(w + 1, m) bits: draw
    # tables where w + 1 > m and tables where m >= w + 1, and tables whose
    # entries are dense enough for the 2**m vector and sparse ones scanned
    widths, routes, fed, vectors = set(), set(), [], []
    search, lacks = infosys.minimal_hitting_masks, infosys.lacks

    def record(targets):
        fed.append(list(targets))
        return search(fed[-1])

    def count(m):
        vectors.append(m)
        return lacks(m)

    monkeypatch.setattr(infosys, "minimal_hitting_masks", record)
    monkeypatch.setattr(infosys, "lacks", count)

    @given(information_systems(max_objects=40, max_attributes=12, max_values=40))
    @settings(max_examples=80, deadline=None)
    def check(system):
        w = max(map(max, system.partition_columns)).bit_length()
        widths.add(w + 1 > len(system.attributes))
        fed.clear()
        vectors.clear()
        assert system.discernibility_reducts() == system.brute_force_reducts()
        routes.add(bool(vectors))
        # only the minimal entries reach the search
        (targets,) = fed
        assert len(set(targets)) == len(targets)
        assert all(a & ~b for a in targets for b in targets if a != b)

    check()
    assert widths == {False, True}
    assert routes == {False, True}


def test_discernibility_stays_polynomial_in_many_attributes(monkeypatch):
    # 40 attributes over 6 rows: a vector of 2**40 bits is never built
    def refuse(m):
        raise AssertionError(f"a vector of 2**{m} bits")

    monkeypatch.setattr(infosys, "lacks", refuse)
    rng = random.Random(40)
    attributes = [f"a{j}" for j in range(40)]
    rows = [[rng.randrange(3) for _ in attributes] for _ in range(6)]
    system = InformationSystem(range(6), attributes, rows)
    entries = [
        system.attribute_ground.mask_of(a for a, x, y in zip(attributes, u, v) if x != y)
        for i, u in enumerate(rows)
        for v in rows[:i]
    ]
    expected = minimal_hitting_masks(entries)
    assert len(expected) > 1
    assert system.discernibility_reduct_masks(max_attributes=40) == expected


@given(information_systems())
@settings(max_examples=150, deadline=None)
def test_brute_force_reducts_are_minimal_consistent(system):
    full_key = system.partition_key(system.attributes)
    reducts = system.brute_force_reducts()
    for reduct in reducts:
        assert system.partition_key(reduct) == full_key
        for attribute in reduct:
            assert system.partition_key(reduct - {attribute}) != full_key
    for a in reducts:
        for b in reducts:
            if a != b:
                assert not a <= b


@given(saturated_systems())
@settings(max_examples=150, deadline=None)
def test_quotient_rule_matches_brute_force_under_condition(system):
    assert system.check_saturation_condition()
    assert oracles.saturation_condition_by_scan(system)
    assert system.reducts_via_quotient() == system.brute_force_reducts()
