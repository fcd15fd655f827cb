"""Dependence spaces, hitting sets, and hyperplane-complement reducts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latmat import (
    CapacityError,
    EmptyTargetError,
    GroundSet,
    SetFamily,
    TransversalMatroid,
    UnknownElementError,
    closure_space,
    complement_family,
    minimal_hitting_sets,
    profile_space,
    reducts_via_hyperplanes,
    spaces_equal_on,
)
from latmat.dependence import minimal_hitting_masks
from strategies import set_families, subsets_of

GOLDEN_REDUCTS = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5),
]


# ---------------------------------------------------------------------------
# profile space


def test_profile_space_on_hyperplanes(five_point_covering):
    matroid = five_point_covering.matroid
    space = profile_space(matroid.ground, matroid.hyperplanes())
    assert space.related({4}, {5})
    assert not space.related({3}, {4})


def test_profile_space_empty_collection():
    ground = GroundSet((1, 2, 3))
    space = profile_space(ground, ())
    assert space.related((), {1, 2, 3})
    assert space.related({1}, {2, 3})


def test_profile_space_two_sets_classes():
    ground = GroundSet((1, 2, 3))
    space = profile_space(ground, [{1, 2}, {2, 3}])
    assert space.related({1}, {1, 2})
    assert not space.related({1}, {2})
    classes = {}
    for mask in range(8):
        classes.setdefault(space.key_of_mask(mask), set()).add(
            ground.subset_of(mask)
        )
    expected = {
        frozenset({frozenset(), frozenset({2})}),
        frozenset({frozenset({1}), frozenset({1, 2})}),
        frozenset({frozenset({3}), frozenset({2, 3})}),
        frozenset({frozenset({1, 3}), frozenset({1, 2, 3})}),
    }
    assert {frozenset(v) for v in classes.values()} == expected


def test_profile_space_rejects_foreign_members():
    with pytest.raises(UnknownElementError):
        profile_space(GroundSet((1, 2)), [{1, 7}])


@given(set_families(max_elements=5), st.data())
@settings(max_examples=75, deadline=None)
def test_profile_refinement_is_monotone(family, data):
    """Adding a profile set never merges classes."""
    ground = family.ground
    base_sets = list(family.blocks)
    before = profile_space(ground, base_sets)
    extra = data.draw(subsets_of(ground), label="extra")
    after = profile_space(ground, base_sets + [extra])
    first = data.draw(subsets_of(ground), label="first")
    second = data.draw(subsets_of(ground), label="second")
    if not before.related(first, second):
        assert not after.related(first, second)


# ---------------------------------------------------------------------------
# closure space


def test_closure_space_golden(five_point_covering):
    matroid = five_point_covering.matroid
    space = closure_space(matroid)
    assert space.related({4}, {5})
    assert space.related({1, 2, 4}, {1, 2, 3, 4, 5})
    assert not space.related({1}, {2})


@given(set_families(max_elements=6), st.data())
@settings(max_examples=75, deadline=None)
def test_subset_related_to_its_closure(family, data):
    matroid = TransversalMatroid(family)
    space = closure_space(matroid)
    subset = data.draw(subsets_of(family.ground))
    assert space.related(subset, matroid.closure(subset))


# ---------------------------------------------------------------------------
# space equality


def test_spaces_equal_golden(five_point_covering):
    assert spaces_equal_on(five_point_covering.matroid)


def test_spaces_equal_rank_one():
    family = SetFamily(GroundSet(("a", "b")), (frozenset({"a", "b"}),))
    assert spaces_equal_on(TransversalMatroid(family))


def test_spaces_equal_capacity_guard():
    elements = tuple(range(13))
    family = SetFamily(GroundSet(elements), (frozenset(elements),))
    with pytest.raises(CapacityError, match="12"):
        spaces_equal_on(TransversalMatroid(family))
    assert spaces_equal_on(TransversalMatroid(family), max_elements=13)


def test_spaces_differ_when_closure_is_identity(five_point_covering, monkeypatch):
    # the identity splits {4} from its closure {4, 5}, which share a profile
    matroid = five_point_covering.matroid
    ground = matroid.ground
    assert matroid.closure_mask(ground.mask_of({4})) == ground.mask_of({4, 5})
    monkeypatch.setattr(matroid, "closure_mask", lambda mask: mask)
    assert spaces_equal_on(matroid) is False


@given(set_families(max_elements=6))
@settings(max_examples=60, deadline=None)
def test_spaces_equal_random(family):
    assert spaces_equal_on(TransversalMatroid(family))


# ---------------------------------------------------------------------------
# minimal hitting sets


def members_key(ground):
    """The (size, member indices) order hitting sets of ``ground`` are listed in."""
    return lambda mask: (mask.bit_count(), tuple(map(ground.index_of, ground.members(mask))))


def test_hitting_sets_golden(five_point_covering):
    matroid = five_point_covering.matroid
    ground = matroid.ground
    complements = complement_family(ground, matroid.hyperplanes())
    hitters = minimal_hitting_sets(ground, complements)
    assert hitters == tuple(frozenset(r) for r in GOLDEN_REDUCTS)


def test_hitting_sets_forced_singleton():
    ground = GroundSet(("a", "b"))
    assert minimal_hitting_sets(ground, [{"a"}]) == (frozenset({"a"}),)


def test_hitting_sets_small_derived():
    ground = GroundSet((1, 2, 3))
    assert minimal_hitting_sets(ground, [{1, 2}, {2, 3}]) == (
        frozenset({2}),
        frozenset({1, 3}),
    )


def test_hitting_sets_no_targets():
    assert minimal_hitting_sets(GroundSet((1,)), ()) == (frozenset(),)


def test_hitting_sets_empty_target_rejected():
    with pytest.raises(EmptyTargetError):
        minimal_hitting_sets(GroundSet((1, 2)), [{1}, set()])


def test_hitting_sets_drop_branching_stray():
    """Growing the hitters here yields supersets of kept ones, such as
    {0, 3, 4} or {0, 2, 3} beside {0, 3}; the one-bit rule drops them."""
    ground = GroundSet(tuple(range(7)))
    targets = [{0, 1, 2, 3, 4}, {0, 4, 6}, {3}, {0, 2, 6}]
    assert minimal_hitting_sets(ground, targets) == (
        frozenset({0, 3}),
        frozenset({3, 6}),
        frozenset({2, 3, 4}),
    )


def test_hitting_sets_deeper_than_recursion_limit():
    """One singleton target per element: the one hitter grows 1,100 times, a bit each."""
    ground = GroundSet(tuple(range(1100)))
    targets = [{i} for i in range(1100)]
    assert minimal_hitting_sets(ground, targets) == (frozenset(range(1100)),)


def test_hitting_sets_drop_a_hitter_holding_a_kept_one():
    """{1, 2} meets the last target in 2 alone, and its rest {1} lies inside
    {1, 3}, which misses that target: {1, 2, 3} is dropped, {2, 3, 5} too."""
    ground = GroundSet(tuple(range(6)))
    targets = [{1, 5}, {2, 3}, {0, 2, 4}]
    assert minimal_hitting_sets(ground, targets) == tuple(map(frozenset, (
        {1, 2}, {2, 5}, {0, 1, 3}, {0, 3, 5}, {1, 3, 4}, {3, 4, 5},
    )))


def test_hitting_sets_keep_a_hitter_beside_a_two_bit_kept_one():
    """{2, 3} meets the last target in two bits, so growing {1}, which misses
    it, by 2 or 3 gives {1, 2} and {1, 3}: they hold no kept hitter and stay."""
    ground = GroundSet(tuple(range(4)))
    targets = [{1, 2}, {1, 3}, {0, 2, 3}]
    assert minimal_hitting_sets(ground, targets) == tuple(map(frozenset, (
        {0, 1}, {1, 2}, {1, 3}, {2, 3},
    )))


@st.composite
def target_lists(draw):
    """Width and up to 12 nonempty targets, with copies and supersets of some."""
    width = draw(st.integers(1, 8))
    masks = st.integers(1, (1 << width) - 1)
    targets = draw(st.lists(masks, max_size=8))
    if targets:
        extra = st.tuples(st.sampled_from(targets), st.integers(0, (1 << width) - 1))
        # an extra of 0 copies its target, any other grows it into a superset
        targets += [t | more for t, more in draw(st.lists(extra, max_size=4))]
    return width, targets


@given(target_lists(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_many_hitting_targets_match_scan(drawn, rng):
    width, targets = drawn
    masks = minimal_hitting_masks(targets)
    expected = oracles.minimal_hitting_masks(width, targets)
    assert masks == sorted(expected, key=members_key(GroundSet(range(width))))
    rng.shuffle(targets)
    assert minimal_hitting_masks(targets) == masks


@given(set_families(max_elements=6, max_blocks=5))
@settings(max_examples=100, deadline=None)
def test_hitting_sets_match_scan(family):
    """The blocks of a random family double as random nonempty targets."""
    ground = family.ground
    hitters = minimal_hitting_sets(ground, family.blocks)
    expected = oracles.minimal_hitting_masks(len(ground), list(family.block_masks))
    assert [ground.mask_of(h) for h in hitters] == sorted(expected, key=members_key(ground))


@given(st.integers(5, 24).flatmap(
    lambda width: st.lists(st.integers(1, (1 << width) - 1), min_size=1, max_size=6)
))
@settings(max_examples=100, deadline=None)
def test_hitting_set_sort_key_keeps_member_order(targets):
    """Wide targets: the stable size pass keeps each size in member order."""
    masks = minimal_hitting_masks(targets)
    # any ground wide enough for the targets orders their members alike
    ground = GroundSet(range(max(targets).bit_length()))
    assert masks == sorted(masks, key=members_key(ground))


@given(set_families(max_elements=6, max_blocks=5))
@settings(max_examples=100, deadline=None)
def test_hitting_sets_form_antichain(family):
    hitters = minimal_hitting_sets(family.ground, family.blocks)
    for a in hitters:
        for b in hitters:
            if a != b:
                assert not a <= b


# ---------------------------------------------------------------------------
# reducts via hyperplane complements


def test_reducts_golden(five_point_covering):
    reducts = reducts_via_hyperplanes(five_point_covering.matroid)
    assert reducts == tuple(frozenset(r) for r in GOLDEN_REDUCTS)


def test_reducts_partition_needs_everything():
    family = SetFamily(GroundSet((1, 2)), (frozenset({1}), frozenset({2})))
    matroid = TransversalMatroid(family)
    assert matroid.hyperplanes() == (frozenset({1}), frozenset({2}))
    assert reducts_via_hyperplanes(matroid) == (frozenset({1, 2}),)


def test_complement_family_golden(five_point_covering):
    matroid = five_point_covering.matroid
    complements = complement_family(matroid.ground, matroid.hyperplanes())
    assert complements == tuple(
        frozenset(s)
        for s in [(3, 4, 5), (2, 4, 5), (2, 3), (1, 4, 5), (1, 3), (1, 2)]
    )


@given(set_families(max_elements=6))
@settings(max_examples=75, deadline=None)
def test_reducts_match_minimal_spanning_oracle(family):
    matroid = TransversalMatroid(family)
    reducts = reducts_via_hyperplanes(matroid)
    expected = oracles.minimal_spanning_masks(family)
    assert {family.ground.mask_of(r) for r in reducts} == expected


@given(set_families(max_elements=6))
@settings(max_examples=75, deadline=None)
def test_reducts_span_minimally(family):
    matroid = TransversalMatroid(family)
    full = matroid.ground.full_mask
    for reduct in reducts_via_hyperplanes(matroid):
        assert matroid.closure_mask(matroid.ground.mask_of(reduct)) == full
        for element in reduct:
            smaller = matroid.ground.mask_of(reduct - {element})
            assert matroid.closure_mask(smaller) != full
