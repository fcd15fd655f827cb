"""Transversal matroid core: independence, rank, closure, flats, hyperplanes."""

import pytest
from hypothesis import given, settings

import oracles
from latmat import (
    DegenerateMatroidError,
    GroundSet,
    SetFamily,
    TransversalMatroid,
    UnknownElementError,
    reducts_via_hyperplanes,
    spaces_equal_on,
)
from latmat.matroid import iter_bits
from strategies import family_and_subsets, set_families

# ---------------------------------------------------------------------------
# construction


def test_ground_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        GroundSet((1, 2, 2))


def test_ground_set_rejects_empty():
    with pytest.raises(ValueError):
        GroundSet(())


def test_members_and_label_ground_order():
    ground = GroundSet(("c", "a", 1))
    mask = ground.mask_of({1, "c"})
    assert ground.members(mask) == ("c", 1)
    assert ground.label(mask) == "{c,1}"
    assert ground.members(ground.full_mask) == ("c", "a", 1)
    assert ground.label(ground.full_mask) == "{c,a,1}"
    assert ground.members(0) == ()
    assert ground.label(0) == "{}"


def test_family_rejects_empty_block():
    with pytest.raises(ValueError, match="empty"):
        SetFamily(GroundSet((1, 2)), (frozenset({1}), frozenset()))


def test_family_rejects_foreign_element():
    with pytest.raises(UnknownElementError):
        SetFamily(GroundSet((1, 2)), (frozenset({3}),))


def test_family_allows_duplicate_blocks():
    family = SetFamily(GroundSet((1, 2)), (frozenset({1}), frozenset({1})))
    matroid = TransversalMatroid(family)
    assert matroid.rank({1, 2}) == 1
    assert matroid.closure(()) == frozenset({2})


# ---------------------------------------------------------------------------
# independence


def test_transversal_is_independent(three_block_family):
    matroid = TransversalMatroid(three_block_family)
    assert matroid.is_independent({2, 3, 4})
    assert matroid.is_independent({2, 4})


def test_empty_set_is_independent(three_block_family):
    assert TransversalMatroid(three_block_family).is_independent(())


def test_more_elements_than_blocks_is_dependent(three_block_family):
    assert not TransversalMatroid(three_block_family).is_independent({1, 2, 3, 4})


def test_independent_family_matches_enumeration(three_block_family):
    """All 15 partial transversals of the three-block family, nothing else."""
    matroid = TransversalMatroid(three_block_family)
    expected = {frozenset()} | {
        frozenset(s)
        for s in [
            {1}, {2}, {3}, {4},
            {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
            {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4},
        ]
    }
    ground = three_block_family.ground
    computed = {
        ground.subset_of(mask)
        for mask in range(1 << len(ground))
        if matroid.is_independent(ground.subset_of(mask))
    }
    assert computed == expected


def test_is_independent_unknown_element(three_block_family):
    with pytest.raises(UnknownElementError, match="9"):
        TransversalMatroid(three_block_family).is_independent({9})


# ---------------------------------------------------------------------------
# rank


def test_rank_golden_values(three_block_family):
    matroid = TransversalMatroid(three_block_family)
    assert matroid.rank({3}) == 1
    assert matroid.rank(()) == 0
    assert matroid.rank({1, 2, 3, 4, 5}) == 3


def test_rank_unknown_element(three_block_family):
    with pytest.raises(UnknownElementError):
        TransversalMatroid(three_block_family).rank({0})


# ---------------------------------------------------------------------------
# closure


def test_closure_golden_values(five_point_covering, three_block_family):
    covering_matroid = five_point_covering.matroid
    assert covering_matroid.closure({4}) == frozenset({4, 5})
    assert covering_matroid.closure(()) == frozenset()
    # element 5 lies in no block of the non-covering family
    assert TransversalMatroid(three_block_family).closure(()) == frozenset({5})


def test_closure_unknown_element(three_block_family):
    with pytest.raises(UnknownElementError):
        TransversalMatroid(three_block_family).closure({"nope"})


# ---------------------------------------------------------------------------
# flats and hyperplanes


def test_flats_golden_covering(five_point_covering):
    flats = five_point_covering.matroid.flats()
    expected = tuple(
        frozenset(s)
        for s in [
            (), (1,), (2,), (3,), (4, 5),
            (1, 2), (1, 3), (1, 4, 5), (2, 3), (2, 4, 5), (3, 4, 5),
            (1, 2, 3, 4, 5),
        ]
    )
    assert flats == expected


def test_flats_single_block_singleton():
    family = SetFamily(GroundSet(("a",)), (frozenset({"a"}),))
    assert TransversalMatroid(family).flats() == (frozenset(), frozenset({"a"}))


def test_flats_match_bruteforce(three_block_family):
    matroid = TransversalMatroid(three_block_family)
    assert set(matroid.flat_masks()) == oracles.flat_masks(three_block_family)


def test_hyperplanes_golden(five_point_covering):
    hyperplanes = five_point_covering.matroid.hyperplanes()
    expected = tuple(
        frozenset(s)
        for s in [(1, 2), (1, 3), (1, 4, 5), (2, 3), (2, 4, 5), (3, 4, 5)]
    )
    assert hyperplanes == expected


def test_hyperplanes_rank_one_matroid():
    family = SetFamily(GroundSet(("a", "b")), (frozenset({"a", "b"}),))
    assert TransversalMatroid(family).hyperplanes() == (frozenset(),)


def test_hyperplanes_match_bruteforce(three_block_family):
    matroid = TransversalMatroid(three_block_family)
    assert set(matroid.hyperplane_masks()) == oracles.hyperplane_masks(
        three_block_family
    )


def test_rank_of_long_chain():
    # blocks {i, i+1}: when element i is matched, blocks i..n-2 are free, so
    # the sweep queues n-1-i blocks, first reaches i through block i and the
    # walk takes one step; no free block is left for element n-1.  Neither
    # the sweep nor the walk recurses, so n may pass the recursion limit
    n = 1100
    family = SetFamily(
        GroundSet(tuple(range(n))),
        tuple(frozenset({i, i + 1}) for i in range(n - 1)),
    )
    assert TransversalMatroid(family).ground_rank == n - 1


def test_degenerate_guard_is_unreachable_but_raises():
    family = SetFamily(GroundSet((1,)), (frozenset({1}),))
    matroid = TransversalMatroid(family)
    matroid.ground_rank = 0  # force the defensive branch
    # the reduct routes reach it through hyperplane_masks
    for route in (TransversalMatroid.hyperplane_masks, reducts_via_hyperplanes, spaces_equal_on):
        with pytest.raises(DegenerateMatroidError):
            route(matroid)


# ---------------------------------------------------------------------------
# closure via hyperplanes


def test_closure_via_hyperplanes_golden(five_point_covering):
    matroid = five_point_covering.matroid
    assert matroid.closure_via_hyperplanes({4}) == frozenset({4, 5})
    assert matroid.closure_via_hyperplanes({1, 2, 4}) == frozenset({1, 2, 3, 4, 5})
    assert matroid.closure_via_hyperplanes({3}) == frozenset({3})


# ---------------------------------------------------------------------------
# axioms and oracle agreement on random families


@given(family_and_subsets(count=2))
@settings(max_examples=150, deadline=None)
def test_rank_axioms(case):
    family, x, y = case
    matroid = TransversalMatroid(family)
    rx, ry = matroid.rank(x), matroid.rank(y)
    assert 0 <= rx <= len(x)
    if x <= y:
        assert rx <= ry
    assert matroid.rank(x | y) + matroid.rank(x & y) <= rx + ry


@given(family_and_subsets(count=1, max_elements=6))
@settings(max_examples=100, deadline=None)
def test_closure_axioms(case):
    family, x = case
    matroid = TransversalMatroid(family)
    ground = family.ground
    cx = matroid.closure(x)
    assert x <= cx
    assert matroid.closure(cx) == cx
    for extra in ground.elements:
        assert cx <= matroid.closure(x | {extra})
    # exchange: y in cl(X+x') - cl(X) implies x' in cl(X+y)
    for xe in ground.elements:
        grown = matroid.closure(x | {xe})
        for ye in grown - cx:
            assert xe in matroid.closure(x | {ye})


@given(set_families(max_elements=6))
@settings(max_examples=100, deadline=None)
def test_independence_axioms(family):
    matroid = TransversalMatroid(family)
    ground = family.ground
    independents = [
        mask
        for mask in range(1 << len(ground))
        if matroid.rank_mask(mask) == mask.bit_count()
    ]
    assert 0 in independents  # (I1)
    independent_set = set(independents)
    for mask in independents:  # (I2) via single-element deletion
        for i in range(len(ground)):
            if mask & (1 << i):
                assert (mask ^ (1 << i)) in independent_set
    for small in independents:  # (I3)
        for big in independents:
            if small.bit_count() < big.bit_count():
                assert any(
                    (small | (1 << i)) in independent_set
                    for i in range(len(ground))
                    if big & (1 << i) and not small & (1 << i)
                )


@given(family_and_subsets(count=1))
@settings(max_examples=100, deadline=None)
def test_closure_routes_agree(case):
    family, x = case
    matroid = TransversalMatroid(family)
    assert matroid.closure(x) == matroid.closure_via_hyperplanes(x)


@given(set_families(max_elements=6))
@settings(max_examples=75, deadline=None)
def test_flats_closed_under_intersection_and_contain_ground(family):
    matroid = TransversalMatroid(family)
    masks = set(matroid.flat_masks())
    assert family.ground.full_mask in masks
    assert matroid.closure_mask(0) in masks
    for a in masks:
        for b in masks:
            assert (a & b) in masks


@given(family_and_subsets(count=1))
@settings(max_examples=100, deadline=None)
def test_rank_of_closure_equals_rank(case):
    family, x = case
    matroid = TransversalMatroid(family)
    assert matroid.rank(x) == matroid.rank(matroid.closure(x))


@given(set_families(max_elements=5, max_blocks=4))
@settings(max_examples=60, deadline=None)
def test_rank_closure_flats_match_oracles(family):
    matroid = TransversalMatroid(family)
    ranks = oracles.rank_table(family)
    closures = oracles.closure_table(family)
    for mask in range(1 << len(family.ground)):
        assert matroid.rank_mask(mask) == ranks[mask]
        assert matroid.closure_mask(mask) == closures[mask]
    assert set(matroid.flat_masks()) == oracles.flat_masks(family)


@given(set_families(max_elements=7, max_blocks=6))
@settings(max_examples=100, deadline=None)
def test_matching_is_a_maximum_matching(family):
    matroid = TransversalMatroid(family)
    ranks = oracles.rank_table(family)
    for mask in range(1 << len(family.ground)):
        owner = matroid._matching(mask)
        matched = [(i, b) for b, i in enumerate(owner) if i >= 0]
        for i, b in matched:
            assert mask >> i & 1 and family.block_masks[b] >> i & 1
        assert len({i for i, _ in matched}) == len(matched) == ranks[mask]


# ---------------------------------------------------------------------------
# flat enumeration: work and covers


FAMILIES_TO_COUNT = {
    "five-point-covering": ((1, 2, 3, 4, 5), ({1, 3}, {2, 3}, {3, 4, 5})),
    # elements 5 and 6 lie in no block; block {1, 2} appears twice
    "loops-and-repeated-block": ((1, 2, 3, 4, 5, 6), ({1, 2}, {1, 2}, {2, 3, 4})),
    "free-on-six": (tuple(range(6)), tuple({i} for i in range(6))),
}


@pytest.mark.parametrize(
    "elements, blocks", FAMILIES_TO_COUNT.values(), ids=FAMILIES_TO_COUNT.keys()
)
def test_flat_enumeration_closes_each_flat_once(elements, blocks, monkeypatch):
    family = SetFamily(GroundSet(elements), tuple(map(frozenset, blocks)))
    matroid = TransversalMatroid(family)
    closed = matroid._closed
    calls = []

    def counting(mask, owner):
        calls.append(mask)
        return closed(mask, owner)

    monkeypatch.setattr(matroid, "_closed", counting)
    flats = matroid.flat_masks()
    # one closure for the bottom flat, then one per flat above it
    assert len(calls) == len(flats)


@given(set_families(max_elements=8, max_blocks=6))
@settings(max_examples=100, deadline=None)
def test_flats_and_covers_match_matching_route(family):
    matroid = TransversalMatroid(family)
    rank_of = {
        mask: matroid.rank_mask(mask)
        for mask in range(1 << len(family.ground))
        if matroid.closure_mask(mask) == mask
    }
    flats = matroid.flat_masks()
    assert len(flats) == len(rank_of)
    assert set(flats) == set(rank_of)
    for flat, rank, ups in zip(flats, matroid.flat_ranks(), matroid.flat_covers()):
        assert rank == rank_of[flat]
        expected = {
            g
            for g, r in rank_of.items()
            if r == rank_of[flat] + 1 and flat & ~g == 0
        }
        assert {flats[k] for k in ups} == expected


@given(set_families(max_elements=8, max_blocks=6))
@settings(max_examples=100, deadline=None)
def test_flats_ranks_and_covers_in_order(family):
    matroid = TransversalMatroid(family)
    ranks = matroid.flat_ranks()
    keys = [(r, tuple(iter_bits(m))) for m, r in zip(matroid.flat_masks(), ranks)]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert ranks[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(ranks, ranks[1:]))
    for ups in matroid.flat_covers():
        assert all(a < b for a, b in zip(ups, ups[1:]))
