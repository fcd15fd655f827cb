"""Transversal matroid core: independence, rank, closure, flats, hyperplanes."""

import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latmat import (
    Covering,
    GroundSet,
    SetFamily,
    TransversalMatroid,
    UnknownElementError,
    build_lattice,
    is_covering,
)
from latmat.cli import load_covering_document
from latmat.dependence import closure_space, minimal_hitting_masks, profile_space
from latmat.matroid import joined, pick
from strategies import coverings, family_and_subsets, information_systems, set_families

# ---------------------------------------------------------------------------
# construction


def test_ground_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        GroundSet((1, 2, 2))


@pytest.mark.parametrize(
    "elements, named",
    [(("a", "b", "b", "a"), "'b'"), (("a", "b", "a", "b"), "'a'"), ((1, 2, True), "True")],
)
def test_ground_set_names_the_first_repeat(elements, named):
    # the index is built in one pass; only a short one is scanned for the repeat
    with pytest.raises(ValueError, match=f"^duplicate element {named} in ground set$"):
        GroundSet(elements)
    assert GroundSet(elements[:2])._index == {elements[0]: 0, elements[1]: 1}


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


def test_family_rejects_no_blocks():
    with pytest.raises(ValueError, match="at least one block"):
        SetFamily(GroundSet((1, 2)), ())


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
# canonical order


def by_members(ground):
    """Sort key reading each mask of ``ground`` as its member indices, not its bits."""
    return lambda mask: tuple(map(ground.index_of, ground.members(mask)))


def by_size_and_members(ground):
    members = by_members(ground)
    return lambda mask: (mask.bit_count(), members(mask))


@given(set_families(), coverings(), information_systems(max_copies=3))
@settings(max_examples=100, deadline=None)
def test_canonical_orders_follow_member_indices(family, covering, table):
    """Each canonical list, sorted by a key that holds under any bit numbering.

    The flats of one rank and the atoms are antichains, listed by member
    indices; the other lists go by (size, member indices).
    """
    ground, matroid = family.ground, TransversalMatroid(family)
    flats, ranks = matroid.flat_masks(), matroid.flat_ranks()
    for rank in set(ranks):
        level = [m for m, r in zip(flats, ranks) if r == rank]
        assert level == sorted(level, key=by_members(ground))
    atoms = list(map(covering.ground.mask_of, covering.atoms()))
    assert atoms == sorted(atoms, key=by_members(covering.ground))
    attributes = table.attribute_ground
    lists = [
        (ground, matroid.basis_masks()),
        (ground, minimal_hitting_masks(family.block_masks)),
        (attributes, table.quotient_reduct_masks()),
        (attributes, table.discernibility_reduct_masks()),
        (attributes, list(map(attributes.mask_of, table.brute_force_reducts()))),
    ]
    for owner, masks in lists:
        assert masks == sorted(masks, key=by_size_and_members(owner))


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


def _labelled(table, masks):
    """Each mask's entries of ``table``, joined by :func:`joined`, written ``{a,b}``."""
    return ["{" + run + "}" for run in joined(table, masks, ",")]


def test_masks_outside_the_ground_are_refused():
    lone = TransversalMatroid(SetFamily(GroundSet(("a",)), (frozenset("a"),)))
    with pytest.raises(UnknownElementError, match="bit 1"):
        lone.rank_mask(0b11)
    pair = TransversalMatroid(
        SetFamily(GroundSet(("a", "b")), (frozenset("a"), frozenset("ab")))
    )
    queries = (
        pair.rank_mask,
        pair.closure_mask,
        pair.closure_via_hyperplanes_mask,
        pair.ground.members,
        pair.ground.subset_of,
        pair.ground.label,
        build_lattice(pair)._index,
        closure_space(pair).key_of_mask,
        profile_space(pair.ground, [{"a"}, {"b"}]).key_of_mask,
    )
    # four members reach the 2**1 + 2**1 runs of the half tables for two entries
    long = [pair.ground.full_mask] * 2
    # stray bits between n and 2n, alone or with members, and negative masks:
    # each names its lowest bit outside the ground
    strays = {0b100: 2, 0b1000: 3, 0b1101: 2, 0b1011: 3, -1: 2, -4: 2, -8: 3}
    for mask, bit in strays.items():
        for query in queries:
            with pytest.raises(
                UnknownElementError, match=f"^element 'bit {bit}' is not in the ground set$"
            ):
                query(mask)
        # the table-level walks under GroundSet.members refuse them too
        with pytest.raises(IndexError):
            pick(pair.ground.elements, mask)
        with pytest.raises(IndexError):
            _labelled(pair.ground.texts, [0, mask])
        for masks in ([mask, *long], [*long, mask], [0, *long, mask, 0]):
            with pytest.raises(IndexError):
                _labelled(pair.ground.texts, masks)
            with pytest.raises(IndexError):
                joined(pair.ground.tokens, masks, ",\n      ")
    # in-ground masks still render
    assert pair.ground.label(0b11) == "{a,b}"
    assert _labelled(pair.ground.texts, [0, pair.ground.full_mask]) == ["{}", "{a,b}"]
    assert _labelled(pair.ground.texts, [0, *long, 1, 2]) == ["{}", "{a,b}", "{a,b}", "{b}", "{a}"]


@st.composite
def tables_and_mask_lists(draw):
    """An entry table of 1-40 texts and up to 300 masks over it, empty and full ones included."""
    table = draw(st.lists(st.text("ab,\n ", max_size=3), min_size=1, max_size=40))
    full = (1 << len(table)) - 1
    mask = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    masks = draw(st.lists(mask, max_size=draw(st.sampled_from((8, 300)))))
    return table, masks


def test_joined_routes_match_the_walk(built):
    routes = set()

    @given(tables_and_mask_lists(), st.sampled_from((",", ",\n      ")))
    @settings(max_examples=300, deadline=None)
    def check(case, sep):
        table, masks = case
        built.clear()
        assert joined(table, masks, sep) == [sep.join(pick(table, mask)) for mask in masks]
        # the half tables are built at most once per list, and never past its members
        assert sum(built) <= sum(map(int.bit_count, masks))
        routes.add(bool(built))
        if sep == ",":
            assert _labelled(table, masks) == ["{" + ",".join(pick(table, m)) + "}" for m in masks]

    check()
    assert routes == {False, True}


def test_joined_builds_tables_only_for_lists_with_as_many_members(built):
    # three blocks partitioning 64 entries, like an object partition of a table
    wide = [str(i) for i in range(64)]
    blocks = [(1 << 64) - (1 << 40), (1 << 40) - (1 << 10), (1 << 10) - 1]
    assert _labelled(wide, blocks) == ["{" + ",".join(pick(wide, m)) + "}" for m in blocks]
    assert built == []
    # every 3-subset of 12 entries: 660 members against 2**6 + 2**6 runs
    table = [chr(ord("a") + i) for i in range(12)]
    masks = [m for m in range(1 << 12) if m.bit_count() == 3]
    assert _labelled(table, masks) == ["{" + ",".join(pick(table, m)) + "}" for m in masks]
    assert built == [64, 64]
    # 127 members, one fewer than the runs, walk the list
    built.clear()
    short = [0b111] * 42 + [0b1]
    assert joined(table, short, ",") == [",".join(pick(table, m)) for m in short]
    assert built == []


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
        owner = matroid._matching(mask)[0]
        matched = [(i, b) for b, i in enumerate(owner) if i >= 0]
        for i, b in matched:  # owner indexes the presented blocks
            assert mask >> i & 1 and matroid._blocks[b] >> i & 1
        assert len({i for i, _ in matched}) == len(matched) == ranks[mask]


@given(set_families(max_elements=7, max_blocks=6))
@settings(max_examples=100, deadline=None)
def test_matching_carries_free_blocks_and_matched_elements(family):
    matroid = TransversalMatroid(family)
    for mask in range(1 << len(family.ground)):
        owner, free, matched = matroid._matching(mask)
        assert free == [b for b, i in enumerate(owner) if i < 0]
        assert matched == sum(1 << i for i in owner if i >= 0)


@given(set_families(max_elements=5, max_blocks=8))
@settings(max_examples=60, deadline=None)
def test_presentation_by_matched_blocks(family):
    # up to 8 blocks on up to 5 elements, so many draws repeat blocks or exceed the rank
    matroid = TransversalMatroid(family)
    ground = family.ground
    presented = matroid._blocks
    assert len(presented) == matroid.ground_rank
    # a subsequence of the family's blocks, so a sub-multiset in family order
    rest = iter(family.block_masks)
    assert all(block in rest for block in presented)
    cut = TransversalMatroid(SetFamily(ground, [ground.members(b) for b in presented]))
    ranks = oracles.rank_table(family)
    closures = oracles.closure_table(family)
    for mask in range(1 << len(ground)):
        assert matroid.rank_mask(mask) == cut.rank_mask(mask) == ranks[mask]
        assert matroid.closure_mask(mask) == cut.closure_mask(mask) == closures[mask]
    flats = matroid.flat_masks()
    assert flats == cut.flat_masks()
    assert set(flats) == oracles.flat_masks(family)
    assert matroid.flat_ranks() == cut.flat_ranks() == tuple(ranks[f] for f in flats)
    assert matroid.flat_covers() == cut.flat_covers()
    edges = {(flats[k], flats[up]) for k, ups in enumerate(matroid.flat_covers()) for up in ups}
    assert edges == oracles.cover_pairs(set(flats))
    bases = matroid.basis_masks()
    assert bases == cut.basis_masks()
    assert set(bases) == oracles.minimal_spanning_masks(family)


@given(set_families(max_elements=6, max_blocks=8))
@settings(max_examples=100, deadline=None)
def test_bases_match_hitting_sets_and_oracle(family):
    # up to 8 blocks on up to 6 elements, so some draws repeat blocks or exceed the rank
    matroid = TransversalMatroid(family)
    full = family.ground.full_mask
    bases = matroid.basis_masks()
    assert bases == minimal_hitting_masks(full & ~h for h in matroid.hyperplane_masks())
    assert set(bases) == oracles.minimal_spanning_masks(family)


# ---------------------------------------------------------------------------
# flat enumeration: work and covers


NAMED_FAMILIES = {
    "five-point-covering": ((1, 2, 3, 4, 5), ({1, 3}, {2, 3}, {3, 4, 5})),
    # elements 5 and 6 lie in no block; block {1, 2} appears twice
    "loops-and-repeated-block": ((1, 2, 3, 4, 5, 6), ({1, 2}, {1, 2}, {2, 3, 4})),
    "free-on-six": (tuple(range(6)), tuple({i} for i in range(6))),
}


@pytest.mark.parametrize(
    "elements, blocks", NAMED_FAMILIES.values(), ids=NAMED_FAMILIES.keys()
)
def test_flat_enumeration_runs_no_sweep(elements, blocks, monkeypatch):
    # the flats come from rank vectors over atom sets, so no closure sweep runs
    family = SetFamily(GroundSet(elements), tuple(map(frozenset, blocks)))
    matroid = TransversalMatroid(family)
    ranks = oracles.rank_table(family)
    flats = sorted(oracles.flat_masks(family), key=lambda f: (ranks[f], -f))
    hyperplanes = [f for f in flats if ranks[f] == matroid.ground_rank - 1]

    def refuse(*state):
        raise AssertionError("a closure sweep ran")

    monkeypatch.setattr(matroid, "_closed", refuse)
    assert matroid.hyperplane_masks() == tuple(hyperplanes)
    assert matroid.flat_masks() == tuple(flats)
    assert matroid.flat_ranks() == tuple(ranks[f] for f in flats)


def test_sweeps_queue_at_most_rank_blocks(monkeypatch):
    # data/many-blocks.json: 57 blocks, rank 9; a sweep over the whole family
    # would queue up to 57 of them
    path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "many-blocks.json")
    family = load_covering_document(path)
    matroid = TransversalMatroid(family)
    assert (len(family.block_masks), matroid.ground_rank) == (57, 9)
    closed = matroid._closed
    queued = []

    def recording(*state):
        closure, queue = closed(*state)
        queued.append(len(queue))
        return closure, queue

    monkeypatch.setattr(matroid, "_closed", recording)
    rank_of = dict(zip(matroid.flat_masks(), matroid.flat_ranks()))
    assert len(rank_of) == 512 and not queued  # the flats sweep nothing
    for mask in range(1 << len(family.ground)):  # 12 elements
        assert rank_of[matroid.closure_mask(mask)] == matroid.rank_mask(mask)
    assert len(matroid.basis_masks()) == 4
    assert queued and max(queued) <= matroid.ground_rank


@st.composite
def families_with_loops_and_copies(draw):
    """Families of up to 8 elements in up to 8 blocks, plus up to two copied
    blocks and up to two elements in no block, at random ground positions."""
    family = draw(set_families(max_elements=8, max_blocks=8))
    blocks = family.blocks + tuple(draw(st.lists(st.sampled_from(family.blocks), max_size=2)))
    loops = tuple(range(101, 101 + draw(st.integers(0, 2))))
    elements = draw(st.permutations(family.ground.elements + loops))
    return SetFamily(GroundSet(elements), blocks)


@given(families_with_loops_and_copies())
@settings(max_examples=150, deadline=None)
def test_hyperplanes_and_atoms_slice_the_flats(family):
    fresh = TransversalMatroid(family)
    hyperplanes = fresh.hyperplane_masks()  # before any flat_masks call
    matroid = TransversalMatroid(family)
    flats, ranks = matroid.flat_masks(), matroid.flat_ranks()
    r = matroid.ground_rank
    assert hyperplanes == tuple(f for f, k in zip(flats, ranks) if k == r - 1)
    assert fresh.flat_masks() == flats
    loops = flats[0]
    assert loops == matroid.closure_mask(0)
    atoms = matroid._flat_record[3]
    assert atoms == sorted(f & ~loops for f, k in zip(flats, ranks) if k == 1)
    if is_covering(family):
        assert loops == 0
        assert sorted(map(family.ground.mask_of, Covering(family).atoms())) == atoms


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


@given(set_families(max_elements=6, max_blocks=6))
@settings(max_examples=60, deadline=None)
def test_flat_record_does_not_depend_on_call_order(family):
    # flat_masks keeps the atom sets and flat_covers builds the covers from
    # them on first call; hyperplane_masks reads one rank alone
    flats = oracles.flat_masks(family)
    edges = oracles.cover_pairs(flats)
    first = None
    for order in itertools.permutations(("flat_covers", "flat_masks", "hyperplane_masks")):
        matroid = TransversalMatroid(family)
        got = {name: getattr(matroid, name)() for name in order}
        masks, covers = got["flat_masks"], got["flat_covers"]
        assert len(masks) == len(flats) and set(masks) == flats
        assert {(masks[k], masks[up]) for k, ups in enumerate(covers) for up in ups} == edges
        r = matroid.ground_rank
        hyperplanes = tuple(m for m, k in zip(masks, matroid.flat_ranks()) if k == r - 1)
        assert got["hyperplane_masks"] == hyperplanes
        first = first or got
        assert got == first


@given(set_families(max_elements=8, max_blocks=6))
@settings(max_examples=100, deadline=None)
def test_flats_ranks_and_covers_in_order(family):
    matroid = TransversalMatroid(family)
    ground, ranks = family.ground, matroid.flat_ranks()
    keys = [
        (r, tuple(map(ground.index_of, ground.members(m))))
        for m, r in zip(matroid.flat_masks(), ranks)
    ]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert ranks[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(ranks, ranks[1:]))
    for ups in matroid.flat_covers():
        assert all(a < b for a, b in zip(ups, ups[1:]))


@given(set_families(max_elements=10, max_blocks=4))
@settings(max_examples=60, deadline=None)
def test_cover_lists_name_the_flat_covers(family):
    # up to 10 atoms, so each rank's digit string is read from two half
    # tables of up to 5 digits each; the JSON names and the int positions
    # come from the one cover loop
    matroid = TransversalMatroid(family)
    flats = matroid.flat_masks()
    names = [*map(str, range(len(flats)))]
    covers = matroid.flat_covers()
    assert matroid.cover_lists(names) == [[*map(str, ups)] for ups in covers]
    edges = {(flats[k], flats[up]) for k, ups in enumerate(covers) for up in ups}
    assert edges == oracles.cover_pairs(set(flats))
