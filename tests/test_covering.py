"""Covering analysis: residues, atoms, approximations, equivalence checks."""

import pytest
from hypothesis import given, settings

from latmat import (
    Covering,
    GroundSet,
    NotACoveringError,
    NotAFlatError,
    SetFamily,
    TransversalMatroid,
    UnknownElementError,
    check_covering_equivalences,
    is_covering,
)
from strategies import covering_and_subsets, coverings, set_families


def partition_covering():
    ground = GroundSet((1, 2, 3))
    return Covering(SetFamily(ground, (frozenset({1}), frozenset({2, 3}))))


def triangle_covering():
    ground = GroundSet((1, 2, 3))
    return Covering(
        SetFamily(ground, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})))
    )


# ---------------------------------------------------------------------------
# covering recognition


def test_is_covering(five_point_covering, three_block_family):
    assert is_covering(five_point_covering.family)
    assert not is_covering(three_block_family)
    assert is_covering(partition_covering().family)


def test_covering_rejects_non_covering(three_block_family):
    with pytest.raises(NotACoveringError):
        Covering(three_block_family)


# ---------------------------------------------------------------------------
# residue split


def test_residue_split_golden(five_point_covering):
    split = five_point_covering.residue_split()
    assert split.residues == (frozenset({1}), frozenset({2}), frozenset({4, 5}))
    assert split.shared == frozenset({3})


def test_residue_split_partition():
    covering = partition_covering()
    split = covering.residue_split()
    assert split.residues == covering.family.blocks
    assert split.shared == frozenset()


def test_residue_split_all_shared():
    split = triangle_covering().residue_split()
    assert split.residues == ()
    assert split.shared == frozenset({1, 2, 3})


def test_residue_split_dedupes_duplicate_blocks():
    ground = GroundSet((1, 2))
    covering = Covering(
        SetFamily(ground, (frozenset({1, 2}), frozenset({1, 2}), frozenset({2})))
    )
    split = covering.residue_split()
    # every element lies in at least two blocks, so all residues vanish
    assert split.residues == ()
    assert split.shared == frozenset({1, 2})


# ---------------------------------------------------------------------------
# atoms by all three routes


def test_atoms_golden_three_routes(five_point_covering):
    from latmat import build_lattice

    direct = five_point_covering.atoms()
    expected = (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5}))
    assert direct == expected
    lattice = build_lattice(five_point_covering.matroid)
    assert set(lattice.atoms()) == set(expected)
    assert set(five_point_covering.singleton_closures.values()) == set(expected)


def test_atoms_partition_covering():
    covering = partition_covering()
    assert set(covering.atoms()) == set(covering.family.blocks)


def test_atoms_triangle_covering():
    assert triangle_covering().atoms() == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )


@given(coverings(max_elements=7))
@settings(max_examples=75, deadline=None)
def test_atoms_routes_agree(covering):
    from latmat import build_lattice

    direct = covering.atoms()
    # both in member order, as are the flats of each rank
    assert direct == build_lattice(covering.matroid).atoms()
    assert set(direct) == set(covering.singleton_closures.values())


@given(coverings(max_elements=7))
@settings(max_examples=75, deadline=None)
def test_residue_split_partitions_ground(covering):
    split = covering.residue_split()
    pieces = list(split.residues) + [split.shared]
    union = set()
    for piece in pieces:
        assert not (union & piece)
        union |= piece
    assert union == set(covering.ground.elements)


# ---------------------------------------------------------------------------
# singleton closures


def test_singleton_closures_golden(five_point_covering):
    closures = five_point_covering.singleton_closures
    assert closures[1] == frozenset({1})
    assert closures[2] == frozenset({2})
    assert closures[3] == frozenset({3})
    assert closures[4] == frozenset({4, 5})
    assert closures[5] == frozenset({4, 5})


def test_singleton_closures_partition_covering():
    covering = partition_covering()
    for element, closure in covering.singleton_closures.items():
        assert closure == next(b for b in covering.family.blocks if element in b)


def test_non_covering_closures_not_a_partition(three_block_family):
    report = check_covering_equivalences(TransversalMatroid(three_block_family))
    assert not report.closures_partition


@given(coverings(max_elements=7))
@settings(max_examples=75, deadline=None)
def test_singleton_closure_relation_is_equivalence(covering):
    closures = covering.singleton_closures
    elements = covering.ground.elements
    for x in elements:
        assert x in closures[x]
        for y in elements:
            assert (y in closures[x]) == (x in closures[y])
            if y in closures[x]:
                assert closures[x] == closures[y]


# ---------------------------------------------------------------------------
# approximation operators


def test_lower_approx_golden(five_point_covering):
    assert five_point_covering.lower_approx({1, 4, 5}) == frozenset({1, 4, 5})
    assert five_point_covering.lower_approx(()) == frozenset()
    assert five_point_covering.lower_approx({4}) == frozenset()


def test_upper_approx_golden(five_point_covering):
    assert five_point_covering.upper_approx({2, 4, 5}) == frozenset({2, 4, 5})
    ground = frozenset({1, 2, 3, 4, 5})
    assert five_point_covering.upper_approx(ground) == ground
    assert five_point_covering.upper_approx({4}) == frozenset({4, 5})


def test_approx_unknown_element(five_point_covering):
    with pytest.raises(UnknownElementError):
        five_point_covering.lower_approx({6})
    with pytest.raises(UnknownElementError):
        five_point_covering.upper_approx({6})


def test_flats_are_fixed_points(five_point_covering):
    for flat in five_point_covering.matroid.flats():
        assert five_point_covering.lower_approx(flat) == flat
        assert five_point_covering.upper_approx(flat) == flat


@given(covering_and_subsets(count=1))
@settings(max_examples=100, deadline=None)
def test_approx_bounds_and_fixed_points(case):
    covering, subset = case
    lower = covering.lower_approx(subset)
    upper = covering.upper_approx(subset)
    assert lower <= subset <= upper
    if lower == subset:
        assert upper == subset
    # identity exactly on unions of atoms
    atom_union = frozenset()
    for atom in covering.atoms():
        if atom <= subset:
            atom_union |= atom
    assert lower == atom_union


# ---------------------------------------------------------------------------
# the four equivalent characterizations


def test_equivalences_covering(five_point_covering):
    report = check_covering_equivalences(five_point_covering.matroid)
    assert report.statements == (True, True, True, True)
    assert report.consistent


def test_equivalences_partition():
    report = check_covering_equivalences(partition_covering().matroid)
    assert report.statements == (True, True, True, True)


def test_equivalences_non_covering(three_block_family):
    report = check_covering_equivalences(TransversalMatroid(three_block_family))
    assert report.statements == (False, False, False, False)
    assert report.consistent


@given(set_families(max_elements=7))
@settings(max_examples=150, deadline=None)
def test_equivalences_always_agree(family):
    report = check_covering_equivalences(TransversalMatroid(family))
    assert report.consistent
    assert report.covering == is_covering(family)


# ---------------------------------------------------------------------------
# flats as unions of singleton closures


def test_flat_union_golden(five_point_covering):
    assert five_point_covering.flat_is_union_of_closures({1, 4, 5})
    assert five_point_covering.flat_is_union_of_closures(())


def test_flat_union_rejects_non_flat(five_point_covering):
    with pytest.raises(NotAFlatError):
        five_point_covering.flat_is_union_of_closures({4})


@given(coverings(max_elements=7))
@settings(max_examples=75, deadline=None)
def test_every_flat_is_union_of_closures(covering):
    closures = covering.singleton_closures
    for flat in covering.matroid.flats():
        assert covering.flat_is_union_of_closures(flat)
        union = frozenset()
        for element in flat:
            union |= closures[element]
        assert union == flat
