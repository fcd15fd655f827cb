"""Lattice of flats: order structure, join/meet, atoms, coatoms, DOT export."""

import pytest
from hypothesis import given, settings

import oracles
from latmat import (
    Covering,
    DegenerateLatticeError,
    GeometricLattice,
    GroundSet,
    NotAFlatError,
    SetFamily,
    TransversalMatroid,
    build_lattice,
)
from strategies import coverings, set_families


def chain_lattice():
    family = SetFamily(GroundSet(("a",)), (frozenset({"a"}),))
    return build_lattice(TransversalMatroid(family))


# ---------------------------------------------------------------------------
# construction


def test_build_golden_covering(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    assert len(lattice.flats) == 12
    assert lattice.flats[lattice.bottom] == frozenset()
    assert lattice.flats[lattice.top] == frozenset({1, 2, 3, 4, 5})
    assert len(lattice.atoms()) == 4
    assert len(lattice.coatoms()) == 6
    assert sum(len(ups) for ups in lattice.covers) == 22
    matroid = five_point_covering.matroid
    for flat, height in zip(lattice.flats, lattice.heights):
        assert height == matroid.rank(flat)


def test_build_chain():
    lattice = chain_lattice()
    assert lattice.flats == (frozenset(), frozenset({"a"}))
    assert lattice.heights == (0, 1)
    assert lattice.covers == ((1,), ())


@given(set_families(max_elements=5, max_blocks=4))
@settings(max_examples=60, deadline=None)
def test_build_matches_bruteforce_poset(family):
    lattice = build_lattice(TransversalMatroid(family))
    oracle_flats = oracles.flat_masks(family)
    oracle_covers = oracles.cover_pairs(oracle_flats)
    ranks = oracles.rank_table(family)
    ground = family.ground
    masks = [ground.mask_of(flat) for flat in lattice.flats]
    built_covers = {(masks[i], masks[j]) for i, ups in enumerate(lattice.covers) for j in ups}
    assert set(masks) == oracle_flats
    assert len(masks) == len(oracle_flats)
    assert built_covers == oracle_covers
    assert list(lattice.heights) == [ranks[m] for m in masks]


# ---------------------------------------------------------------------------
# meet and join


def test_meet_golden(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    assert lattice.meet({1, 3}, {2, 3}) == frozenset({3})
    assert lattice.meet({1, 4, 5}, {2, 3}) == frozenset()
    for flat in lattice.flats:
        assert lattice.meet(flat, flat) == flat


def test_join_golden(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    assert lattice.join({1}, {4, 5}) == frozenset({1, 4, 5})
    assert lattice.join({1, 2}, {3}) == frozenset({1, 2, 3, 4, 5})
    bottom = lattice.flats[lattice.bottom]
    for flat in lattice.flats:
        assert lattice.join(flat, bottom) == flat


def test_join_equals_matroid_closure_of_union(five_point_covering):
    matroid = five_point_covering.matroid
    lattice = build_lattice(matroid)
    for x in lattice.flats:
        for y in lattice.flats:
            assert lattice.join(x, y) == matroid.closure(x | y)


def test_meet_join_reject_non_flats(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    with pytest.raises(NotAFlatError):
        lattice.meet({4}, {1})
    with pytest.raises(NotAFlatError):
        lattice.join({1}, {5})


def test_join_commutative_associative_monotone(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    flats = lattice.flats
    for x in flats:
        for y in flats:
            assert lattice.join(x, y) == lattice.join(y, x)
            if x <= y:
                for z in flats:
                    assert lattice.join(x, z) <= lattice.join(y, z)
    for x in flats[:6]:
        for y in flats[:6]:
            for z in flats[:6]:
                assert lattice.join(lattice.join(x, y), z) == lattice.join(
                    x, lattice.join(y, z)
                )


# ---------------------------------------------------------------------------
# atoms and coatoms


def test_atoms_golden(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    assert lattice.atoms() == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4, 5}),
    )


def test_atoms_chain():
    assert chain_lattice().atoms() == (frozenset({"a"}),)


def test_coatoms_golden(five_point_covering):
    lattice = build_lattice(five_point_covering.matroid)
    assert lattice.coatoms() == tuple(
        frozenset(s)
        for s in [(1, 2), (1, 3), (1, 4, 5), (2, 3), (2, 4, 5), (3, 4, 5)]
    )


def test_coatoms_chain():
    assert chain_lattice().coatoms() == (frozenset(),)


def test_coatoms_degenerate_lattice():
    from latmat.lattice import GeometricLattice

    lattice = GeometricLattice(
        ground=GroundSet((1,)),
        masks=(1,),
        heights=(0,),
        covers=((),),
    )
    with pytest.raises(DegenerateLatticeError):
        lattice.coatoms()


@given(set_families(max_elements=6))
@settings(max_examples=75, deadline=None)
def test_coatoms_equal_hyperplanes(family):
    matroid = TransversalMatroid(family)
    lattice = build_lattice(matroid)
    assert set(lattice.coatoms()) == set(matroid.hyperplanes())


@given(set_families(max_elements=6))
@settings(max_examples=75, deadline=None)
def test_heights_equal_ranks(family):
    matroid = TransversalMatroid(family)
    lattice = build_lattice(matroid)
    for flat, height in zip(lattice.flats, lattice.heights):
        assert height == matroid.rank(flat)


@given(coverings(max_elements=6))
@settings(max_examples=50, deadline=None)
def test_atoms_equal_singleton_closure_image_on_coverings(covering):
    lattice = build_lattice(covering.matroid)
    assert set(lattice.atoms()) == set(covering.singleton_closures.values())


# ---------------------------------------------------------------------------
# geometricity


def test_verify_geometric_golden(five_point_covering):
    report = build_lattice(five_point_covering.matroid).verify_geometric()
    assert report.passed
    assert report.atomicity_failure is None
    assert report.semimodularity_failure is None


def test_verify_geometric_chain():
    assert chain_lattice().verify_geometric().passed


def test_verify_geometric_reports_non_atomic_chain():
    # the chain {} < {1} < {1,2} has one atom, which does not join to the top
    lattice = GeometricLattice(
        ground=GroundSet((1, 2)),
        masks=(0b00, 0b01, 0b11),
        heights=(0, 1, 2),
        covers=((1,), (2,), ()),
    )
    report = lattice.verify_geometric()
    assert not report.passed
    assert (report.atomic, report.atomicity_failure) == (False, frozenset({1, 2}))
    assert (report.semimodular, report.semimodularity_failure) == (True, None)


def test_verify_geometric_reports_non_semimodular_pair():
    # two disjoint lines under a height-3 top: {1} v {3} skips height 2
    lattice = GeometricLattice(
        ground=GroundSet((1, 2, 3, 4)),
        masks=(0b0000, 0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100, 0b1111),
        heights=(0, 1, 1, 1, 1, 2, 2, 3),
        covers=((1, 2, 3, 4), (5,), (5,), (6,), (6,), (7,), (7,), ()),
    )
    report = lattice.verify_geometric()
    assert not report.passed
    assert (report.atomic, report.atomicity_failure) == (True, None)
    assert report.semimodular is False
    assert report.semimodularity_failure == (frozenset({1}), frozenset({3}))


@given(set_families(max_elements=6))
@settings(max_examples=50, deadline=None)
def test_verify_geometric_random(family):
    lattice = build_lattice(TransversalMatroid(family))
    assert lattice.verify_geometric().passed


# ---------------------------------------------------------------------------
# DOT export


def test_to_dot_chain_exact():
    expected = (
        "digraph flats {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  n0 [label="{}"];\n'
        '  n1 [label="{a}"];\n'
        "  { rank=same; n0; }\n"
        "  { rank=same; n1; }\n"
        "  n0 -> n1;\n"
        "}\n"
    )
    assert chain_lattice().to_dot() == expected


def test_to_dot_counts_golden(five_point_covering):
    dot = build_lattice(five_point_covering.matroid).to_dot()
    assert dot.count("[label=") == 12
    assert dot.count("->") == 22


def test_to_dot_partition_row_labels():
    ground = GroundSet((1, 2, 3))
    covering = Covering(SetFamily(ground, (frozenset({1, 2}), frozenset({3}))))
    lattice = build_lattice(covering.matroid)
    dot = lattice.to_dot()
    height_one = [
        f"n{i}" for i, h in enumerate(lattice.heights) if h == 1
    ]
    assert "  { rank=same; " + "; ".join(height_one) + "; }" in dot
    labels = {
        lattice.flats[i] for i, h in enumerate(lattice.heights) if h == 1
    }
    assert labels == {frozenset({1, 2}), frozenset({3})}
    assert '[label="{1,2}"]' in dot
    assert '[label="{3}"]' in dot


def test_to_dot_deterministic(five_point_covering):
    first = build_lattice(five_point_covering.matroid).to_dot()
    family = SetFamily(
        GroundSet((1, 2, 3, 4, 5)),
        (frozenset({1, 3}), frozenset({2, 3}), frozenset({3, 4, 5})),
    )
    second = build_lattice(TransversalMatroid(family)).to_dot()
    assert first == second
