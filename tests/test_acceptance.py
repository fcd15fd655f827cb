"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Random inputs use fixed seeds so every run checks the
same instances.
"""

import random
import time
from contextlib import contextmanager

import oracles
from latmat import (
    Covering,
    GroundSet,
    InformationSystem,
    SetFamily,
    TransversalMatroid,
    build_lattice,
    check_covering_equivalences,
    complement_family,
    is_covering,
    reducts_via_hyperplanes,
    spaces_equal_on,
)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {text}")
        raise
    print(f"criterion {number:02d}: PASS - {text}")


def three_block_family() -> SetFamily:
    ground = GroundSet((1, 2, 3, 4, 5))
    return SetFamily(ground, (frozenset({1, 3}), frozenset({2, 3}), frozenset({3, 4})))


def five_point_covering() -> Covering:
    ground = GroundSet((1, 2, 3, 4, 5))
    return Covering(
        SetFamily(ground, (frozenset({1, 3}), frozenset({2, 3}), frozenset({3, 4, 5})))
    )


def weather_system() -> InformationSystem:
    return InformationSystem(
        objects=("x1", "x2", "x3", "x4"),
        attributes=("outlook", "temperature", "humidity"),
        rows=(
            ("sunny", "hot", "high"),
            ("rain", "mild", "normal"),
            ("rain", "cool", "normal"),
            ("rain", "hot", "normal"),
        ),
    )


def random_family(rng: random.Random, max_elements=7, max_blocks=5) -> SetFamily:
    n = rng.randint(1, max_elements)
    m = rng.randint(1, max_blocks)
    elements = tuple(range(1, n + 1))
    blocks = tuple(
        frozenset(rng.sample(elements, rng.randint(1, n))) for _ in range(m)
    )
    return SetFamily(GroundSet(elements), blocks)


def random_covering(rng: random.Random, max_elements=7, max_blocks=5) -> Covering:
    family = random_family(rng, max_elements, max_blocks)
    ground = family.ground
    covered = frozenset().union(*family.blocks)
    blocks = list(family.blocks)
    for element in ground.elements:
        if element not in covered:
            k = rng.randrange(len(blocks))
            blocks[k] = blocks[k] | {element}
    return Covering(SetFamily(ground, tuple(blocks)))


def random_system(rng: random.Random, max_objects=5, max_attributes=5, max_values=3):
    n = rng.randint(1, max_objects)
    m = rng.randint(1, max_attributes)
    return InformationSystem(
        objects=tuple(f"x{i}" for i in range(1, n + 1)),
        attributes=tuple(f"a{j}" for j in range(1, m + 1)),
        rows=tuple(
            tuple(f"v{rng.randint(1, max_values)}" for _ in range(m))
            for _ in range(n)
        ),
    )


# ---------------------------------------------------------------------------


def test_criterion_01_independent_sets_golden():
    with criterion(1, "independent-set family of the three-block example"):
        start = time.perf_counter()
        family = three_block_family()
        matroid = TransversalMatroid(family)
        ground = family.ground
        expected = {frozenset()} | {
            frozenset(s)
            for s in [
                {1}, {2}, {3}, {4},
                {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
                {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4},
            ]
        }
        computed = {
            ground.subset_of(mask)
            for mask in range(1 << len(ground))
            if matroid.is_independent(ground.subset_of(mask))
        }
        assert computed == expected
        assert len(computed) == 15
        assert matroid.is_independent({2, 3, 4})
        assert matroid.is_independent({2, 4})
        assert time.perf_counter() - start < 1.0


def test_criterion_02_residues_and_atom_routes_golden():
    with criterion(2, "block residues and atoms by all three routes"):
        covering = five_point_covering()
        split = covering.residue_split()
        assert split.residues == (frozenset({1}), frozenset({2}), frozenset({4, 5}))
        assert split.shared == frozenset({3})
        expected_atoms = {
            frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5}),
        }
        assert set(covering.atoms()) == expected_atoms
        assert set(build_lattice(covering.matroid).atoms()) == expected_atoms
        assert set(covering.singleton_closures.values()) == expected_atoms


def test_criterion_03_flat_lattice_golden():
    with criterion(3, "the twelve flats with heights equal to ranks"):
        covering = five_point_covering()
        matroid = covering.matroid
        expected = tuple(
            frozenset(s)
            for s in [
                (), (1,), (2,), (3,), (4, 5),
                (1, 2), (1, 3), (1, 4, 5), (2, 3), (2, 4, 5), (3, 4, 5),
                (1, 2, 3, 4, 5),
            ]
        )
        assert matroid.flats() == expected
        lattice = build_lattice(matroid)
        assert lattice.flats == expected
        assert lattice.flats[lattice.bottom] == frozenset()
        assert lattice.flats[lattice.top] == frozenset({1, 2, 3, 4, 5})
        for flat, height in zip(lattice.flats, lattice.heights):
            assert height == matroid.rank(flat)


def test_criterion_04_hyperplane_reducts_golden():
    with criterion(4, "coatoms, complements, and the seven reducts"):
        start = time.perf_counter()
        covering = five_point_covering()
        matroid = covering.matroid
        lattice = build_lattice(matroid)
        expected_hyperplanes = {
            frozenset(s)
            for s in [(1, 2), (1, 3), (2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)]
        }
        assert set(lattice.coatoms()) == expected_hyperplanes
        assert set(matroid.hyperplanes()) == expected_hyperplanes
        complements = complement_family(matroid.ground, matroid.hyperplanes())
        assert set(complements) == {
            frozenset(s)
            for s in [(3, 4, 5), (2, 4, 5), (1, 4, 5), (2, 3), (1, 3), (1, 2)]
        }
        reducts = reducts_via_hyperplanes(matroid)
        assert reducts == tuple(
            frozenset(s)
            for s in [
                (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
                (2, 3, 4), (2, 3, 5),
            ]
        )
        assert time.perf_counter() - start < 1.0


def test_criterion_05_information_table_golden():
    with criterion(5, "table partitions, quotient, condition, both reduct routes"):
        system = weather_system()
        assert system.indiscernibility(["outlook"]) == (
            frozenset({"x1"}), frozenset({"x2", "x3", "x4"}),
        )
        assert system.indiscernibility(["temperature"]) == (
            frozenset({"x1", "x4"}), frozenset({"x2"}), frozenset({"x3"}),
        )
        assert system.indiscernibility(["humidity"]) == (
            frozenset({"x1"}), frozenset({"x2", "x3", "x4"}),
        )
        assert system.attribute_quotient() == (
            frozenset({"outlook", "humidity"}), frozenset({"temperature"}),
        )
        assert system.check_saturation_condition()
        expected = (
            frozenset({"outlook", "temperature"}),
            frozenset({"temperature", "humidity"}),
        )
        assert system.reducts_via_quotient() == expected
        assert system.brute_force_reducts() == expected


def test_criterion_06_axiom_sweep():
    with criterion(6, "rank, closure, and independence axioms on 200 random families"):
        start = time.perf_counter()
        rng = random.Random(1006)
        for _ in range(200):
            family = random_family(rng)
            matroid = TransversalMatroid(family)
            n = len(family.ground)
            full = family.ground.full_mask
            rank = {mask: matroid.rank_mask(mask) for mask in range(1 << n)}
            closure = {mask: matroid.closure_mask(mask) for mask in range(1 << n)}

            for mask in range(1 << n):
                # (R1)
                assert 0 <= rank[mask] <= mask.bit_count()
                # (R2) over all subset pairs
                sub = mask
                while True:
                    assert rank[sub] <= rank[mask]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
                # closure (1)
                assert mask & ~closure[mask] == 0
                # closure (3)
                assert closure[closure[mask]] == closure[mask]
                # closure (2) via single-element growth
                for i in range(n):
                    assert closure[mask] & ~closure[mask | (1 << i)] == 0
            # (R3)
            for x in range(1 << n):
                for y in range(1 << n):
                    assert rank[x | y] + rank[x & y] <= rank[x] + rank[y]
            # closure (4): exchange
            for mask in range(1 << n):
                for xi in range(n):
                    grown = closure[mask | (1 << xi)]
                    news = grown & ~closure[mask]
                    for yi in range(n):
                        if news & (1 << yi):
                            assert closure[mask | (1 << yi)] & (1 << xi)
            # (I1)-(I3)
            independent = {m for m in range(1 << n) if rank[m] == m.bit_count()}
            assert 0 in independent
            for mask in independent:
                for i in range(n):
                    if mask & (1 << i):
                        assert (mask ^ (1 << i)) in independent
            for small in independent:
                for big in independent:
                    if small.bit_count() < big.bit_count():
                        assert any(
                            (small | (1 << i)) in independent
                            for i in range(n)
                            if big & (1 << i) and not small & (1 << i)
                        )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_07_covering_equivalences_sweep():
    with criterion(7, "four covering characterizations agree on 200 random families"):
        rng = random.Random(1007)
        for _ in range(200):
            family = random_family(rng)
            report = check_covering_equivalences(TransversalMatroid(family))
            assert report.consistent
            assert report.covering == is_covering(family)


def test_criterion_08_profile_equals_closure_space():
    with criterion(8, "hyperplane-profile and closure partitions coincide, 50 families"):
        rng = random.Random(1008)
        for _ in range(50):
            family = random_family(rng, max_elements=6)
            matroid = TransversalMatroid(family)
            assert spaces_equal_on(matroid)


def test_criterion_09_reduct_oracle_equivalence():
    with criterion(9, "reduct routes agree with their oracles on random inputs"):
        rng = random.Random(1009)
        for _ in range(50):
            family = random_family(rng, max_elements=6)
            matroid = TransversalMatroid(family)
            reducts = reducts_via_hyperplanes(matroid)
            expected = oracles.minimal_spanning_masks(family)
            assert {family.ground.mask_of(r) for r in reducts} == expected

        satisfied = 0
        attempts = 0
        while satisfied < 50:
            attempts += 1
            assert attempts < 5000
            system = random_system(rng)
            if not system.check_saturation_condition():
                continue
            satisfied += 1
            assert set(system.reducts_via_quotient()) == set(
                system.brute_force_reducts()
            )


def test_criterion_10_flat_union_and_closure_routes():
    with criterion(10, "flat unions of classes and both closure routes, 50 coverings"):
        rng = random.Random(1010)
        for _ in range(50):
            covering = random_covering(rng, max_elements=6)
            matroid = covering.matroid
            closures = covering.singleton_closures
            for flat in matroid.flats():
                assert covering.flat_is_union_of_closures(flat)
                union = frozenset()
                for element in flat:
                    union |= closures[element]
                assert union == flat
            n = len(covering.ground)
            for mask in range(1 << n):
                assert matroid.closure_mask(mask) == matroid.closure_via_hyperplanes_mask(mask)
