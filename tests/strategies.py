"""Shared hypothesis strategies for random families, coverings and tables."""

from hypothesis import strategies as st

from latmat import Covering, GroundSet, InformationSystem, SetFamily


@st.composite
def set_families(draw, max_elements: int = 7, max_blocks: int = 5) -> SetFamily:
    n = draw(st.integers(1, max_elements))
    elements = tuple(range(1, n + 1))
    m = draw(st.integers(1, max_blocks))
    blocks = tuple(
        draw(st.frozensets(st.sampled_from(elements), min_size=1)) for _ in range(m)
    )
    return SetFamily(GroundSet(elements), blocks)


@st.composite
def coverings(draw, max_elements: int = 7, max_blocks: int = 5) -> Covering:
    family = draw(set_families(max_elements=max_elements, max_blocks=max_blocks))
    ground = family.ground
    missing = ground.full_mask
    for mask in family.block_masks:
        missing &= ~mask
    if missing == 0:
        return Covering(family)
    blocks = list(family.blocks)
    for element in ground.members(missing):
        k = draw(st.integers(0, len(blocks) - 1))
        blocks[k] = blocks[k] | {element}
    return Covering(SetFamily(ground, tuple(blocks)))


@st.composite
def subsets_of(draw, ground: GroundSet) -> frozenset:
    return draw(st.frozensets(st.sampled_from(ground.elements)))


@st.composite
def family_and_subsets(draw, count: int = 1, **kwargs):
    family = draw(set_families(**kwargs))
    picked = tuple(draw(subsets_of(family.ground)) for _ in range(count))
    return (family, *picked)


@st.composite
def covering_and_subsets(draw, count: int = 1, **kwargs):
    covering = draw(coverings(**kwargs))
    picked = tuple(draw(subsets_of(covering.ground)) for _ in range(count))
    return (covering, *picked)


@st.composite
def information_systems(
    draw,
    max_objects: int = 5,
    max_attributes: int = 5,
    max_values: int = 3,
    max_copies: int = 0,
) -> InformationSystem:
    """Random tables; up to ``max_copies`` extra columns copy drawn ones.

    A copied column sits at a random position under a fresh label, so
    quotient blocks get several, not necessarily adjacent, members.
    """
    n = draw(st.integers(1, max_objects))
    m = draw(st.integers(1, max_attributes))
    objects = tuple(f"x{i}" for i in range(1, n + 1))
    values = tuple(f"v{k}" for k in range(1, max_values + 1))
    rows = [[draw(st.sampled_from(values)) for _ in range(m)] for _ in range(n)]
    for width in range(m, m + draw(st.integers(0, max_copies))):
        source = draw(st.integers(0, width - 1))
        position = draw(st.integers(0, width))
        for row in rows:
            row.insert(position, row[source])
    attributes = tuple(f"a{j}" for j in range(1, len(rows[0]) + 1))
    return InformationSystem(objects, attributes, tuple(map(tuple, rows)))


@st.composite
def saturated_systems(draw) -> InformationSystem:
    """Random tables on which the saturation condition holds by construction.

    Base columns take at least two values each.  For each base column a
    witness row copies a drawn row and changes that column alone, so any
    two distinct sets of base columns separate different pairs of rows.
    Relabelled copies of base columns, inserted at random positions, fill
    the quotient blocks without adding partitions.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    rows = draw(
        st.lists(
            st.tuples(*(st.integers(0, k - 1) for k in sizes)).map(list),
            min_size=1,
            max_size=4,
        )
    )
    for j, k in enumerate(sizes):
        twin = list(rows[draw(st.integers(0, len(rows) - 1))])
        twin[j] = (twin[j] + draw(st.integers(1, k - 1))) % k
        rows.append(twin)
    base = [[row[j] for row in rows] for j in range(len(sizes))]
    columns = [[f"v{v}" for v in column] for column in base]
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(base))
        labels = draw(st.permutations(range(3)))
        columns.insert(draw(st.integers(0, len(columns))), [f"v{labels[v]}" for v in source])
    objects = tuple(f"x{i}" for i in range(1, len(rows) + 1))
    attributes = tuple(f"a{j}" for j in range(1, len(columns) + 1))
    return InformationSystem(objects, attributes, tuple(zip(*columns)))
