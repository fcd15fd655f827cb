import pytest

from latmat import Covering, GroundSet, InformationSystem, SetFamily, matroid


@pytest.fixture
def three_block_family() -> SetFamily:
    """Five elements, three blocks, element 5 uncovered."""
    ground = GroundSet((1, 2, 3, 4, 5))
    return SetFamily(ground, (frozenset({1, 3}), frozenset({2, 3}), frozenset({3, 4})))


@pytest.fixture
def five_point_covering() -> Covering:
    """Five elements fully covered by three overlapping blocks."""
    ground = GroundSet((1, 2, 3, 4, 5))
    return Covering(
        SetFamily(ground, (frozenset({1, 3}), frozenset({2, 3}), frozenset({3, 4, 5})))
    )


@pytest.fixture
def weather_system() -> InformationSystem:
    """Four observations over three categorical attributes."""
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


@pytest.fixture
def built(monkeypatch):
    """The length of each half table that ``joined`` builds, in build order."""
    lengths = []
    real_runs = matroid._runs

    def runs(pieces):
        out = real_runs(pieces)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(matroid, "_runs", runs)
    return lengths
