"""Ground-truth implementations used only as test oracles.

Everything here is deliberately naive: independence by explicit
distinct-representative search over block permutations, rank and closure by
tabulating those independent sets, flats by closing every subset, Hasse
covers straight from the definition, hitting and spanning sets and the
table saturation condition by power-set scans.  None of it shares an
algorithm with the library paths it checks.
"""

from itertools import permutations

from latmat.infosys import InformationSystem
from latmat.matroid import SetFamily, iter_bits


def independent_masks(family: SetFamily) -> set[int]:
    """All partial transversals, found by trying every block assignment."""
    n = len(family.ground)
    block_masks = family.block_masks
    m = len(block_masks)
    out = set()
    for mask in range(1 << n):
        elems = list(iter_bits(mask))
        k = len(elems)
        if k > m:
            continue
        if k == 0:
            out.add(mask)
            continue
        for combo in permutations(range(m), k):
            if all((block_masks[combo[t]] >> elems[t]) & 1 for t in range(k)):
                out.add(mask)
                break
    return out


def rank_table(family: SetFamily) -> dict[int, int]:
    """Rank of every subset: size of its largest independent subset."""
    independents = independent_masks(family)
    n = len(family.ground)
    table = {}
    for mask in range(1 << n):
        best = 0
        for ind in independents:
            if ind & ~mask == 0 and ind.bit_count() > best:
                best = ind.bit_count()
        table[mask] = best
    return table


def closure_table(family: SetFamily) -> dict[int, int]:
    """Closure of every subset, straight from the rank definition."""
    ranks = rank_table(family)
    n = len(family.ground)
    table = {}
    for mask in range(1 << n):
        closed = mask
        for i in range(n):
            bit = 1 << i
            if not mask & bit and ranks[mask | bit] == ranks[mask]:
                closed |= bit
        table[mask] = closed
    return table


def flat_masks(family: SetFamily) -> set[int]:
    """Fixed points of the closure operator, over all 2**n subsets."""
    return {mask for mask, closed in closure_table(family).items() if mask == closed}


def hyperplane_masks(family: SetFamily) -> set[int]:
    ranks = rank_table(family)
    top = ranks[family.ground.full_mask]
    return {f for f in flat_masks(family) if ranks[f] == top - 1}


def cover_pairs(flats: set[int]) -> set[tuple[int, int]]:
    """Hasse edges by definition: strict inclusion with nothing between."""
    out = set()
    for x in flats:
        for y in flats:
            if x == y or x & ~y != 0:
                continue
            if not any(
                z != x and z != y and x & ~z == 0 and z & ~y == 0 for z in flats
            ):
                out.add((x, y))
    return out


def minimal_hitting_masks(n: int, targets: list[int]) -> set[int]:
    """Inclusion-minimal hitting sets by scanning the whole power set."""
    hitting = [mask for mask in range(1 << n) if all(mask & t for t in targets)]
    return {
        h for h in hitting if not any(g != h and g & ~h == 0 for g in hitting)
    }


def minimal_spanning_masks(family: SetFamily) -> set[int]:
    """Inclusion-minimal subsets of full rank, by power-set scan."""
    ranks = rank_table(family)
    top = ranks[family.ground.full_mask]
    spanning = [mask for mask in range(1 << len(family.ground)) if ranks[mask] == top]
    return {
        s for s in spanning if not any(t != s and t & ~s == 0 for t in spanning)
    }


def saturation_condition_by_scan(system: InformationSystem) -> bool:
    """Equal partitions force equal saturations, over all 2**m attribute subsets."""
    attributes = system.attributes
    seen = {}
    for mask in range(1 << len(attributes)):
        chosen = [attributes[j] for j in iter_bits(mask)]
        saturation = system.quotient_saturation(chosen)
        if seen.setdefault(system.partition_key(chosen), saturation) != saturation:
            return False
    return True
