"""Spans and counters around the latmat functions the CLI calls.

Nothing inside ``latmat`` is edited: while a ``Tracer`` is installed, the
public functions and methods the CLI reaches are replaced by wrappers that
record a span (name, start, end, parent, command) or bump a counter, and
``uninstall`` puts the originals back.  Closure and rank queries are counted,
not spanned, because there are tens of thousands of them per command.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> per-layer metric receiving the span's self time
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "cli.parse": "cli.parse_s",
    "matroid.init": "matroid.init_s",
    "matroid.flats": "matroid.flats_s",
    "matroid.hyperplanes": "matroid.hyperplanes_s",
    "lattice": "lattice.self_s",
    "dependence": "dependence.self_s",
    "infosys.init": "infosys.init_s",
    "infosys.saturation": "infosys.saturation_s",
    "infosys.quotient_reducts": "infosys.quotient_reducts_s",
    "infosys.brute_reducts": "infosys.brute_reducts_s",
    "infosys.partitions": "infosys.partitions_s",
}

# counters that must repeat exactly from batch to batch
DETERMINISTIC_COUNTS = (
    "matroid.flats",
    "matroid.closure_calls",
    "matroid.rank_calls",
    "lattice.cover_edges",
    "lattice.cover_tests",
    "covering.check_runs",
    "dependence.targets",
    "dependence.reducts",
    "infosys.saturation_checks",
    "infosys.attr_subsets",
    "infosys.reducts",
)


class Tracer:
    """In-memory span recorder; one instance per traced batch."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._patches: list[tuple[object, str, object]] = []
        self._flat_owners: dict[int, object] = {}

    # recording ------------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        """Span around ``fn``; ``after(args, result)`` and ``before(args)`` count."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_calls(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def begin_command(self, index: int) -> None:
        self.command = index
        self._flat_owners.clear()

    # patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, original, replacement):
        # the CLI imports functions by name, so rebind every latmat alias
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "latmat" or mod_name.startswith("latmat."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def install(self) -> None:
        from latmat import cli, covering, dependence, infosys, lattice, matroid

        counts = self.counts
        TM = matroid.TransversalMatroid
        GL = lattice.GeometricLattice
        IS = infosys.InformationSystem

        for fn in (cli.load_covering_document, cli.load_table_document):
            self._patch_function(fn, self.wrap("cli.parse", fn))

        # matroid
        self._set(TM, "__init__", self.wrap("matroid.init", TM.__init__))
        self._set(TM, "closure_mask", self.count_calls("matroid.closure_calls", TM.closure_mask))
        self._set(TM, "rank_mask", self.count_calls("matroid.rank_calls", TM.rank_mask))

        def count_flats(args, result):
            # flat_masks caches per instance; count each instance's flats once
            owner = args[0]
            if id(owner) not in self._flat_owners:
                self._flat_owners[id(owner)] = owner
                counts["matroid.flats"] += len(result)

        self._set(TM, "flat_masks", self.wrap("matroid.flats", TM.flat_masks, count_flats))
        for attr in ("hyperplane_masks", "hyperplanes"):
            self._set(TM, attr, self.wrap("matroid.hyperplanes", getattr(TM, attr)))

        # lattice
        def count_covers(args, result):
            counts["lattice.cover_edges"] += sum(len(ups) for ups in result.covers)
            per_height = Counter(result.heights)
            counts["lattice.cover_tests"] += sum(
                per_height[h] * per_height.get(h + 1, 0) for h in per_height
            )

        self._patch_function(lattice.build_lattice, self.wrap("lattice", lattice.build_lattice, count_covers))
        for attr in ("to_dot", "atoms", "coatoms"):
            self._set(GL, attr, self.wrap("lattice", getattr(GL, attr)))

        # covering
        def count_check(args, result):
            counts["covering.check_runs"] += 1

        fn = covering.check_covering_equivalences
        self._patch_function(fn, self.wrap("covering.checks", fn, count_check))

        # dependence
        def materialize_targets(args):
            ground, targets = args
            targets = tuple(targets)
            counts["dependence.targets"] += len(targets)
            return ground, targets

        def count_reducts(counter):
            def after(args, result):
                counts[counter] += len(result)
            return after

        self._patch_function(
            dependence.minimal_hitting_sets,
            self.wrap("dependence", dependence.minimal_hitting_sets, before=materialize_targets),
        )
        self._patch_function(
            dependence.reducts_via_hyperplanes,
            self.wrap("dependence", dependence.reducts_via_hyperplanes, count_reducts("dependence.reducts")),
        )
        fn = dependence.complement_family
        self._patch_function(fn, self.wrap("dependence", fn))

        # infosys: each saturation check and brute-force scan visits 2**m subsets
        def count_check_scan(args, result):
            counts["infosys.saturation_checks"] += 1
            counts["infosys.attr_subsets"] += 1 << len(args[0].attributes)

        def count_brute_scan(args, result):
            counts["infosys.attr_subsets"] += 1 << len(args[0].attributes)
            counts["infosys.reducts"] += len(result)

        self._set(IS, "__post_init__", self.wrap("infosys.init", IS.__post_init__))
        self._set(
            IS,
            "check_saturation_condition",
            self.wrap("infosys.saturation", IS.check_saturation_condition, count_check_scan),
        )
        self._set(
            IS,
            "reducts_via_quotient",
            self.wrap("infosys.quotient_reducts", IS.reducts_via_quotient, count_reducts("infosys.reducts")),
        )
        self._set(
            IS,
            "brute_force_reducts",
            self.wrap("infosys.brute_reducts", IS.brute_force_reducts, count_brute_scan),
        )
        for attr in ("indiscernibility", "attribute_quotient"):
            self._set(IS, attr, self.wrap("infosys.partitions", getattr(IS, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # summaries --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per metric: span duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        out["covering.checks_s"] = 0.0
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            if name == "covering.checks":
                # inclusive: the second matroid and flat enumeration it runs
                # are also in the matroid.* self times
                out["covering.checks_s"] += end - start
            else:
                out[SELF_TIME_METRIC[name]] += (end - start) - child_time[k]
        return out

    def deterministic_counts(self) -> dict[str, int]:
        return {name: self.counts.get(name, 0) for name in DETERMINISTIC_COUNTS}
