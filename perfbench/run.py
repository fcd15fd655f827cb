"""Benchmark of the ``latmat`` CLI: seeded workloads, golden-checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload lattice-deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record            # re-record golden digests

One run builds the seed's batch of CLI commands (see ``workloads.py``), runs
it in this process through ``latmat.cli.main(argv)`` over and over until
``--seconds`` have passed, and checks every command's exit code and the
sha256 of its stdout against ``golden/<workload>.json``.  A fixed calibration
loop runs after every command, and times are scaled by its speed (see
``speed_factor``).  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced batches and reports
per-layer metrics from the spans that ``spans.py`` records, plus the tracing
overhead.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record`` writes the golden files from the program in ``src/``: run it on
the commit whose outputs are the reference, before measuring a change.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import DETERMINISTIC_COUNTS, SELF_TIME_METRIC, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "batch_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 24  # set-ups whose median is setup_s
SETUP_PER_BATCH = 3  # set-ups after each batch until there are SETUP_RUNS
# a fixed import of standard modules latmat does not use, and what it counts as
REFERENCE_IMPORT = "email.parser, http.client, xml.dom.minidom, zipfile"
REFERENCE_IMPORT_S = 0.04
MIN_REPS = 3  # batches per run at least, the first of which warms up and is not timed
CALIBRATION_N = 8000  # loop steps of one calibration unit
REFERENCE_UNIT_S = 0.005  # what one calibration unit counts as
RECORD_RUNS = 9  # passes over a pool while recording; the first warms up
TAIL_BEYOND = 10


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIME_METRIC.values()}
    units["covering.checks_s"] = "s"
    units.update({name: "count" for name in DETERMINISTIC_COUNTS})
    units["matroid.closure_calls_per_flat"] = "ratio"
    units.update({"trace.batch_s": "s", "trace.untraced_batch_s": "s", "trace.overhead_s": "s"})
    return units


def import_cli():
    """Import ``latmat.cli`` from this checkout's ``src/``; None if absent."""
    if not (SRC / "latmat" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from latmat import cli

    if Path(cli.__file__).resolve().parent != SRC / "latmat":
        return None
    return cli


# ---------------------------------------------------------------------------
# running commands


def run_command(main, argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """Exit code, stdout, seconds and error of one in-process CLI call."""
    out = io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed command, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workdir:
    """Generated documents written once into a directory inside the checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.paths: dict[str, str] = {}

    def argv(self, command: workloads.Command) -> list[str]:
        doc = command.doc
        if doc.key not in self.paths:
            path = self.path / (doc.key.replace("/", "-") + doc.suffix)
            path.write_text(doc.text, encoding="utf-8")
            self.paths[doc.key] = str(path)
        return [self.paths[doc.key] if a == "{doc}" else a for a in command.argv]


def calibration_unit(n: int = CALIBRATION_N) -> int:
    """Fixed pure-Python work in latmat's mix: dict counts, bit operations,
    set inserts and string joins.  It never touches latmat."""
    counts: dict[int, int] = {}
    seen = set()
    parts = []
    for i in range(n):
        k = (i * 7919) & 4095
        counts[k] = counts.get(k, 0) + 1
        m = k ^ (k >> 3)
        if m & 1:
            seen.add(m)
        if i % 16 == 0:
            parts.append(str(m))
    return len(",".join(parts)) + len(seen) + len(counts)


@dataclass
class BatchRun:
    seconds: list[float] = field(default_factory=list)  # per command
    calibration: list[float] = field(default_factory=list)  # one unit after each command
    digests: list[str] = field(default_factory=list)
    codes: list[int | None] = field(default_factory=list)  # None where the command raised
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def total(self) -> float:
        return sum(self.seconds)


def check_output(golden: dict, command: workloads.Command, code, out_digest, error) -> str | None:
    """Why the command's result differs from the golden record, or None."""
    record = golden["docs"].get(command.doc.key)
    if record is None:
        return f"{command.doc.key}: no golden record"
    if record["sha256"] != digest(command.doc.text):
        return f"{command.doc.key}: generated document differs from the recorded one"
    if error is not None:
        return f"{command.doc.key} form {command.form}: raised {error}"
    want_digest, want_code = record["outputs"][command.form]
    if code != want_code:
        return f"{command.doc.key} form {command.form}: exit code {code}, expected {want_code}"
    if out_digest != want_digest:
        return f"{command.doc.key} form {command.form}: stdout digest differs"
    return None


def run_batch(cli, commands, workdir: Workdir, golden: dict | None, traced: bool = False) -> BatchRun:
    """Run each command once, with a calibration unit after it; check the
    results against ``golden`` unless it is None."""
    result = BatchRun()
    main = cli.main
    if traced:
        result.tracer = tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    gc.collect()
    try:
        for k, command in enumerate(commands):
            argv = workdir.argv(command)
            if traced:
                tracer.begin_command(k)
            code, stdout, seconds, error = run_command(main, argv)
            out_digest = digest(stdout)
            del stdout
            result.seconds.append(seconds)
            start = time.perf_counter()
            calibration_unit()
            result.calibration.append(time.perf_counter() - start)
            result.digests.append(out_digest)
            result.codes.append(code)
            failure = golden and check_output(golden, command, code, out_digest, error)
            if failure:
                result.failures.append(failure)
    finally:
        if traced:
            tracer.uninstall()
    return result


# ---------------------------------------------------------------------------
# metrics


def import_seconds(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def setup_ratio() -> float:
    """One set-up: latmat.cli's import time over the reference import's,
    each in a fresh interpreter, one right after the other.

    Import times swing by a third with the phases of the shared CPU, over
    seconds to minutes, and do not follow the calibration units; the
    reference import, made of the same kind of work at the same moment, does.
    """
    return import_seconds("latmat.cli") / import_seconds(REFERENCE_IMPORT)


def setup_seconds(ratios: list[float]) -> float:
    """Median set-up ratio, in seconds at the speed at which the reference
    import takes ``REFERENCE_IMPORT_S``."""
    return REFERENCE_IMPORT_S * statistics.median(ratios)


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest sample with TAIL_BEYOND beyond it."""
    return max(count - TAIL_BEYOND - 1, 0)


def speed_factor(runs: list[BatchRun]) -> float:
    """``REFERENCE_UNIT_S`` over the mean time of the run's calibration units.

    On a CPU shared with other tenants, slow phases of tens of milliseconds
    to seconds come and go, and how much of a run they fill drifts from
    minute to minute: raw batch times of the same code move by 20% and more.
    A calibration unit after every command meets the same phases as the
    commands, so the ratio of command time to calibration time stays put.
    Times multiplied by this factor are seconds at the speed at which one
    unit takes ``REFERENCE_UNIT_S``.
    """
    return REFERENCE_UNIT_S / statistics.fmean(c for r in runs for c in r.calibration)


def command_times(runs: list[BatchRun], factor: float) -> list[float]:
    """Each command's mean time over the batches, scaled, in ascending order."""
    return sorted(factor * statistics.fmean(times) for times in zip(*(r.seconds for r in runs)))


def end_to_end_metrics(runs: list[BatchRun], setup_ratios: list[float]) -> dict[str, float]:
    """Mean times over the timed batches, scaled by ``speed_factor``."""
    factor = speed_factor(runs)
    per_command = command_times(runs, factor)
    return {
        "batch_s": sum(per_command),
        "cmd_p50_s": statistics.median(per_command),
        "cmd_tail_s": per_command[tail_index(len(per_command))],
        "setup_s": setup_seconds(setup_ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced: list[BatchRun], traced: list[BatchRun]) -> dict[str, float]:
    """Seconds are medians over batches, each batch scaled by its own calibration units."""
    factors = [speed_factor([r]) for r in traced]
    times = [{name: f * t for name, t in r.tracer.self_times().items()} for f, r in zip(factors, traced)]
    metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
    counts = traced[0].tracer.deterministic_counts()
    metrics.update(counts)
    flats = counts["matroid.flats"]
    metrics["matroid.closure_calls_per_flat"] = counts["matroid.closure_calls"] / flats if flats else 0.0
    metrics["trace.batch_s"] = statistics.median(f * r.total for f, r in zip(factors, traced))
    timed = untraced[1:] or untraced  # the first batch warms up
    metrics["trace.untraced_batch_s"] = statistics.median(speed_factor([r]) * r.total for r in timed)
    metrics["trace.overhead_s"] = metrics["trace.batch_s"] - metrics["trace.untraced_batch_s"]
    return metrics


def consistency_failures(untraced: list[BatchRun], traced: list[BatchRun]) -> list[str]:
    """Traced stdout equals untraced stdout; counts repeat across traced batches."""
    problems = []
    reference = untraced[0].digests
    for r in untraced[1:] + traced:
        for k, (a, b) in enumerate(zip(reference, r.digests)):
            if a != b:
                problems.append(f"command {k}: stdout differs between batches")
    if traced:
        first = traced[0].tracer.deterministic_counts()
        for r in traced[1:]:
            again = r.tracer.deterministic_counts()
            for name in DETERMINISTIC_COUNTS:
                if again[name] != first[name]:
                    problems.append(f"{name}: {first[name]} then {again[name]}")
    return problems


def write_spans(path: Path, run: BatchRun, commands) -> None:
    spans = [
        {"name": n, "start": s, "end": e, "parent": p, "command": c}
        for n, s, e, p, c in run.tracer.spans
    ]
    doc = {
        "commands": [[c.doc.key, c.form] for c in commands],
        "spans": spans,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# modes


def measure(cli, workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = workloads.load_spec()[workload]
    golden = workloads.load_golden(workload)
    commands = workloads.batch_for_seed(workload, spec, golden, seed)
    setup_ratios: list[float] = []
    setup_wanted = 0 if trace else SETUP_RUNS
    if setup_wanted:
        setup_ratio()  # warms the file cache; not counted
    runs: list[BatchRun] = []
    untraced: list[BatchRun] = []
    traced: list[BatchRun] = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        workdir = Workdir(Path(tmp))
        start = time.perf_counter()
        k = 0
        while k < MIN_REPS or time.perf_counter() - start < seconds:
            # traced runs go U, T, T, U, T, U, T, ...: two traced batches at
            # least, so that the counts can be seen to repeat
            is_traced = trace and k > 0 and (len(traced) < 2 or len(traced) <= len(untraced))
            run = run_batch(cli, commands, workdir, golden, traced=is_traced)
            runs.append(run)
            (traced if is_traced else untraced).append(run)
            # set-ups spread over the run, between batches
            for _ in range(min(SETUP_PER_BATCH, setup_wanted - len(setup_ratios))):
                setup_ratios.append(setup_ratio())
            k += 1

    while len(setup_ratios) < setup_wanted:
        setup_ratios.append(setup_ratio())

    failures = [f for r in runs for f in r.failures]
    problems = consistency_failures(untraced, traced)
    attempted = len(commands) * len(runs)
    failed = len(failures)
    correct = failed == 0 and not problems
    if trace:
        metrics = per_layer_metrics(untraced, traced)
        units = per_layer_units()
        spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        write_spans(spans_path, traced[-1], commands)
    else:
        timed = untraced[1:]  # the first batch warms up
        metrics = end_to_end_metrics(timed, setup_ratios)
        units = END_TO_END_UNITS

    count = len(commands)
    print(f"workload {workload}, seed {seed}: {count} commands per batch, "
          f"{len(untraced)} untraced and {len(traced)} traced batches")
    print(f"cmd_tail_s is p{100 * (tail_index(count) + 1) / count:.0f} of {count} per-command "
          f"mean times over the untraced batches ({count - tail_index(count) - 1} beyond it)")
    print("raw batch seconds:", " ".join(f"{'T' if r.tracer else 'U'}{r.total:.3f}" for r in runs))
    if not trace:
        print(f"speed factor {speed_factor(timed):.4f} over {len(timed)} timed batches")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for line in (failures + problems)[:20]:
        print("  failure:", line)
    print("batch descriptors:", json.dumps(workloads.batch_descriptors(workload, golden, commands)))
    if trace:
        print(f"spans of the last traced batch: {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record(cli, names: list[str]) -> int:
    """Write golden digests, costs and descriptors for every pool document."""
    spec_all = workloads.load_spec()
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    for workload in names:
        spec = spec_all[workload]
        commands = [
            workloads.Command(doc, form, tuple(argv))
            for group, doc in workloads.pool(workload, spec)
            for form, argv in enumerate(group["commands"])
        ]
        docs = {}
        with tempfile.TemporaryDirectory(prefix="record-", dir=OUT_DIR) as tmp:
            workdir = Workdir(Path(tmp))
            # the whole pool in every pass, so that all documents' costs are
            # scaled by the same calibration, as in a measured run
            runs = [run_batch(cli, commands, workdir, None) for _ in range(RECORD_RUNS)]
            for r in runs:
                if None in r.codes:
                    raise SystemExit(f"{workload}: a command raised while recording")
                if (r.digests, r.codes) != (runs[0].digests, runs[0].codes):
                    raise SystemExit(f"{workload}: outputs differ between passes")
            factor = speed_factor(runs[1:])
            for k, command in enumerate(commands):
                doc = command.doc
                if doc.key not in docs:
                    _, out, _, _ = run_command(
                        cli.main, workdir.argv(workloads.Command(doc, -1, tuple(spec["descriptor_command"])))
                    )
                    docs[doc.key] = {
                        "sha256": digest(doc.text),
                        "cost_ms": 0.0,
                        "descriptor": workloads.describe(workload, json.loads(out)),
                        "outputs": [],
                    }
                entry = docs[doc.key]
                entry["outputs"].append([runs[0].digests[k], runs[0].codes[k]])
                entry["cost_ms"] += 1000 * factor * statistics.fmean(r.seconds[k] for r in runs[1:])
        for key, entry in docs.items():
            entry["cost_ms"] = round(entry["cost_ms"], 2)
            print(workload, key, entry["cost_ms"], entry["descriptor"], flush=True)
        golden = {"docs": docs}
        golden["pool_descriptors"] = workloads.batch_descriptors(workload, golden, commands)
        path = workloads.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print("wrote", path.relative_to(ROOT))
    return 0


def self_check(cli) -> int:
    """Tiny batches: metric names, traced == untraced stdout, a corrupt digest fails."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"] for m in declared["end_to_end"]}
    want_layer = {m["name"] for m in declared["per_layer"]}
    ok = True

    def verdict(name, passed):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")

    OUT_DIR.mkdir(exist_ok=True)
    for workload, spec in workloads.load_spec().items():
        golden = workloads.load_golden(workload)
        commands = []
        for group in spec["groups"]:
            docs = [workloads.pool_document(workload, group, i) for i in range(group["pool"])]
            cheapest = min(docs, key=lambda d: golden["docs"].get(d.key, {}).get("cost_ms", 0.0))
            commands += [workloads.Command(cheapest, f, tuple(a)) for f, a in enumerate(group["commands"])]
        with tempfile.TemporaryDirectory(prefix="check-", dir=OUT_DIR) as tmp:
            workdir = Workdir(Path(tmp))
            untraced = [run_batch(cli, commands, workdir, golden)]
            traced = [run_batch(cli, commands, workdir, golden, traced=True) for _ in range(2)]
            corrupt = json.loads(json.dumps(golden))
            first = commands[0]
            corrupt["docs"][first.doc.key]["outputs"][first.form][0] = "0" * 64
            corrupted = run_batch(cli, commands, workdir, corrupt)
        e2e = end_to_end_metrics(untraced, [setup_ratio()])
        layer = per_layer_metrics(untraced, traced)
        verdict(f"{workload}: end-to-end metrics {sorted(want_e2e)} emitted", set(e2e) == want_e2e)
        verdict(f"{workload}: per-layer metrics emitted", set(layer) == want_layer)
        verdict(f"{workload}: golden digests match", not any(r.failures for r in untraced + traced))
        verdict(
            f"{workload}: traced and untraced stdout identical, counts repeat",
            not consistency_failures(untraced, traced),
        )
        verdict(f"{workload}: corrupted digest reported as one failure", len(corrupted.failures) == 1)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write golden/*.json from src/")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    names = list(workloads.load_spec())
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    cli = import_cli()
    if cli is None:
        print(f"error: no latmat package under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record(cli, [args.workload] if args.workload else names)
    if args.self_check:
        return self_check(cli)
    if args.workload is None:
        parser.error("--workload is required")
    if not workloads.load_golden(args.workload)["docs"]:
        print(f"error: no golden records for {args.workload}; run --record first", file=sys.stderr)
        return 2
    return measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
