"""Every benchmark pool command against its recorded exit code and stdout digest.

The benchmark's self-check runs only the cheapest document of each group;
this test runs the whole pool of every workload through ``latmat.cli.main``,
so each command form stays byte-identical on every recorded document.  The
benchmark's tracer must also find every name it wraps, leave stdout alone
and put every name back.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from latmat import GeometricLattice, InformationSystem, TransversalMatroid
from latmat.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", ["lattice-deep", "reducts-wide", "tables"])
def test_pool_matches_golden(workload, tmp_path, capsys):
    spec = workloads.load_spec()[workload]
    golden = workloads.load_golden(workload)["docs"]
    mismatches = []
    for group, doc in workloads.pool(workload, spec):
        record = golden[doc.key]
        assert record["sha256"] == sha256(doc.text), doc.key
        path = tmp_path / (doc.key.replace("/", "-") + doc.suffix)
        path.write_text(doc.text, encoding="utf-8")
        for form, argv in enumerate(group["commands"]):
            code = main([str(path) if a == "{doc}" else a for a in argv])
            out = capsys.readouterr().out
            if [sha256(out), code] != record["outputs"][form]:
                mismatches.append(f"{doc.key} form {form}: exit {code}")
    assert not mismatches


def latmat_names() -> dict:
    """Every name bound in a latmat module or a class the tracer patches."""
    owners = [m for n, m in sys.modules.items() if n == "latmat" or n.startswith("latmat.")]
    owners += [TransversalMatroid, GeometricLattice, InformationSystem]
    return {(o.__name__, name): value for o in owners for name, value in vars(o).items()}


def test_tracer_keeps_stdout_and_restores_names(tmp_path, capsys):
    """The benchmark's tracer wraps names the CLI reaches; it must find them all."""
    runs = []
    for workload, spec in workloads.load_spec().items():
        for group in spec["groups"]:
            doc = workloads.pool_document(workload, group, 0)
            path = tmp_path / (doc.key.replace("/", "-") + doc.suffix)
            path.write_text(doc.text, encoding="utf-8")
            for argv in group["commands"]:
                runs.append([str(path) if a == "{doc}" else a for a in argv])

    def outputs() -> list[tuple[int, str]]:
        return [(main(argv), capsys.readouterr().out) for argv in runs]

    untraced, names = outputs(), latmat_names()
    tracer = spans.Tracer()
    try:
        tracer.install()  # patches as it goes, so a failure leaves some in place
        traced = outputs()
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert traced == untraced
    assert latmat_names() == names
