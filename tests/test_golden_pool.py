"""Every benchmark pool command against its recorded exit code and stdout digest.

The benchmark's self-check runs only the cheapest document of each group;
this test runs the whole pool of every workload through ``latmat.cli.main``,
so each command form stays byte-identical on every recorded document.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from latmat.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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
