"""Seeded input documents and per-seed command batches.

Every workload in ``workloads.json`` is a list of document groups.  Each group
has a fixed pool of documents, generated from ``random.Random`` seeded by the
document's key, and a list of CLI command forms run on each document.  A run
seed picks ``per_batch`` documents from the pool: the pool, sorted by the
recorded cost of each document, is cut into ``per_batch`` strata of similar
cost, and the seed picks one document per stratum.  A group may run only
``forms_per_doc`` of its command forms on each document, rotating through the
forms from stratum to stratum.  Batches therefore differ from seed
to seed while their total cost stays close, and every document has golden
digests recorded in ``golden/<workload>.json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE / "workloads.json"
GOLDEN_DIR = HERE / "golden"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return {"docs": {}}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# generators


def family_document(rng: random.Random, params: dict) -> str:
    """JSON family over 1..n; non-covering families leave 1-2 elements unused."""
    n = rng.randint(*params["elements"])
    count = rng.randint(*params["blocks"])
    universe = list(range(1, n + 1))
    usable = universe
    if not params["covering"]:
        missing = set(rng.sample(universe, rng.randint(1, 2)))
        usable = [e for e in universe if e not in missing]
    blocks = [set(rng.sample(usable, rng.randint(*params["block_size"]))) for _ in range(count)]
    if params["covering"]:
        # every element left out is added to one random block
        covered = set().union(*blocks)
        for e in universe:
            if e not in covered:
                blocks[rng.randrange(count)].add(e)
    doc = {"universe": universe, "blocks": [sorted(b) for b in blocks]}
    return json.dumps(doc)


def table_document(rng: random.Random, params: dict) -> str:
    """CSV table; saturated tables make the quotient-rule condition hold.

    A saturated table has a few independent base columns; every other column
    repeats a base column's partition under new labels.  For each base column
    a witness pair of objects differs in that column alone, so distinct
    unions of quotient blocks induce distinct partitions and the saturation
    condition holds.  Unsaturated tables have independent random columns.
    """
    m = rng.randint(*params["attributes"])
    objects = params["objects"]
    if params["saturated"]:
        base = rng.randint(*params["base_columns"])
        sizes = [rng.randint(*params["values"]) for _ in range(base)]
        rows = [[rng.randrange(k) for k in sizes] for _ in range(objects - base)]
        for j, k in enumerate(sizes):
            twin = list(rows[rng.randrange(len(rows))])
            twin[j] = (twin[j] + 1) % k
            rows.append(twin)
        columns = [[row[j] for row in rows] for j in range(base)]
        while len(columns) < m:
            source = rng.randrange(base)
            labels = list(range(sizes[source]))
            rng.shuffle(labels)
            offset = rng.randrange(100)
            columns.append([labels[v] + offset for v in columns[source]])
        order = list(range(m))
        rng.shuffle(order)
        columns = [columns[j] for j in order]
    else:
        columns = [
            [rng.randrange(k) for _ in range(objects)]
            for k in (rng.randint(*params["values"]) for _ in range(m))
        ]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["object"] + [f"a{j + 1}" for j in range(m)])
    for i in range(objects):
        writer.writerow([f"o{i + 1}"] + [f"v{columns[j][i]}" for j in range(m)])
    return out.getvalue()


GENERATORS = {"family": (family_document, ".json"), "table": (table_document, ".csv")}


@dataclass(frozen=True)
class Document:
    key: str  # "<group>/<index>", the key of its golden record
    text: str
    suffix: str


def pool_document(workload: str, group: dict, index: int) -> Document:
    make, suffix = GENERATORS[group["generator"]]
    key = f"{group['name']}/{index:03d}"
    rng = random.Random(f"{workload}/{key}")
    return Document(key, make(rng, group["params"]), suffix)


def pool(workload: str, spec: dict) -> list[tuple[dict, Document]]:
    return [
        (group, pool_document(workload, group, index))
        for group in spec["groups"]
        for index in range(group["pool"])
    ]


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True)
class Command:
    doc: Document
    form: int  # index into the group's command list
    argv: tuple[str, ...]  # with "{doc}" still in place of the document path


def cost_strata(docs: list[Document], golden: dict, count: int) -> list[list[Document]]:
    """Cut the cost-sorted pool into ``count`` strata of similar cost.

    The largest ratio of most to least expensive document within a stratum is
    made as small as it can be, so a sparse heavy tail ends up in strata of
    one document each, which run in every batch, while dense cheap documents
    share strata.  The seed's pick then moves the batch little.
    """
    costs = {d.key: max(golden["docs"].get(d.key, {}).get("cost_ms", 0.0), 0.1) for d in docs}
    ordered = sorted(docs, key=lambda d: (costs[d.key], d.key))
    logs = [math.log(costs[d.key]) for d in ordered]

    def cut(width: float) -> list[list[Document]]:
        strata, start = [], 0
        for i in range(1, len(ordered) + 1):
            if i == len(ordered) or logs[i] - logs[start] > width:
                strata.append(ordered[start:i])
                start = i
        return strata

    low, high = 0.0, logs[-1] - logs[0]
    for _ in range(40):  # bisect the least log-ratio that needs no more than count strata
        middle = (low + high) / 2
        low, high = (middle, high) if len(cut(middle)) > count else (low, middle)
    strata = cut(high)
    while len(strata) < count:  # halve the widest stratum of two or more
        k = max(
            (k for k, st in enumerate(strata) if len(st) > 1),
            key=lambda k: costs[strata[k][-1].key] / costs[strata[k][0].key],
        )
        half = len(strata[k]) // 2
        strata[k : k + 1] = [strata[k][:half], strata[k][half:]]
    return strata


def batch_for_seed(workload: str, spec: dict, golden: dict, seed: int) -> list[Command]:
    """One document per cost stratum of each group, shuffled."""
    rng = random.Random(f"batch/{workload}/{seed}")
    commands = []
    for group in spec["groups"]:
        docs = [pool_document(workload, group, i) for i in range(group["pool"])]
        forms = group["commands"]
        for s, stratum in enumerate(cost_strata(docs, golden, group["per_batch"])):
            doc = stratum[rng.randrange(len(stratum))]
            # stratum s runs forms s, s+1, ... so each form runs equally often
            for j in range(group.get("forms_per_doc", len(forms))):
                form = (s + j) % len(forms)
                commands.append(Command(doc, form, tuple(forms[form])))
    rng.shuffle(commands)
    return commands


def describe(workload: str, doc: dict) -> dict:
    """Properties of one document, read from its descriptor command's JSON."""
    if workload == "lattice-deep":
        return {
            "covering": doc["covering"],
            "flats": len(doc["flats"]),
            "rank": doc["flats"][-1]["height"],
            "cover_edges": sum(len(ups) for ups in doc["covers"]),
        }
    if workload == "reducts-wide":
        return {
            "rank": doc["rank"],
            "hyperplanes": len(doc["hyperplanes"]),
            "reducts": len(doc["reducts"]),
        }
    return {
        "attributes": len(doc["attributes"]),
        "condition_holds": doc["condition_holds"],
        "method": doc["method"],
        "reducts": len(doc["reducts"]),
    }


def batch_descriptors(workload: str, golden: dict, commands: list[Command]) -> dict:
    """Share of inputs with the properties later issues select on."""
    per_doc = {c.doc.key: golden["docs"].get(c.doc.key, {}).get("descriptor") for c in commands}
    if None in per_doc.values():
        return {}
    values = list(per_doc.values())

    def spread(name):
        xs = sorted(v[name] for v in values)
        return {"min": xs[0], "median": xs[len(xs) // 2], "max": xs[-1]}

    out = {"documents": len(values), "commands": len(commands)}
    if workload == "lattice-deep":
        out["non_covering_share"] = sum(not v["covering"] for v in values) / len(values)
        out["flats_per_doc"] = spread("flats")
    elif workload == "reducts-wide":
        out["hyperplanes_per_doc"] = spread("hyperplanes")
        out["reducts_per_doc"] = spread("reducts")
    else:
        routes = {"quotient-rule": 0, "brute-force": 0, "forced-brute": 0}
        for c in commands:
            forced = "--force-brute" in c.argv
            routes["forced-brute" if forced else per_doc[c.doc.key]["method"]] += 1
        out["route_mix"] = routes
        out["reducts_per_doc"] = spread("reducts")
    return out
