"""Correctness gate: compare what the program wrote with the generator's plan.

Every expectation comes from the plan (`gen.Expect`, `gen.GoldExpect`);
nothing here calls the program.  Each check returns a list of problems,
empty when the output is correct.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

PPA = "urn:pp-analyze:core#"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
PRACTICE_CLASSES = ("DataCollectionUse", "ThirdPartySharingDisclosure", "DataPractice")


def nt_counts(out_dir: Path) -> dict:
    """Triples, practices by class and data/purpose links over the
    per-policy N-Triples files (one statement per line)."""
    counts = {"triples": 0, "data_links": 0, "purpose_links": 0,
              **{cls: 0 for cls in PRACTICE_CLASSES}}
    types = {f"<{PPA}{cls}> .": cls for cls in PRACTICE_CLASSES}
    for path in sorted(out_dir.glob("*.nt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            counts["triples"] += 1
            _, pred, rest = line.split(" ", 2)
            if pred == RDF_TYPE and rest in types:
                counts[types[rest]] += 1
            elif pred == f"<{PPA}hasData>":
                counts["data_links"] += 1
            elif pred == f"<{PPA}hasPurpose>":
                counts["purpose_links"] += 1
    return counts


def run_log_counts(path: Path) -> tuple[int, int]:
    """(backend calls, calls with an error trace) in a run log."""
    calls = errors = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["event"] == "backend_call":
            calls += 1
            errors += record["error"] is not None
    return calls, errors


def tree_digest(out_dir: Path) -> str:
    """Digest of the deterministic artefacts: graphs and audit dumps."""
    h = hashlib.sha256()
    files = [*out_dir.glob("*.ttl"), *out_dir.glob("*.nt"), *out_dir.glob("audit/*.json")]
    for path in sorted(files):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _diff(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got}, plan says {want}"]


def check_analyze(out_dir: Path, expect) -> list[str]:
    counts = nt_counts(out_dir)
    problems = _diff("triples", counts["triples"], expect.triples)
    for cls in PRACTICE_CLASSES:
        problems += _diff(f"practices[{cls}]", counts[cls], expect.practices.get(cls, 0))
    problems += _diff("data links", counts["data_links"], expect.data_links)
    problems += _diff("purpose links", counts["purpose_links"], expect.purpose_links)
    calls, errors = run_log_counts(out_dir / "run_log.jsonl")
    problems += _diff("backend calls", calls, expect.queries)
    problems += _diff("errored calls", errors, expect.failed)
    return problems


def check_stats(stats_json: Path, expect) -> list[str]:
    stats = json.loads(stats_json.read_text(encoding="utf-8"))
    problems = _diff("stats triples", stats["triple_count"], expect.triples)
    problems += _diff("stats practices", stats["practice_type_counts"],
                      {k: v for k, v in expect.practices.items() if v})
    problems += _diff("stats data mentions", stats["data"]["mentions"], expect.data_links)
    problems += _diff("stats purpose mentions", stats["purpose"]["mentions"],
                      expect.purpose_links)
    return problems


def check_convert(report_json: Path, expect) -> list[str]:
    report = json.loads(report_json.read_text(encoding="utf-8"))
    odrl, dtou = report["odrl"], report["psdtou"]
    return (_diff("permissions", odrl["permissions"], expect.permissions)
            + _diff("odrl skipped practices", len(odrl["skipped_practices"]), expect.odrl_skipped)
            + _diff("input specs", dtou["input_specs"], expect.input_specs)
            + _diff("sharing entries", dtou["sharing_entries"], expect.sharing_entries))


def check_evaluate(report_json: Path, expect, tolerance: float = 1e-9) -> list[str]:
    report = json.loads(report_json.read_text(encoding="utf-8"))
    problems = _diff("tasks", sorted(t["task"] for t in report["tasks"]), sorted(expect.samples))
    for row in report["tasks"]:
        task = row["task"]
        problems += _diff(f"{task} samples", row["samples"], expect.samples.get(task))
        problems += _diff(f"{task} failed queries", row["failed_queries"],
                          expect.failed.get(task, 0))
        for name, want in zip(("f1", "f1_n", "f1_e"), expect.f1.get(task, (None,) * 3)):
            got = row[name]
            if (got is None) != (want is None) or (got is not None and abs(got - want) > tolerance):
                problems.append(f"{task} {name}: got {got}, plan says {want}")
    return problems
