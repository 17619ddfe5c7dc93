"""Traced in-process run: per-layer metrics.

The traced run calls each layer's public functions from outside, in the
order the CLI calls them, with a span around every call.  Calls the
program makes internally (prompt building, digests, response repair,
gold task views, span matching) are timed by repeating them, one span
per document, over the run's recorded calls.  Spans stay in memory and
are written to ``.perfbench/spans/<workload>-<seed>.jsonl`` at the end.

Layers that a workload does not run report 0.  The tracing overhead is
the traced command time against the untraced CLI ``wall_s`` of the same
inputs.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time
import urllib.parse
from contextlib import contextmanager
from pathlib import Path

from stub import percentile

PER_LAYER = [
    ("corpus.load_policy.busy_s", "s"), ("corpus.parse_brat.busy_s", "s"),
    ("corpus.align_gold.busy_s", "s"),
    ("taxonomy.load.busy_s", "s"),
    ("prompts.build_prompt.busy_s", "s"), ("prompts.bytes_per_call", "B"),
    ("backend.cache_load.busy_s", "s"), ("backend.cache.bytes", "B"),
    ("backend.digest.busy_s", "s"), ("backend.invocations", "count"),
    ("backend.transport_calls", "count"), ("backend.cache_hit_ratio", "ratio"),
    ("backend.cache_append.busy_s", "s"),
    ("repair.busy_s", "s"), ("repair.repaired_ratio", "ratio"),
    ("repair.parse_failed_ratio", "ratio"),
    ("pipeline.extract_document.busy_s", "s"), ("pipeline.doc_s.p50", "s"),
    ("pipeline.doc_s.p90", "s"), ("pipeline.queries_per_segment", "count"),
    ("pipeline.critical_path_round_trips", "count"), ("pipeline.in_flight_mean", "count"),
    ("pipeline.inter_call_gap_s.p50", "s"), ("pipeline.inter_call_gap_s.p90", "s"),
    ("graph.build.busy_s", "s"), ("graph.stats.busy_s", "s"),
    ("graph.check_invariants.busy_s", "s"), ("graph.triples", "count"),
    ("graph.practices", "count"),
    ("rdfio.serialize_turtle.busy_s", "s"), ("rdfio.serialize_ntriples.busy_s", "s"),
    ("rdfio.parse.busy_s", "s"), ("rdfio.bytes_written", "B"),
    ("policyconv.to_odrl.busy_s", "s"), ("policyconv.to_psdtou.busy_s", "s"),
    ("policyconv.permissions", "count"), ("policyconv.input_specs", "count"),
    ("policyconv.sharing_entries", "count"),
    ("gold.load.busy_s", "s"), ("gold.segment_tasks.busy_s", "s"), ("gold.samples", "count"),
    ("metrics.match_spans.busy_s", "s"), ("metrics.score_classification.busy_s", "s"),
    ("metrics.relaxed_pairs", "count"), ("metrics.relaxed_match_ratio", "ratio"),
    ("benchmark.run.busy_s", "s"),
    ("cli.unattributed_s", "s"),
    ("trace.traced_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_ratio", "ratio"),
]

# Spans whose names are not layer metrics but mark a CLI command.
COMMANDS = ("cli.analyze", "cli.stats", "cli.convert", "cli.evaluate")


class Tracer:
    """In-memory spans: (id, parent id, name, request, start, end)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, request: str = ""):
        stack = self._stack()
        record = [next(self._ids), stack[-1] if stack else None, name, request,
                  time.perf_counter(), None]
        self.spans.append(record)
        stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn, *args, request: str = "", **kwargs):
        with self.span(name, request):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def unattributed(self) -> float:
        """Command time not covered by a direct child span."""
        total = 0.0
        for cmd in (s for s in self.spans if s[2] in COMMANDS):
            covered = sum(s[5] - s[4] for s in self.spans if s[1] == cmd[0])
            total += (cmd[5] - cmd[4]) - covered
        return total

    def command_time(self) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[2] in COMMANDS)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for sid, parent, name, request, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "request": request, "start": start, "end": end}) + "\n")


def _write(path: Path, data: bytes, counter: dict) -> None:
    path.write_bytes(data)
    counter["bytes"] = counter.get("bytes", 0) + len(data)


# -- analyze (replay and record) --

def _traced_analyze(wl, tracer: Tracer, out: Path, mode: str, cache: Path, jobs: int) -> dict:
    from ppanalyze import graph as graphmod, rdfio
    from ppanalyze.corpus import load_policy
    from ppanalyze.extraction.backend import Backend, BackendConfig
    from ppanalyze.extraction.pipeline import extract_document
    from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy

    written: dict = {}
    results = []
    with tracer.span("cli.analyze"):
        taxonomy = tracer.call("taxonomy.load", load_taxonomy, default_snapshot_path())
        backend = tracer.call("backend.cache_load", Backend, BackendConfig(
            model_name=wl.gen.MODEL, cache_mode=mode, cache_path=cache))
        if mode == "record":
            put = backend.cache.put
            backend.cache.put = lambda record: tracer.call("backend.cache_append", put, record)
        (out / "audit").mkdir(parents=True)
        (out / "logs").mkdir()
        combined = rdfio.Graph()
        graphmod.bind_standard_prefixes(combined)
        log_records = []
        practices = 0
        for path in wl.paths:
            service_id = Path(path).stem
            policy_uri = "urn:pp-analyze:policy#" + urllib.parse.quote(service_id, safe="")
            doc = tracer.call("corpus.load_policy", load_policy, path, service_id,
                              request=service_id)
            result = tracer.call("pipeline.extract_document", extract_document, doc, backend,
                                 taxonomy, jobs=jobs, request=service_id)
            prpr = tracer.call("graph.build", graphmod.build_graph, result, service_id,
                               policy_uri, taxonomy_version=taxonomy.version, request=service_id)
            _write(out / f"{service_id}.ttl", tracer.call(
                "rdfio.serialize_turtle", rdfio.serialize, prpr.triples, "turtle",
                request=service_id), written)
            _write(out / f"{service_id}.nt", tracer.call(
                "rdfio.serialize_ntriples", rdfio.serialize, prpr.triples, "ntriples",
                request=service_id), written)
            combined.update(prpr.triples)
            practices += len(prpr.provenance)
            (out / "audit" / f"{service_id}.json").write_text(
                json.dumps(result.to_audit_dict(), indent=2, ensure_ascii=False) + "\n",
                encoding="utf-8")
            (out / "logs" / f"{service_id}.build.json").write_text(
                json.dumps(prpr.build_log.to_dict(), indent=2, ensure_ascii=False) + "\n",
                encoding="utf-8")
            for seg in result.segments:
                for name, trace in sorted(seg.traces.items()):
                    log_records.append({
                        "event": "backend_call" if not trace.skipped else "task_skipped",
                        "service_id": service_id, "segment": seg.segment_index,
                        "task": name, "digest": trace.digest,
                        "from_cache": trace.from_cache, "repaired": trace.repaired,
                        "repair_stages": list(trace.repair_stages), "error": trace.error})
                for note in seg.notes:
                    log_records.append({"event": "note", "service_id": service_id,
                                        "segment": seg.segment_index, "note": note})
            for record in prpr.build_log.records:
                log_records.append({"event": "build_skip", "service_id": service_id,
                                    "note": record})
            results.append(result)
        corpus_bytes = tracer.call("rdfio.serialize_turtle", rdfio.serialize, combined, "turtle")
        _write(out / "corpus.ttl", corpus_bytes, written)
        with (out / "run_log.jsonl").open("a", encoding="utf-8") as f:
            for record in log_records:
                f.write(json.dumps(record, ensure_ascii=False) + "\n")

    if mode == "replay":
        with tracer.span("cli.stats"):
            g = tracer.call("rdfio.parse", rdfio.parse, (out / "corpus.ttl").read_bytes(),
                            "turtle")
            stats = tracer.call("graph.stats", graphmod.stats, [g])
            (out / "stats").mkdir()
            (out / "stats" / "stats.tsv").write_text(stats.to_tsv(), encoding="utf-8")
            (out / "stats" / "stats.json").write_text(
                json.dumps(stats.to_dict(), indent=2) + "\n", encoding="utf-8")

    calls = _replay_calls(tracer, results, wl.gen.MODEL)
    segments = sum(len(r.segments) for r in results)
    return {
        **calls,
        "backend.cache.bytes": cache.stat().st_size if cache.exists() else 0,
        "backend.invocations": backend.invocations,
        "backend.transport_calls": backend.transport_calls,
        "backend.cache_hit_ratio": ((backend.invocations - backend.transport_calls)
                                    / backend.invocations if backend.invocations else 0.0),
        "pipeline.queries_per_segment": backend.invocations / segments if segments else 0.0,
        "pipeline.doc_s.p50": percentile(tracer.durations("pipeline.extract_document"), 0.5),
        "pipeline.doc_s.p90": percentile(tracer.durations("pipeline.extract_document"), 0.9),
        "graph.triples": len(combined),
        "graph.practices": practices,
        "rdfio.bytes_written": written.get("bytes", 0),
    }


def _replay_calls(tracer: Tracer, results, model: str) -> dict:
    """Repeat prompt building, digests and repair over the recorded calls."""
    from ppanalyze.extraction.backend import prompt_digest
    from ppanalyze.extraction.prompts import TASK_SHAPES, TaskKind, build_prompt
    from ppanalyze.extraction.repair import ParseError, repair_and_parse

    n = prompt_bytes = repaired = parse_failed = mismatched = 0
    for result in results:
        calls = []
        for seg in result.segments:
            for name, trace in sorted(seg.traces.items()):
                if trace.raw is None:
                    continue
                task = TaskKind(name)
                if task in (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION):
                    kind = "data" if task is TaskKind.DATA_CLASSIFICATION else "purpose"
                    extras = [s.text for s in seg.spans if s.kind == kind]
                elif task is TaskKind.RELATION_RECOGNITION:
                    extras = list(seg.spans)
                else:
                    extras = None
                calls.append((task, seg.segment_text, extras, trace.raw, trace.digest))
        request = result.service_id
        with tracer.span("prompts.build_prompt", request):
            prompts = [build_prompt(task, text, extras) for task, text, extras, _, _ in calls]
        with tracer.span("backend.digest", request):
            digests = [prompt_digest(model, task.value, prompt)
                       for (task, *_), prompt in zip(calls, prompts)]
        # errored traces carry no digest
        mismatched += sum(call[4] not in (None, d) for d, call in zip(digests, calls))
        with tracer.span("repair", request):
            for task, _, _, raw, _ in calls:
                try:
                    _, trace = repair_and_parse(raw, TASK_SHAPES[task])
                    repaired += trace.repaired
                except ParseError:
                    parse_failed += 1
        n += len(calls)
        prompt_bytes += sum(len(p.system.encode()) + len(p.user.encode()) for p in prompts)
    return {
        "prompts.bytes_per_call": prompt_bytes / n if n else 0.0,
        "repair.repaired_ratio": repaired / n if n else 0.0,
        "repair.parse_failed_ratio": parse_failed / n if n else 0.0,
        "calls": n,
        "digest_mismatches": mismatched,
    }


# -- convert --

def _traced_convert(wl, tracer: Tracer, out: Path) -> dict:
    from ppanalyze import rdfio
    from ppanalyze.graph import check_invariants
    from ppanalyze.policyconv import ConversionProfile, to_odrl, to_psdtou

    written: dict = {}
    out.mkdir(parents=True)
    with tracer.span("cli.convert"):
        profile = ConversionProfile.default()
        g = tracer.call("rdfio.parse", rdfio.parse, wl.graph.read_bytes(), "turtle")
        odrl, odrl_report = tracer.call("policyconv.to_odrl", to_odrl, g, profile)
        dtou, dtou_report = tracer.call("policyconv.to_psdtou", to_psdtou, g, profile)
        _write(out / "corpus.odrl.ttl",
               tracer.call("rdfio.serialize_turtle", rdfio.serialize, odrl, "turtle"), written)
        _write(out / "corpus.psdtou.ttl",
               tracer.call("rdfio.serialize_turtle", rdfio.serialize, dtou, "turtle"), written)
        report = {"odrl": odrl_report.to_dict(), "psdtou": dtou_report.to_dict()}
        (out / "corpus.conversion.json").write_text(json.dumps(report, indent=2) + "\n",
                                                    encoding="utf-8")
    # not run by any CLI command today; measured on the same graph
    problems = tracer.call("graph.check_invariants", check_invariants, g)
    return {
        "graph.invariant_violations": len(problems),
        "rdfio.bytes_written": written.get("bytes", 0),
        "policyconv.permissions": odrl_report.permissions,
        "policyconv.input_specs": dtou_report.input_specs,
        "policyconv.sharing_entries": dtou_report.sharing_entries,
    }


# -- evaluate --

def _traced_evaluate(wl, tracer: Tracer, out: Path) -> dict:
    from ppanalyze.corpus import align_gold, load_policy, parse_brat
    from ppanalyze.eval.benchmark import ALL_TASKS, format_report_table, run_benchmark
    from ppanalyze.eval.gold import load_gold_corpus, segment_tasks
    from ppanalyze.eval.metrics import match_spans, score_classification
    from ppanalyze.extraction.backend import Backend, BackendConfig, prompt_digest
    from ppanalyze.extraction.prompts import TASK_SHAPES, TaskKind, build_prompt
    from ppanalyze.extraction.repair import ParseError, repair_and_parse
    from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy

    out.mkdir(parents=True)
    with tracer.span("cli.evaluate"):
        taxonomy = tracer.call("taxonomy.load", load_taxonomy, default_snapshot_path())
        corpus = tracer.call("gold.load", load_gold_corpus, wl.gold)
        backend = tracer.call("backend.cache_load", Backend, BackendConfig(
            model_name=wl.gen.MODEL, cache_mode="replay", cache_path=wl.gold_cache))
        report = tracer.call("benchmark.run", run_benchmark, corpus, backend,
                             taxonomy=taxonomy, threshold=0.9, denominator="max")
        table = format_report_table([report])
        (out / "report.tsv").write_text(table, encoding="utf-8")
        (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")

    # the layers run_benchmark and load_gold_corpus call, repeated per document
    for text_path in sorted(wl.gold.glob("*.txt")):
        doc = tracer.call("corpus.load_policy", load_policy, text_path, text_path.stem,
                          request=text_path.stem)
        gold = tracer.call("corpus.parse_brat", parse_brat, text_path,
                           text_path.with_suffix(".ann"), request=text_path.stem)
        tracer.call("corpus.align_gold", align_gold, gold, doc, request=text_path.stem)

    samples = 0
    n = prompt_bytes = repaired = parse_failed = 0
    pairs = relaxed_pairs = 0
    for gold_doc in corpus:
        request = gold_doc.gold.doc_id
        with tracer.span("gold.segment_tasks", request):
            views = {task: segment_tasks(gold_doc, task, taxonomy) for task in ALL_TASKS}
        calls = []
        for task, view in views.items():
            samples += len(view)
            for sample in view:
                if task not in (TaskKind.DATA_RECOGNITION, TaskKind.PURPOSE_RECOGNITION,
                                TaskKind.PARTY_RECOGNITION, TaskKind.ACTION_RECOGNITION) \
                        and not sample.extras:
                    continue
                calls.append((task, sample))
        with tracer.span("prompts.build_prompt", request):
            prompts = [build_prompt(task, s.segment_text, s.extras) for task, s in calls]
        with tracer.span("backend.digest", request):
            digests = [prompt_digest(wl.gen.MODEL, task.value, p)
                       for (task, _), p in zip(calls, prompts)]
        parsed = []
        with tracer.span("repair", request):
            for (task, sample), digest in zip(calls, digests):
                record = backend.cache.get(digest)
                try:
                    items, trace = repair_and_parse(record["response"] if record else "",
                                                    TASK_SHAPES[task])
                    repaired += trace.repaired
                except ParseError:
                    items = []
                    parse_failed += 1
                parsed.append((task, sample, items))
        n += len(calls)
        prompt_bytes += sum(len(p.system.encode()) + len(p.user.encode()) for p in prompts)
        outcomes = []
        with tracer.span("metrics.match_spans", request):
            for task, sample, items in parsed:
                if task is TaskKind.RELATION_RECOGNITION:
                    pred = [f"{i.get('id1', '')} {i.get('id2', '')} {i.get('type', '')}"
                            for i in items]
                    outcomes.append(match_spans(pred, list(sample.gold_spans), 1.0))
                elif task not in (TaskKind.DATA_CLASSIFICATION,
                                  TaskKind.PURPOSE_CLASSIFICATION) and sample.gold_spans:
                    outcomes.append(match_spans([i.get("text", "") for i in items],
                                                list(sample.gold_spans), 0.9))
        with tracer.span("metrics.score_classification", request):
            for task, sample, items in parsed:
                if task in (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION) \
                        and sample.gold_pairs:
                    kind = "data" if task is TaskKind.DATA_CLASSIFICATION else "purpose"
                    outcomes.append(score_classification(
                        [(i.get("entity_text", ""), i.get("term", "")) for i in items],
                        list(sample.gold_pairs), taxonomy, kind, 0.9, "max"))
        for outcome in outcomes:
            pairs += len(outcome.pairs)
            relaxed_pairs += sum(1 for _, _, credit in outcome.pairs if credit < 1.0)

    return {
        "backend.cache.bytes": wl.gold_cache.stat().st_size,
        "backend.invocations": backend.invocations,
        "backend.transport_calls": backend.transport_calls,
        "backend.cache_hit_ratio": ((backend.invocations - backend.transport_calls)
                                    / backend.invocations if backend.invocations else 0.0),
        "prompts.bytes_per_call": prompt_bytes / n if n else 0.0,
        "repair.repaired_ratio": repaired / n if n else 0.0,
        "repair.parse_failed_ratio": parse_failed / n if n else 0.0,
        "calls": n,
        "gold.samples": samples,
        "metrics.relaxed_pairs": relaxed_pairs,
        "metrics.relaxed_match_ratio": relaxed_pairs / pairs if pairs else 0.0,
    }


# -- entry point --

BUSY = {name[:-len(".busy_s")] for name, _ in PER_LAYER if name.endswith(".busy_s")}


@contextmanager
def _live_endpoint(env: dict):
    """The in-process http transport reads its endpoint from os.environ."""
    saved = dict(os.environ)
    for key in list(os.environ):
        if key.lower() in ("http_proxy", "https_proxy", "all_proxy", "ftp_proxy"):
            del os.environ[key]
    os.environ.update(env, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def _merge(parts: list[dict]) -> dict:
    """Combine the values of several traced commands: sizes and counts add
    up, per-call shares are weighted by calls, the cache hit ratio is
    recomputed from the sums, and the rest comes from the one command
    that reports it."""
    merged: dict = {}
    calls = sum(p.get("calls", 0) for p in parts)
    for part in parts:
        for key, value in part.items():
            if key in ("backend.cache.bytes", "backend.invocations", "backend.transport_calls",
                       "rdfio.bytes_written", "calls", "digest_mismatches"):
                merged[key] = merged.get(key, 0) + value
            elif key in ("prompts.bytes_per_call", "repair.repaired_ratio",
                         "repair.parse_failed_ratio"):
                merged[key] = merged.get(key, 0.0) + value * part["calls"] / calls
            else:
                merged.setdefault(key, value)
    inv = merged.get("backend.invocations", 0)
    merged["backend.cache_hit_ratio"] = \
        (inv - merged.get("backend.transport_calls", 0)) / inv if inv else 0.0
    return merged


def per_layer(wl, untraced, work: Path) -> tuple[dict, list[str]]:
    """Run `wl` traced in process; return (metrics, gate problems)."""
    import gate

    tracer = Tracer()
    out = work / "traced"
    problems: list[str] = []
    if wl.name == "paper-batch":
        values = _merge([
            _traced_analyze(wl, tracer, out, "replay", wl.cache, 1),
            _traced_convert(wl, tracer, out / "conv"),
            _traced_evaluate(wl, tracer, out / "eval"),
        ])
        problems += gate.check_analyze(out, wl.expect)
        problems += gate.check_stats(out / "stats" / "stats.json", wl.expect)
        problems += gate.check_convert(out / "conv" / "corpus.conversion.json",
                                       wl.convert_expect)
        problems += gate.check_evaluate(out / "eval" / "report.json", wl.gold_expect)
        if values.pop("graph.invariant_violations"):
            problems.append("the input graph violates the practice-graph invariants")
    else:
        schedule = {f"pipeline.{k}": v for k, v in getattr(wl, "schedule", {}).items()}
        wl.stub.reset()
        with _live_endpoint(wl.extra_env):
            values = _traced_analyze(wl, tracer, out, "record", work / "traced.jsonl", wl.jobs)
        values.update(schedule)
        problems += gate.check_analyze(out, wl.expect)

    values.pop("calls", None)
    if values.pop("digest_mismatches", 0):
        problems.append("repeated prompts do not reproduce the digests the run sent")
    for layer in BUSY:
        values.setdefault(f"{layer}.busy_s", tracer.busy(layer))
    traced_s = tracer.command_time()
    values["cli.unattributed_s"] = tracer.unattributed()
    values["trace.traced_s"] = traced_s
    values["trace.untraced_wall_s"] = untraced.wall
    values["trace.overhead_ratio"] = traced_s / untraced.wall - 1 if untraced.wall else 0.0
    tracer.write(work.parent / "spans" / f"{wl.name}-{wl.seed}.jsonl")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in PER_LAYER}
    return metrics, problems
