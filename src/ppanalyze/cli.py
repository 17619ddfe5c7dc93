"""Command-line surface: analyze, evaluate, convert, stats, export-finetune.

Each command reads only the settings it names in `COMMAND_SETTINGS`, and
only those get a flag, a `PPA_*` environment variable and a config-file
key.  Precedence is flags > environment > config file (--config or
PPA_CONFIG, JSON) > defaults.  A config file may be shared across
commands, so keys a command does not read are ignored.  The settings a
command resolved are printed to stderr at startup so runs are auditable.
Credentials come only from the environment (PPA_API_KEY /
OPENAI_API_KEY); with --replay every command is fully offline and
deterministic.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from . import Error, rdfio
from . import graph as graphmod
from .corpus import CorpusError, load_policy, read_annotation_conf, validate_gold_labels
from .eval.benchmark import ALL_TASKS, format_report_table, run_benchmark
from .eval.finetune import FinetuneSpec, select_finetune_data, write_jsonl
from .eval.gold import GoldCorpusError, load_gold_corpus
from .extraction.backend import Backend, BackendConfig
from .extraction.pipeline import DocumentError, ExtractionResult, extract_document
from .extraction.prompts import TaskKind
from .policyconv import ConversionProfile, to_odrl, to_psdtou
from .taxonomy import Taxonomy, default_snapshot_path, load_taxonomy

ENV_PREFIX = "PPA_"


@dataclass(frozen=True)
class Setting:
    type: Callable[[str], Any]
    default: Any
    help: str


SETTINGS = {
    "model": Setting(str, "gpt-4o-mini", "model name for backend queries"),
    "mode": Setting(str, "live", "cache mode: live, record or replay"),
    "cache": Setting(str, None, "response cache file (JSONL); needs --record or --replay"),
    "taxonomy": Setting(str, None, "taxonomy snapshot (TSV or Turtle/N-Triples)"),
    "threshold": Setting(float, 0.9, "relaxed-match threshold (default 0.9)"),
    "out": Setting(str, "out", "output directory (default ./out)"),
    "jobs": Setting(int, 1, "parallel segment workers"),
    "seed": Setting(int, 0, "seed for all randomized steps"),
}

COMMAND_SETTINGS = {
    "analyze": ("model", "mode", "cache", "taxonomy", "out", "jobs"),
    "evaluate": ("model", "mode", "cache", "taxonomy", "threshold", "out"),
    "convert": ("out",),
    "stats": ("out",),
    "export-finetune": ("taxonomy", "seed", "out"),
}

def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", help="JSON config file (keys this command does not read "
                                         "are ignored)")
    for name in COMMAND_SETTINGS[command]:
        if name == "mode":
            group = parser.add_mutually_exclusive_group()
            group.add_argument("--replay", dest="mode", action="store_const", const="replay",
                               help="serve responses from the cache only (offline, deterministic)")
            group.add_argument("--record", dest="mode", action="store_const", const="record",
                               help="serve cache hits; query the model on a miss and append "
                                    "its answer")
        else:
            parser.add_argument("--" + name, type=SETTINGS[name].type, help=SETTINGS[name].help)


def _convert(name: str, value: Any, source: str) -> Any:
    try:
        return SETTINGS[name].type(str(value))
    except ValueError:
        raise SystemExit(f"error: {source}: {value!r} is not a valid {name}") from None


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of `args.command`: flags > environment > config file > defaults."""
    names = COMMAND_SETTINGS[args.command]
    values = {name: SETTINGS[name].default for name in names}
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise SystemExit(f"error: config file {config_path} does not hold a JSON object")
        for name in names:
            if file_values.get(name) is not None:
                values[name] = _convert(name, file_values[name], f"{config_path}: key {name!r}")
    for name in names:
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            values[name] = _convert(name, env, ENV_PREFIX + name.upper())
    for name in names:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    if "threshold" in values and not 0 < values["threshold"] <= 1:
        raise SystemExit(f"error: threshold must be in (0, 1], got {values['threshold']}")
    print("config: " + json.dumps(values), file=sys.stderr)
    return argparse.Namespace(**values)


def _out_dir(config: argparse.Namespace) -> Path:
    path = Path(config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_taxonomy(config: argparse.Namespace) -> Taxonomy:
    return load_taxonomy(config.taxonomy or default_snapshot_path())


def _backend(config: argparse.Namespace) -> Backend:
    return Backend(BackendConfig(model_name=config.model, cache_mode=config.mode,
                                 cache_path=Path(config.cache) if config.cache else None))


def _report_problems(header: str, problems: list[str]) -> None:
    shown = 5
    print(header, file=sys.stderr)
    for problem in problems[:shown]:
        print(f"  {problem}", file=sys.stderr)
    if len(problems) > shown:
        print(f"  ... and {len(problems) - shown} more", file=sys.stderr)


_encode_str = json.encoder.encode_basestring
# one encoder for every run-log line: `json.dumps` with a non-default
# argument builds a new encoder on each call
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def dumps_indent2(obj: Any) -> str:
    """The text of `json.dumps(obj, indent=2, ensure_ascii=False)`.

    `json` runs `indent` through its pure-Python encoder; this writes
    the containers and strings that make up the audit files directly.  Any
    other value (floats, subclasses) goes through `json.dumps`, so it reads
    as `json` writes it.  Unlike `json`, a dict key that is not a `str`
    raises `TypeError` instead of being converted.
    """
    out: list[str] = []
    _dump(obj, "\n", out)
    return "".join(out)


def _dump(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of `value`, whose lines start with `newline`."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _dump(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _dump(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        # json escapes every newline inside a string, so each "\n" here
        # starts a line of the value
        out.append(json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline))


def _write_json(path: Path, obj: Any) -> None:
    path.write_text(dumps_indent2(obj) + "\n", encoding="utf-8")


def _run_log_records(service_id: str, result: ExtractionResult,
                     build_log: graphmod.BuildLog) -> Iterator[dict]:
    """One policy's run-log records: its calls and skips, segment notes and
    build skips."""
    for seg in result.segments:
        for name, trace in sorted(seg.traces.items()):
            yield {
                "event": "backend_call" if not trace.skipped else "task_skipped",
                "service_id": service_id,
                "segment": seg.segment_index,
                "task": name,
                "digest": trace.digest,
                "from_cache": trace.from_cache,
                "repaired": trace.repaired,
                "repair_stages": list(trace.repair_stages),
                "error": trace.error,
            }
        for note in seg.notes:
            yield {
                "event": "note",
                "service_id": service_id,
                "segment": seg.segment_index,
                "note": note,
            }
    for record in build_log.records:
        yield {"event": "build_skip", "service_id": service_id, "note": record}


def cmd_analyze(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    taxonomy = _load_taxonomy(config)
    backend = _backend(config)
    out_dir = _out_dir(config)
    (out_dir / "audit").mkdir(exist_ok=True)
    (out_dir / "logs").mkdir(exist_ok=True)

    combined = rdfio.Graph()
    graphmod.bind_standard_prefixes(combined)
    failures = 0

    # each policy's records are written and flushed after its files
    with (out_dir / "run_log.jsonl").open("w", encoding="utf-8") as run_log:
        for path in args.policies:
            service_id = Path(path).stem
            policy_uri = "urn:pp-analyze:policy#" + urllib.parse.quote(service_id, safe="")
            try:
                doc = load_policy(path, service_id)
                result = extract_document(doc, backend, taxonomy, jobs=config.jobs)
            except (CorpusError, DocumentError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                failures += 1
                continue

            prpr = graphmod.build_graph(result, service_id, policy_uri,
                                        taxonomy_version=taxonomy.version)
            problems = graphmod.check_invariants(prpr.triples, taxonomy)
            if problems:
                _report_problems(f"error: {path}: {len(problems)} graph invariant violation(s)",
                                 problems)
                failures += 1
                continue
            (out_dir / f"{service_id}.ttl").write_bytes(rdfio.serialize(prpr.triples, "turtle"))
            (out_dir / f"{service_id}.nt").write_bytes(rdfio.serialize(prpr.triples, "ntriples"))
            combined.update(prpr.triples)

            _write_json(out_dir / "audit" / f"{service_id}.json", result.to_audit_dict())
            _write_json(out_dir / "logs" / f"{service_id}.build.json", prpr.build_log.to_dict())
            for record in _run_log_records(service_id, result, prpr.build_log):
                run_log.write(_encode_line(record) + "\n")
            run_log.flush()

            print(f"{path}: {len(prpr)} triples, "
                  f"{len(prpr.provenance)} practices -> {out_dir / (service_id + '.ttl')}")

    (out_dir / "corpus.ttl").write_bytes(rdfio.serialize(combined, "turtle"))
    print(f"combined corpus graph: {out_dir / 'corpus.ttl'} ({len(combined)} triples)")
    return 1 if failures else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    taxonomy = _load_taxonomy(config)
    corpus = load_gold_corpus(args.gold_dir)
    conf = Path(args.gold_dir) / "annotation.conf"
    if conf.exists():
        inventory = read_annotation_conf(conf)
        problems = [f"{gold_doc.gold.doc_id}: {problem}" for gold_doc in corpus
                    for problem in validate_gold_labels(gold_doc.gold, inventory)]
        if problems:
            _report_problems(f"usage error: {len(problems)} gold label(s) not declared in {conf}",
                             problems)
            raise SystemExit(2)
    backend = _backend(config)
    tasks = None
    if args.tasks:
        tasks = [_task_by_name(name) for name in args.tasks]
    report = run_benchmark(corpus, backend, tasks=tasks, taxonomy=taxonomy,
                           threshold=config.threshold, denominator=args.denominator)
    table = format_report_table([report])
    out_dir = _out_dir(config)
    (out_dir / "report.tsv").write_text(table, encoding="utf-8")
    (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(table, end="")
    print(f"report written to {out_dir / 'report.tsv'}", file=sys.stderr)
    return 0


def _task_by_name(name: str) -> TaskKind:
    normalized = name.strip().casefold().replace("_", "-")
    for task in ALL_TASKS:
        if task.value == normalized:
            return task
    raise SystemExit(
        f"error: unknown task {name!r}; choose from "
        + ", ".join(t.value for t in ALL_TASKS)
    )


def _read_graph_file(path: str) -> rdfio.Graph:
    try:
        return rdfio.parse_turtle(Path(path).read_bytes())
    except (OSError, rdfio.RdfError) as exc:
        raise SystemExit(f"error: cannot read graph {path}: {exc}")


def cmd_convert(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    profile = ConversionProfile.load(args.profile) if args.profile else ConversionProfile.default()
    out_dir = _out_dir(config)
    failures = 0
    for path in args.graphs:
        g = _read_graph_file(path)
        problems = graphmod.check_invariants(g)
        if problems:
            _report_problems(f"error: {path}: {len(problems)} graph invariant violation(s)",
                             problems)
            failures += 1
            continue
        stem = Path(path).stem
        odrl_graph, odrl_report = to_odrl(g, profile)
        dtou_graph, dtou_report = to_psdtou(g, profile)
        (out_dir / f"{stem}.odrl.ttl").write_bytes(rdfio.serialize(odrl_graph, "turtle"))
        (out_dir / f"{stem}.psdtou.ttl").write_bytes(rdfio.serialize(dtou_graph, "turtle"))
        report = {"odrl": odrl_report.to_dict(), "psdtou": dtou_report.to_dict()}
        (out_dir / f"{stem}.conversion.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"{path}: {odrl_report.permissions} permissions, "
              f"{dtou_report.input_specs} input specs, "
              f"{dtou_report.sharing_entries} sharing entries")
        for note in odrl_report.to_dict()["unmapped_types"]:
            print(f"  unmapped practice type: {note}", file=sys.stderr)
    return 1 if failures else 0


def cmd_stats(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    graphs = [_read_graph_file(path) for path in args.graphs]
    stats = graphmod.stats(graphs)
    print(stats.to_tsv(top_k=args.top), end="")
    out_dir = _out_dir(config)
    (out_dir / "stats.tsv").write_text(stats.to_tsv(top_k=args.top), encoding="utf-8")
    (out_dir / "stats.json").write_text(
        json.dumps(stats.to_dict(top_k=args.top), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_export_finetune(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    taxonomy = _load_taxonomy(config)
    corpus = load_gold_corpus(args.gold_dir)
    task = _task_by_name(args.task)
    spec = FinetuneSpec.parse(args.spec, seed=config.seed)
    train, validation = select_finetune_data(corpus, task, spec, taxonomy)
    out_dir = _out_dir(config)
    train_path = out_dir / f"{task.value}-{spec.to_string()}-train.jsonl"
    val_path = out_dir / f"{task.value}-{spec.to_string()}-validation.jsonl"
    write_jsonl(train, train_path)
    write_jsonl(validation, val_path)
    print(f"{len(train)} training and {len(validation)} validation records "
          f"-> {train_path}, {val_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppanalyze",
        description="Convert privacy policies into practice graphs, formal "
                    "policies, and benchmark scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="extract policies into practice graphs")
    p.add_argument("policies", nargs="+", help="plain-text policy files")
    _add_settings(p, "analyze")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evaluate", help="score pipeline tasks against gold annotations")
    p.add_argument("gold_dir", help="directory of brat .txt/.ann pairs")
    p.add_argument("--tasks", nargs="+", help="subset of tasks to score")
    p.add_argument("--denominator", choices=["max", "gold", "mean"], default="max",
                   help="lcs-ratio denominator mode for relaxed matching")
    _add_settings(p, "evaluate")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("convert", help="convert practice graphs to ODRL and psDToU")
    p.add_argument("graphs", nargs="+", help="practice graph files (.ttl/.nt)")
    p.add_argument("--profile", help="conversion profile JSON")
    _add_settings(p, "convert")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="corpus statistics over practice graphs")
    p.add_argument("graphs", nargs="+", help="practice graph files (.ttl/.nt)")
    p.add_argument("--top", type=int, default=10, help="top-k class table size")
    _add_settings(p, "stats")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-finetune", help="export fine-tuning datasets")
    p.add_argument("gold_dir", help="directory of brat .txt/.ann pairs")
    p.add_argument("--task", required=True, help="pipeline task to export")
    p.add_argument("--spec", required=True,
                   help="selection spec 'a-b-c-d' (e.g. 10-30-2-6)")
    _add_settings(p, "export-finetune")
    p.set_defaults(func=cmd_export_finetune)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; its exit status, or `SystemExit` with one error line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GoldCorpusError as exc:
        raise SystemExit(f"usage error: {exc}")
    except Error as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
