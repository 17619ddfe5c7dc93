"""Command-line surface: analyze, evaluate, convert, stats, export-finetune.

Each command reads only the settings it names in `COMMAND_SETTINGS`, and
only those get a flag, a `PPA_*` environment variable and a config-file
key.  Precedence is flags > environment > config file (--config or
PPA_CONFIG, JSON) > defaults.  A config file may be shared across
commands, so keys a command does not read are ignored.  The settings a
command resolved are printed to stderr at startup so runs are auditable.
Credentials come only from the environment (PPA_API_KEY /
OPENAI_API_KEY).  `analyze` and `evaluate` keep their answers in one
cache file, `--cache` or else `<out>/answers.jsonl`: a record run (the
default) asks the model only what the file does not answer and appends
each answer, so a run into the same `--out` resumes, and --replay reads
the file only, fully offline and deterministic.

`jobs` is the one parallelism setting.  A replay hands whole policies
(`analyze`) or gold documents (`evaluate`) to that many forked worker
processes (one worker runs them in this process), and runs each
policy's segments on one thread.  A record run stays in one process and
asks each distinct prompt once; there `jobs` bounds requests: an
endpoint sees at most 4 x `jobs` at once.  A record `analyze` streams
the segments of all its policies through one window of 4 x `jobs`
segment threads for the whole run, each asking its segment's queries
one at a time, so only the run's tail leaves request slots idle; each
policy's graph is built, checked and written on the main thread, in
input order.  `evaluate` runs serially.

Every file a command writes goes through `_write`, so one that cannot
be written ends the run with one `error:` line, from a worker too.

Each command imports the modules it runs when it starts, so `stats` and
`convert` never load the extraction pipeline, the HTTP client or the
evaluation code.
"""
from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

from . import Error, rdfio
from . import graph as graphmod

if TYPE_CHECKING:
    from .corpus import PolicyDocument
    from .eval.gold import GoldDocument
    from .extraction.backend import Backend
    from .extraction.pipeline import ExtractionResult
    from .extraction.prompts import TaskKind
    from .taxonomy import Taxonomy

ENV_PREFIX = "PPA_"


@dataclass(frozen=True)
class Setting:
    type: Callable[[str], Any]
    default: Any
    help: str


SETTINGS = {
    "model": Setting(str, "gpt-4o-mini", "model name for backend queries"),
    "mode": Setting(str, "record", "cache mode: record or replay"),
    "cache": Setting(str, None, "response cache file (JSONL; default <out>/answers.jsonl)"),
    "taxonomy": Setting(str, None, "taxonomy snapshot (TSV or Turtle/N-Triples)"),
    "threshold": Setting(float, 0.9, "relaxed-match threshold (default 0.9)"),
    "out": Setting(str, "out", "output directory (default ./out)"),
    "jobs": Setting(int, None, "parallel workers (default: the usable CPUs with --replay, "
                               "else 1): policies or gold documents in worker processes "
                               "on a replay; otherwise at most 4 x jobs requests at once "
                               "(a record evaluate runs serially)"),
    "seed": Setting(int, 0, "seed for all randomized steps"),
}

COMMAND_SETTINGS = {
    "analyze": ("model", "mode", "cache", "taxonomy", "out", "jobs"),
    "evaluate": ("model", "mode", "cache", "taxonomy", "threshold", "out", "jobs"),
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
                                    "its answer (the default)")
        else:
            parser.add_argument("--" + name, type=SETTINGS[name].type, help=SETTINGS[name].help)


def _convert(name: str, value: Any, source: str) -> Any:
    try:
        return SETTINGS[name].type(str(value))
    except ValueError:
        raise Error(f"{source}: {value!r} is not a valid {name}") from None


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of `args.command`: flags > environment > config file > defaults."""
    names = COMMAND_SETTINGS[args.command]
    values = {name: SETTINGS[name].default for name in names}
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise Error(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise Error(f"config file {config_path} does not hold a JSON object")
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
        raise Error(f"threshold must be in (0, 1], got {values['threshold']}")
    if "jobs" in values:
        if values["jobs"] is None:
            values["jobs"] = _usable_cpus() if values["mode"] == "replay" else 1
        if values["jobs"] < 1:
            raise Error(f"jobs must be at least 1, got {values['jobs']}")
    print("config: " + json.dumps(values), file=sys.stderr)
    return argparse.Namespace(**values)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _refuse_shared_stems(paths: Sequence[str], reserved: Optional[dict[str, str]] = None) -> None:
    """Each input names its outputs by its stem: two inputs with one stem
    would overwrite each other's files (and, in `analyze`, share one
    policy IRI in `corpus.ttl`).  `reserved` maps each stem that the
    command's own outputs take to the name the error line gives them."""
    seen = dict(reserved or {})
    for path in paths:
        stem = Path(path).stem
        if stem in seen:
            raise Error(f"{seen[stem]} and {path} have the same stem {stem!r}, "
                        "so their outputs would overwrite each other; rename one")
        seen[stem] = path


def _write(path: Path, data: str | bytes, mode: str = "w") -> None:
    """Write `data` to `path` (text as UTF-8; mode "a" appends); a file that
    cannot be written is an `Error` that names it."""
    binary = isinstance(data, bytes)
    try:
        with path.open(mode + ("b" if binary else ""), encoding=None if binary else "utf-8") as f:
            f.write(data)
    except OSError as exc:
        raise Error(f"cannot write {path}: {exc}") from None


def _remove(path: Path) -> None:
    """Remove `path` if it exists; a file that cannot be removed is an
    `Error` that names it."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise Error(f"cannot remove {path}: {exc}") from None


def _out_dir(config: argparse.Namespace, *subdirs: str) -> Path:
    """The output directory, made with its `subdirs` if missing."""
    path = Path(config.out)
    try:
        for sub in ("", *subdirs):
            (path / sub).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Error(f"cannot create output directory: {exc}") from None
    return path


def _load_taxonomy(config: argparse.Namespace) -> Taxonomy:
    from .taxonomy import default_snapshot_path, load_taxonomy
    return load_taxonomy(config.taxonomy or default_snapshot_path())


def _backend(config: argparse.Namespace) -> Backend:
    from .extraction.backend import Backend, BackendConfig
    cache = Path(config.cache) if config.cache else Path(config.out, "answers.jsonl")
    return Backend(BackendConfig(model_name=config.model, cache_mode=config.mode, cache_path=cache))


def _load_gold(gold_dir: str) -> list[GoldDocument]:
    """The gold corpus; a directory without one is a usage error."""
    from .eval.gold import GoldCorpusError, load_gold_corpus
    try:
        return load_gold_corpus(gold_dir)
    except GoldCorpusError as exc:
        raise SystemExit(f"usage error: {exc}")


def _warn_failed_calls(counts: Iterable[tuple[str, int, int]]) -> None:
    """One stderr line for each (task name, failed calls, calls) with a failure."""
    for task, failed, calls in counts:
        if failed:
            print(f"warning: {task}: {failed} of {calls} calls failed", file=sys.stderr)


def _report_problems(header: str, problems: list[str]) -> None:
    shown = 5
    print(header, file=sys.stderr)
    for problem in problems[:shown]:
        print(f"  {problem}", file=sys.stderr)
    if len(problems) > shown:
        print(f"  ... and {len(problems) - shown} more", file=sys.stderr)


@dataclass(frozen=True)
class _Analysis:
    """What every policy of one `analyze` run reads; never changed once built."""
    taxonomy: Taxonomy
    backend: Backend
    out_dir: Path


@dataclass
class _PolicyOutcome:
    """One analyzed policy, as the run reports it in input order.  The
    policy's own files are written already."""
    failure: Optional[tuple[str, list[str]]] = None     # error line, invariant problems
    run_log: str = ""
    summary: str = ""                                   # its line on stdout
    triples: int = 0
    blocks: list[tuple[rdfio.Subject, str]] = field(default_factory=list)  # Turtle statements
    calls: Counter = field(default_factory=Counter)     # see `ExtractionResult.calls`


def _read_policy(path: str) -> PolicyDocument | Error:
    """The policy at `path`, or the error that it could not be read."""
    from .corpus import CorpusError, load_policy
    try:
        return load_policy(path, Path(path).stem)
    except CorpusError as exc:
        return exc


def _write_policy(analysis: _Analysis, path: str,
                  result: ExtractionResult | Error) -> _PolicyOutcome:
    """Check one extracted policy's graph and write its files; a policy
    that could not be read or extracted is reported as it is.  A policy
    that fails removes the files an earlier run wrote for it, so the
    outputs describe this run's policies only; its calls are still logged."""
    stem = Path(path).stem      # the service id that `_read_policy` gives it
    out_dir = analysis.out_dir
    ttl, nt, audit, build_log = files = (
        out_dir / f"{stem}.ttl", out_dir / f"{stem}.nt", out_dir / "audit" / f"{stem}.json",
        out_dir / "logs" / f"{stem}.build.json")
    failure = None
    if isinstance(result, Error):
        failure = (f"error: {path}: {result}", [])
        result = getattr(result, "result", None)    # a `DocumentError`'s calls and notes
    else:
        prpr = graphmod.build_graph(result, stem, graphmod.policy_iri(stem).value,
                                    taxonomy_version=analysis.taxonomy.version)
        problems = graphmod.check_invariants(prpr.triples, analysis.taxonomy)
        if problems:
            failure = (f"error: {path}: {len(problems)} graph invariant violation(s)", problems)
    if failure:
        for stale in files:
            _remove(stale)
        return _PolicyOutcome(failure) if result is None else _PolicyOutcome(
            failure, result.run_log_text(graphmod.BuildLog()), calls=result.calls())
    blocks = rdfio.turtle_blocks(prpr.triples)
    _write(ttl, rdfio.join_turtle(rdfio.turtle_header(prpr.triples.prefixes),
                                  map(itemgetter(1), blocks)))
    _write(nt, rdfio.serialize(prpr.triples, "ntriples"))
    _write(audit, result.audit_json() + "\n")
    _write(build_log, json.dumps(prpr.build_log.to_dict(), indent=2, ensure_ascii=False) + "\n")
    return _PolicyOutcome(
        run_log=result.run_log_text(prpr.build_log),
        summary=f"{path}: {len(prpr)} triples, {prpr.practices} practices -> {ttl}",
        triples=len(prpr), blocks=blocks, calls=result.calls())


def _analyze_policy(analysis: _Analysis, path: str) -> _PolicyOutcome:
    """One policy read, extracted, checked and written: a replay worker's task."""
    from .extraction.pipeline import extract_documents
    (result,) = extract_documents([_read_policy(path)], analysis.backend, analysis.taxonomy)
    return _write_policy(analysis, path, result)


@contextmanager
def _policy_outcomes(analysis: _Analysis, paths: Sequence[str],
                     config: argparse.Namespace) -> Iterator[Iterable[_PolicyOutcome]]:
    """Each policy's outcome, in input order.  A replay analyzes whole
    policies (`_analyze_policy`), in this process with one worker, else in
    forked worker processes.  A record run extracts the segments of
    every policy in one stream (`extract_documents`), and each policy's
    graph is built, checked and written here, in order."""
    if config.mode == "replay":
        with _ordered_map(partial(_analyze_policy, analysis), paths,
                          _replay_workers(config, len(paths))) as outcomes:
            yield outcomes
        return
    from .extraction.pipeline import extract_documents
    with closing(extract_documents(map(_read_policy, paths), analysis.backend,
                                   analysis.taxonomy, config.jobs)) as results:
        yield map(partial(_write_policy, analysis), paths, results)


# the function and the items a forked worker serves, set before the pool forks
_worker_job: Optional[tuple[Callable, Sequence]] = None


def _call_in_worker(index: int) -> Any:
    fn, items = _worker_job
    return fn(items[index])


def _replay_workers(config: argparse.Namespace, items: int) -> int:
    """Worker processes for `items` policies or gold documents.  A replay
    is CPU work only, so it forks up to `jobs` of them; a record run
    stays in one process, since the cache locks only within one."""
    if config.mode == "replay" and hasattr(os, "fork"):
        return min(config.jobs, items)
    return 1


@contextmanager
def _ordered_map(fn: Callable[[Any], Any], items: Sequence,
                 workers: int) -> Iterator[Iterable]:
    """`fn` of each item, in input order: in this process with one worker,
    else on `workers` forked worker processes.

    The processes are forked, not spawned, so that they inherit `fn` and
    `items` unpickled, and with them everything `fn` reads (taxonomy,
    cache, corpus): a worker receives item indices and returns results,
    and only those are pickled.  Fork only before any thread has started.
    """
    if workers == 1:
        yield map(fn, items)
        return
    import multiprocessing      # here, not at the top: the import costs every start ~6 ms
    global _worker_job
    _worker_job = (fn, items)
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield pool.imap(_call_in_worker, range(len(items)))
        pool.close()
        pool.join()


def cmd_analyze(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    _refuse_shared_stems(args.policies, {"corpus": "the combined graph corpus.ttl"})
    taxonomy = _load_taxonomy(config)
    backend = _backend(config)
    out_dir = _out_dir(config, "audit", "logs")

    analysis = _Analysis(taxonomy, backend, out_dir)
    failures = triples = 0
    policy_blocks = []
    calls: Counter = Counter()
    run_log = out_dir / "run_log.jsonl"
    # each policy's records are appended after its files; the backend's
    # connections are closed once the segment threads are joined
    with closing(backend), _policy_outcomes(analysis, args.policies, config) as outcomes:
        _write(run_log, "")
        for outcome in outcomes:
            _write(run_log, outcome.run_log, "a")
            calls.update(outcome.calls)
            if outcome.failure:
                _report_problems(*outcome.failure)
                failures += 1
                continue
            print(outcome.summary)
            triples += outcome.triples
            policy_blocks.append(outcome.blocks)

    # policies have disjoint subjects (one policy IRI per stem), so the
    # union graph's statements are the policies' statements in term order
    merged = heapq.merge(*policy_blocks, key=itemgetter(0))
    _write(out_dir / "corpus.ttl", rdfio.join_turtle(
        rdfio.turtle_header(graphmod.STANDARD_PREFIXES), map(itemgetter(1), merged)))
    print(f"combined corpus graph: {out_dir / 'corpus.ttl'} ({triples} triples)")
    from .extraction.prompts import TaskKind
    _warn_failed_calls((task.value, calls[task.value, True], calls[task.value, True]
                        + calls[task.value, False]) for task in TaskKind)
    return 1 if failures else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .corpus import read_annotation_conf, validate_gold_labels
    from .eval.benchmark import ALL_TASKS, build_report, format_report_table, score_document
    config = resolve_config(args)
    taxonomy = _load_taxonomy(config)
    corpus = _load_gold(args.gold_dir)
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
    # each named task runs once, in the order first named
    tasks = tuple(dict.fromkeys(map(_task_by_name, args.tasks))) if args.tasks else ALL_TASKS
    out_dir = _out_dir(config)
    score = partial(score_document, backend=backend, taxonomy=taxonomy, tasks=tasks,
                    threshold=config.threshold, denominator=args.denominator)
    with closing(backend), \
            _ordered_map(score, corpus, _replay_workers(config, len(corpus))) as documents:
        report = build_report(config.model, tasks, documents)
    table = format_report_table([report])
    _write(out_dir / "report.tsv", table)
    _write(out_dir / "report.json", report.to_json() + "\n")
    print(table, end="")
    print(f"report written to {out_dir / 'report.tsv'}", file=sys.stderr)
    _warn_failed_calls((task.value, report.scores[task].n_failed, report.scores[task].n_calls)
                       for task in ALL_TASKS if task in report.scores)
    return 0


def _task_by_name(name: str) -> TaskKind:
    from .extraction.prompts import TaskKind
    normalized = name.strip().casefold().replace("_", "-")
    for task in TaskKind:
        if task.value == normalized:
            return task
    raise Error(f"unknown task {name!r}; choose from " + ", ".join(t.value for t in TaskKind))


def _read_graph_file(path: str) -> rdfio.Graph:
    try:
        return rdfio.parse_turtle(Path(path).read_bytes())
    except (OSError, rdfio.RdfError) as exc:
        raise Error(f"cannot read graph {path}: {exc}") from None


def cmd_convert(args: argparse.Namespace) -> int:
    from .policyconv import ConversionProfile, convert
    config = resolve_config(args)
    _refuse_shared_stems(args.graphs)
    profile = ConversionProfile.load(args.profile) if args.profile else ConversionProfile.default()
    for note in profile.unknown_keys():
        print(f"warning: profile {args.profile}: {note}", file=sys.stderr)
    out_dir = _out_dir(config)
    failures = 0
    for path in args.graphs:
        try:
            g = _read_graph_file(path)
        except Error as exc:        # reported like a graph that breaks an invariant
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
            continue
        problems = graphmod.check_invariants(g)
        if problems:
            _report_problems(f"error: {path}: {len(problems)} graph invariant violation(s)",
                             problems)
            failures += 1
            continue
        stem = Path(path).stem
        (odrl_graph, odrl_report), (dtou_graph, dtou_report) = convert(g, profile)
        _write(out_dir / f"{stem}.odrl.ttl", rdfio.serialize(odrl_graph, "turtle"))
        _write(out_dir / f"{stem}.psdtou.ttl", rdfio.serialize(dtou_graph, "turtle"))
        report = {"odrl": odrl_report.to_dict(), "psdtou": dtou_report.to_dict()}
        _write(out_dir / f"{stem}.conversion.json", json.dumps(report, indent=2) + "\n")
        print(f"{path}: {odrl_report.permissions} permissions, "
              f"{dtou_report.input_specs} input specs, "
              f"{dtou_report.sharing_entries} sharing entries")
        for note in odrl_report.to_dict()["unmapped_types"]:
            print(f"  unmapped practice type: {note}", file=sys.stderr)
    return 1 if failures else 0


def cmd_stats(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = _out_dir(config)
    # the totals need every graph, so the first unreadable one ends the run
    graphs = [_read_graph_file(path) for path in args.graphs]
    stats = graphmod.stats(graphs)
    tsv = stats.to_tsv(top_k=args.top)
    print(tsv, end="")
    _write(out_dir / "stats.tsv", tsv)
    _write(out_dir / "stats.json", json.dumps(stats.to_dict(top_k=args.top), indent=2) + "\n")
    return 0


def cmd_export_finetune(args: argparse.Namespace) -> int:
    from .eval.finetune import FinetuneSpec, jsonl_text, select_finetune_data
    config = resolve_config(args)
    taxonomy = _load_taxonomy(config)
    corpus = _load_gold(args.gold_dir)
    task = _task_by_name(args.task)
    spec = FinetuneSpec.parse(args.spec, seed=config.seed)
    out_dir = _out_dir(config)
    train, validation = select_finetune_data(corpus, task, spec, taxonomy)
    train_path = out_dir / f"{task.value}-{spec.to_string()}-train.jsonl"
    val_path = out_dir / f"{task.value}-{spec.to_string()}-validation.jsonl"
    _write(train_path, jsonl_text(train))
    _write(val_path, jsonl_text(validation))
    print(f"{len(train)} training and {len(validation)} validation records "
          f"-> {train_path}, {val_path}")
    return 0


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


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
    p.add_argument("--top", type=_non_negative_int, default=10, help="top-k class table size")
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
    except Error as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
