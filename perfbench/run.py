#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ppanalyze toolchain.

Run from the root of a source checkout (standard library only):

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

Workloads:

- ``paper-batch``: the paper's batch on replayed responses, in one
  repetition: ``analyze --replay`` over a paper-scale corpus (100
  policies), ``stats`` on its ``corpus.ttl``, ``convert`` on a combined
  5-policy graph and ``evaluate --replay`` over 30 brat gold documents.
- ``record-latency``: ``analyze --record --jobs 2`` into an empty cache
  against a loopback stub endpoint that adds a fixed delay per call.

The benchmark generates its inputs from the seed (``gen.py``), runs the
real CLI (``python3 -m ppanalyze.cli`` with ``src`` on the path) in child
processes, checks the outputs against the generator's plan (``gate.py``)
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the CLI commands of the measured repetitions and
``failed`` those that exited non-zero or failed the gate.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over repetitions of the workload (repeated until ``--seconds`` have
passed, at least ``min_reps`` times):

- ``setup_s``: median wall time of a fresh interpreter that imports
  ``ppanalyze.cli``, loads the taxonomy and constructs a ``Backend``
  (and its ``ResponseCache``) on each of the workload's caches, measured
  on repeated starts after one warm-up start.
- ``wall_s``, ``cpu_s`` (user + system), ``peak_rss_mb`` (``ru_maxrss``)
  of the workload's CLI command(s), from ``os.wait4`` on each child.
- ``segments_per_s``, ``triples_per_s``, ``samples_per_s``: work items
  per second of ``wall_s``.  Segments are the policy segments analyzed;
  triples are the practice-graph triples ``analyze`` writes plus those
  ``convert`` reads; samples are the gold task samples ``evaluate``
  scores (``paper-batch``) or the model queries answered
  (``record-latency``).
- ``failed_ratio``: model queries with an errored trace (in
  ``run_log.jsonl`` or ``report.json``) over model queries.  A run that
  fails the gate counts every query as failed.

With ``--trace 1`` it runs the workload once through the CLI without
tracing and once in process with a span around every public call into a
layer, and prints the per-layer metrics (``layers.py``).

Generated inputs, outputs and span files live under ``.perfbench/`` in the
checkout; a run removes its own working directory when it ends.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEADLINE_S = 170.0          # every run ends well within the 180 s limit
PROXY_VARS = {"http_proxy", "https_proxy", "all_proxy", "ftp_proxy", "no_proxy"}

E2E = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
       ("segments_per_s", "1/s"), ("triples_per_s", "1/s"), ("samples_per_s", "1/s"),
       ("failed_ratio", "ratio")]

SETUP_SNIPPET = """\
import os, sys
from pathlib import Path
import ppanalyze.cli
from ppanalyze.extraction.backend import Backend, BackendConfig
from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy
load_taxonomy(default_snapshot_path())
for cache in sys.argv[3:]:
    Backend(BackendConfig(model_name=sys.argv[1], cache_mode=sys.argv[2],
                          cache_path=Path(cache)))
os._exit(0)
"""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Rep:
    """One repetition of a workload's CLI command(s)."""
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    commands: int = 0
    commands_failed: int = 0
    ops: int = 0
    ops_failed: int = 0
    work: dict = field(default_factory=dict)     # segments / triples / samples
    problems: list = field(default_factory=list)
    digest: str = ""

    def add(self, child: Child, name: str) -> bool:
        self.wall += child.wall
        self.cpu += child.cpu
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        self.commands += 1
        if child.code != 0:
            self.commands_failed += 1
            self.problems.append(f"{name} exited with code {child.code}")
        return child.code == 0


class Runner:
    """Starts CLI children with a clean environment and a hard deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PPA_") and k != "OPENAI_API_KEY"
               and k.lower() not in PROXY_VARS}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
        self.env = env

    def run(self, argv: list[str], extra_env: dict | None = None) -> Child:
        env = dict(self.env, **(extra_env or {}))
        log = self.work / "child.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024)

    def cli(self, *args: str, extra_env: dict | None = None) -> Child:
        return self.run(["-m", "ppanalyze.cli", *args], extra_env)

    def setup_time(self, backend: tuple, starts: int, extra_env: dict | None) -> float:
        argv = ["-c", SETUP_SNIPPET, *backend]
        times = []
        for i in range(starts + 1):              # the first start warms caches
            child = self.run(argv, extra_env)
            if child.code != 0:
                raise SystemExit("error: set-up interpreter failed")
            if i:
                times.append(child.wall)
        return statistics.median(times)


# -- workloads --

class Workload:
    """A set of generated inputs and the CLI commands one repetition runs;
    every workload starts with `analyze` over a generated corpus."""
    name = ""
    policies = mean_segments = 0
    min_reps = 2
    setup_starts = 9

    def __init__(self, seed: int, work: Path, runner: Runner):
        import gen
        self.gen = gen
        self.seed = seed
        self.work = work
        self.runner = runner
        self.extra_env: dict = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def plan_corpus(self) -> list:
        """Plan and write the corpus `analyze` reads, with its replay table."""
        corpus = self.gen.make_corpus(self.seed, self.name, self.policies, self.mean_segments)
        self.gen.write_plan(corpus, self.work / "plan.jsonl")
        self.table, self.expect = self.gen.plan_calls(corpus, self.seed, self.name)
        self.paths = [str(p) for p in self.gen.write_policies(corpus, self.work / "policies")]
        return corpus

    def backend(self) -> tuple:
        """(model, cache mode, cache path, ...): the set-up builds one
        `Backend` per cache path."""
        raise NotImplementedError

    def rep(self, k: int) -> Rep:
        raise NotImplementedError

    def finish(self, reps: list[Rep]) -> list[str]:
        return []

    def close(self) -> None:
        pass


class PaperBatch(Workload):
    """The paper's batch on replayed responses: `analyze --replay` over a
    paper-scale corpus, `stats` on its `corpus.ttl`, `convert` on a combined
    graph below paper scale, and `evaluate --replay` over brat gold."""
    name = "paper-batch"
    policies, mean_segments = 100, 118
    convert_policies = 5
    gold_docs, gold_segments = 30, 60
    setup_starts = 3

    def prepare(self) -> None:
        self.plan_corpus()
        self.cache = self.work / "cache.jsonl"
        self.gen.write_cache(self.table, self.cache)
        small = self.gen.make_corpus(self.seed, "convert", self.convert_policies,
                                     self.mean_segments)
        self.gen.write_plan(small, self.work / "convert-plan.jsonl")
        _, self.convert_expect = self.gen.plan_calls(small, self.seed, "convert")
        self.graph = self.work / "corpus.ttl"
        self.gen.write_corpus_graph(small, self.graph)
        self.gold = self.work / "gold"
        gold_table, self.gold_expect = self.gen.make_gold(self.seed, self.gold, self.gold_docs,
                                                          self.gold_segments)
        self.gold_cache = self.work / "gold-cache.jsonl"
        self.gen.write_cache(gold_table, self.gold_cache)

    def backend(self):
        return (self.gen.MODEL, "replay", str(self.cache), str(self.gold_cache))

    def rep(self, k: int) -> Rep:
        import gate
        rep = Rep()
        out = self.work / f"rep{k}"
        model = ("--model", self.gen.MODEL)
        ok = (rep.add(self.runner.cli("analyze", *self.paths, "--replay", "--cache",
                                      str(self.cache), *model, "--out", str(out)), "analyze")
              and rep.add(self.runner.cli("stats", str(out / "corpus.ttl"), "--out",
                                          str(out / "stats")), "stats")
              and rep.add(self.runner.cli("convert", str(self.graph), "--out",
                                          str(out / "conv")), "convert")
              and rep.add(self.runner.cli("evaluate", str(self.gold), "--replay", "--cache",
                                          str(self.gold_cache), *model, "--out",
                                          str(out / "eval")), "evaluate"))
        if ok:
            rep.problems += gate.check_analyze(out, self.expect)
            rep.problems += gate.check_stats(out / "stats" / "stats.json", self.expect)
            rep.problems += gate.check_convert(out / "conv" / "corpus.conversion.json",
                                               self.convert_expect)
            report = out / "eval" / "report.json"
            rep.problems += gate.check_evaluate(report, self.gold_expect)
            rep.ops, rep.ops_failed = gate.run_log_counts(out / "run_log.jsonl")
            tasks = json.loads(report.read_text())["tasks"]
            rep.ops += self.gold_expect.queries
            rep.ops_failed += sum(t["failed_queries"] for t in tasks)
            rep.digest = gate.tree_digest(out)
        rep.ops = rep.ops or self.expect.queries + self.gold_expect.queries
        rep.work = {"segments": self.expect.segments,
                    "triples": self.expect.triples + self.convert_expect.triples,
                    "samples": sum(self.gold_expect.samples.values())}
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def finish(self, reps):
        digests = {r.digest for r in reps}
        if len(reps) < 2 or len(digests) != 1:
            return ["replay outputs are not byte-identical across repetitions"]
        return []


class RecordLatency(Workload):
    """`analyze --record --jobs 2` against the loopback stub endpoint."""
    name = "record-latency"
    policies, mean_segments = 2, 40
    delay_s = 0.020
    jobs = min(2, os.cpu_count() or 1)      # at most nproc workers and connections

    def prepare(self) -> None:
        import stub
        corpus = self.plan_corpus()
        texts = [seg.text for pol in corpus for seg in pol.segments]
        self.unique_segments = {t for t in texts if texts.count(t) == 1}
        self.stub = stub.StubEndpoint(self.table, self.delay_s).__enter__()
        self.extra_env = {"PPA_API_BASE": self.stub.base_url, "PPA_API_KEY": "bench-dummy-key"}

    def close(self) -> None:
        if hasattr(self, "stub"):
            self.stub.__exit__(None, None, None)

    def backend(self):
        return (self.gen.MODEL, "record", str(self.work / "setup-cache.jsonl"))

    def rep(self, k: int) -> Rep:
        import gate
        rep = Rep()
        out, cache = self.work / f"rep{k}", self.work / f"rep{k}.jsonl"
        self.stub.reset()
        if rep.add(self.runner.cli("analyze", *self.paths, "--record", "--jobs", str(self.jobs),
                                   "--cache", str(cache), "--model", self.gen.MODEL,
                                   "--out", str(out), extra_env=self.extra_env), "analyze"):
            self.schedule = self.stub.schedule_metrics(self.unique_segments)
            rep.problems += gate.check_analyze(out, self.expect)
            if self.stub.unknown:
                rep.problems.append(f"{self.stub.unknown} requests not in the plan")
            rep.ops, rep.ops_failed = gate.run_log_counts(out / "run_log.jsonl")
            if k == 0:                          # one check per run: it costs an analyze
                rep.problems += self.replay_matches(out, cache)
        rep.ops = rep.ops or self.expect.queries
        rep.work = {"segments": self.expect.segments, "triples": self.expect.triples,
                    "samples": self.expect.queries}
        shutil.rmtree(out, ignore_errors=True)
        cache.unlink(missing_ok=True)
        return rep

    def replay_matches(self, out: Path, cache: Path) -> list[str]:
        """A replay of the recorded cache must give the same graph bytes."""
        replay = self.work / "replay-check"
        child = self.runner.cli("analyze", *self.paths, "--replay", "--cache", str(cache),
                                "--model", self.gen.MODEL, "--out", str(replay))
        problems = [] if child.code == 0 else ["replay of the recorded cache failed"]
        for path in sorted([*out.glob("*.ttl"), *out.glob("*.nt")]):
            other = replay / path.name
            if not other.exists() or other.read_bytes() != path.read_bytes():
                problems.append(f"{path.name} differs from the replay of its cache")
        shutil.rmtree(replay, ignore_errors=True)
        return problems


WORKLOADS = {w.name: w for w in (PaperBatch, RecordLatency)}


# -- driver --

def measure(wl: Workload, seconds: float, deadline: float) -> list[Rep]:
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(wl.rep(len(reps)))
        took = time.perf_counter() - t0
        print(f"rep {len(reps)}: wall {reps[-1].wall:.3f} s, cpu {reps[-1].cpu:.3f} s",
              file=sys.stderr)
        if len(reps) >= wl.min_reps and time.perf_counter() - start >= seconds:
            break
        if time.monotonic() + 1.5 * took > deadline:
            break
    return reps


def end_to_end(wl: Workload, reps: list[Rep], setup_s: float, correct: bool) -> dict:
    med = lambda xs: statistics.median(xs)
    ops = sum(r.ops for r in reps)
    values = {
        "setup_s": setup_s,
        "wall_s": med([r.wall for r in reps]),
        "cpu_s": med([r.cpu for r in reps]),
        "peak_rss_mb": med([r.rss_mb for r in reps]),
        "segments_per_s": med([r.work["segments"] / r.wall for r in reps]),
        "triples_per_s": med([r.work["triples"] / r.wall for r in reps]),
        "samples_per_s": med([r.work["samples"] / r.wall for r in reps]),
        "failed_ratio": sum(r.ops_failed for r in reps) / ops if correct else 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def run(args: argparse.Namespace, work: Path, deadline: float) -> dict:
    runner = Runner(work, deadline)
    wl = WORKLOADS[args.workload](args.seed, work, runner)
    try:
        wl.prepare()
        if args.trace:
            import layers
            reps = [wl.rep(0)]
            metrics, traced_problems = layers.per_layer(wl, reps[0], work)
            problems = reps[0].problems + traced_problems
        else:
            setup_s = runner.setup_time(wl.backend(), wl.setup_starts, wl.extra_env)
            reps = measure(wl, args.seconds, deadline)
            problems = [p for r in reps for p in r.problems] + wl.finish(reps)
            metrics = end_to_end(wl, reps, setup_s, not problems)
    finally:
        wl.close()
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    attempted = sum(r.commands for r in reps)
    failed = attempted if problems else sum(r.commands_failed for r in reps)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ppanalyze" / "cli.py").is_file():
        print(f"error: no ppanalyze sources under {ROOT / 'src'}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True          # keep the checkout free of benchmark bytecode
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
