"""`analyze --replay` runs the same at every `jobs` setting.

With `jobs` above 1 a replay hands whole policies to forked worker
processes, and `corpus.ttl` is merged from the per-policy statements.  The
corpus here is a small `perfbench/gen.py` corpus of four policies; the
second cannot be read and the third fails its graph invariants, so the
failures are reported between the policies that succeed.
"""
from __future__ import annotations

import hashlib
import importlib.util
import multiprocessing
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ppanalyze.cli as cli
from ppanalyze.graph import STANDARD_PREFIXES
from ppanalyze.rdfio import parse_turtle

from .conftest import ROOT
from .oracles import reference_corpus_turtle

MARKETING = "https://w3id.org/dpv#Marketing"
SEED = 3


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("PPA_MODEL", "PPA_MODE", "PPA_CACHE", "PPA_TAXONOMY", "PPA_OUT", "PPA_JOBS",
                 "PPA_CONFIG"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[list[str], Path]:
    """Four generated policies (the second unreadable) and their replay cache."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    # registered first: its dataclasses look their module up while it loads
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    root = tmp_path_factory.mktemp("corpus")
    policies = gen.make_corpus(SEED, "jobs", 4, 12)
    table, _ = gen.plan_calls(policies, SEED, "jobs")
    paths = gen.write_policies(policies, root / "policies")
    gen.write_cache(table, root / "cache.jsonl")
    paths[1].write_bytes(b"not UTF-8: \xff\xfe\n")
    return [str(path) for path in paths], root / "cache.jsonl"


@pytest.fixture
def slow_first_broken_third(monkeypatch, corpus):
    """The first policy takes longest, so that with two workers the last
    one ends before it; the third has its data spans grounded to a purpose
    class."""
    slow, broken = Path(corpus[0][0]).stem, Path(corpus[0][2]).stem
    extract = cli.extract_document

    def extract_broken(doc, *args, **kwargs):
        result = extract(doc, *args, **kwargs)
        if doc.service_id == slow:
            time.sleep(0.5)
        if doc.service_id == broken:
            for seg in result.segments:
                seg.spans = tuple(
                    replace(s, grounded_term=MARKETING) if s.kind == "data" and s.grounded_term
                    else s for s in seg.spans)
        return result

    monkeypatch.setattr(cli, "extract_document", extract_broken)


def analyze(corpus, out: Path, capsys, *extra: str) -> tuple[int, dict, str, str]:
    """Exit status, output tree digests, stdout and stderr (the output path
    and the resolved `jobs` written out the same way) of one replay."""
    paths, cache = corpus
    capsys.readouterr()
    code = cli.main(["analyze", *paths, "--replay", "--cache", str(cache),
                     "--model", "bench-model", "--out", str(out), *extra])
    captured = capsys.readouterr()
    tree = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}
    stderr = [line for line in captured.err.splitlines() if not line.startswith("config: ")]
    return code, tree, captured.out.replace(str(out), "OUT"), "\n".join(stderr)


@pytest.mark.usefixtures("slow_first_broken_third")
def test_replay_is_the_same_at_every_jobs_setting(corpus, tmp_path, capsys):
    runs = {name: analyze(corpus, tmp_path / name, capsys, *extra)
            for name, extra in (("one", ("--jobs", "1")), ("two", ("--jobs", "2")),
                                ("default", ()))}
    assert runs["one"] == runs["two"] == runs["default"]
    code, tree, stdout, stderr = runs["one"]
    paths = corpus[0]
    assert code == 1
    assert sorted(tree) == sorted(
        [f"{Path(p).stem}{ext}" for p in (paths[0], paths[3]) for ext in (".ttl", ".nt")]
        + [f"audit/{Path(p).stem}.json" for p in (paths[0], paths[3])]
        + [f"logs/{Path(p).stem}.build.json" for p in (paths[0], paths[3])]
        + ["corpus.ttl", "run_log.jsonl"])
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    assert [line.split(": ")[1] for line in errors] == [paths[1], paths[2]]
    assert "graph invariant violation" in errors[1]
    assert [line.split(":")[0] for line in stdout.splitlines()[:2]] == [paths[0], paths[3]]


def test_corpus_ttl_equals_the_combined_graph(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert analyze(corpus, out, capsys, "--jobs", "2")[0] == 1
    graphs = [parse_turtle((out / f"{Path(path).stem}.ttl").read_bytes())
              for path in corpus[0] if (out / f"{Path(path).stem}.ttl").exists()]
    assert len(graphs) == 3
    assert (out / "corpus.ttl").read_bytes() == reference_corpus_turtle(graphs,
                                                                        STANDARD_PREFIXES)


def test_no_worker_process_left_behind(corpus, tmp_path, monkeypatch, capsys):
    pids = tmp_path / "pids"
    analyze_policy = cli._analyze_policy

    def recording_pid(analysis, path):
        with pids.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return analyze_policy(analysis, path)

    monkeypatch.setattr(cli, "_analyze_policy", recording_pid)
    analyze(corpus, tmp_path / "out", capsys, "--jobs", "2")
    workers = {int(pid) for pid in pids.read_text().split()}
    assert workers and os.getpid() not in workers
    assert multiprocessing.active_children() == []
    for pid in workers:
        with pytest.raises(ProcessLookupError):     # exited and reaped
            os.kill(pid, 0)
