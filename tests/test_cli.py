from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from ppanalyze.cli import main
from ppanalyze.extraction.backend import TransportError
from ppanalyze.extraction.prompts import RECOGNITION_TASKS, TaskKind
from ppanalyze.rdfio import IRI, parse_turtle

from .conftest import FIXTURES, ROOT, make_document
from .scripted import (RICH_PLAN, RICH_SEGMENT, answer_through, cache_answers,
                       scripted_transport, segment_text_of, surrogate_plans)

MARKETING = "https://w3id.org/dpv#Marketing"


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("PPA_MODEL", "PPA_MODE", "PPA_CACHE", "PPA_TAXONOMY", "PPA_THRESHOLD",
                 "PPA_OUT", "PPA_JOBS", "PPA_SEED", "PPA_CONFIG",
                 "PPA_API_KEY", "OPENAI_API_KEY"):
        monkeypatch.delenv(name, raising=False)


def run_analyze(out_dir: Path, *extra: str) -> int:
    return main([
        "analyze", str(FIXTURES / "policy_example.org.txt"),
        "--replay", "--cache", str(FIXTURES / "replay_cache.jsonl"),
        "--model", "fixture-model", "--out", str(out_dir), *extra,
    ])


class TestAnalyze:
    def test_replay_run_writes_graph_audit_and_logs(self, tmp_path, capsys):
        assert run_analyze(tmp_path / "run") == 0
        out = tmp_path / "run"
        assert (out / "policy_example.org.ttl").exists()
        assert (out / "policy_example.org.nt").exists()
        assert (out / "corpus.ttl").exists()
        audit = json.loads((out / "audit" / "policy_example.org.json").read_text())
        assert len(audit["segments"]) == 15
        build_log = json.loads((out / "logs" / "policy_example.org.build.json").read_text())
        assert build_log["skipped_ungrounded"] == 1
        run_log = (out / "run_log.jsonl").read_text().splitlines()
        assert any(json.loads(line)["event"] == "backend_call" for line in run_log)

    def test_two_replay_runs_byte_identical(self, tmp_path):
        run_analyze(tmp_path / "a")
        run_analyze(tmp_path / "b")
        first = (tmp_path / "a" / "policy_example.org.ttl").read_bytes()
        second = (tmp_path / "b" / "policy_example.org.ttl").read_bytes()
        assert first == second

    def test_n_policies_yield_n_graphs_plus_corpus(self, tmp_path):
        # cache digests depend on segment text, so identical copies under
        # different service ids replay from the same cache
        n = 5
        inputs = []
        for i in range(n):
            copy = tmp_path / f"service{i}.example.txt"
            copy.write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
            inputs.append(str(copy))
        out = tmp_path / "out"
        code = main([
            "analyze", *inputs,
            "--replay", "--cache", str(FIXTURES / "replay_cache.jsonl"),
            "--model", "fixture-model", "--out", str(out),
        ])
        assert code == 0
        assert len(list(out.glob("*.ttl"))) == n + 1  # n graphs + corpus.ttl
        assert (out / "corpus.ttl").exists()
        assert len(list((out / "audit").glob("*.json"))) == n

    def test_inputs_sharing_a_stem_are_refused_before_any_work(self, tmp_path):
        inputs = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            inputs.append(tmp_path / folder / "policy_example.org.txt")
            inputs[-1].write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
        with pytest.raises(SystemExit) as err:
            main(["analyze", *map(str, inputs), "--replay",
                  "--cache", str(FIXTURES / "replay_cache.jsonl"), "--model", "fixture-model",
                  "--out", str(tmp_path / "out")])
        assert err.value.code == (f"error: {inputs[0]} and {inputs[1]} have the same stem "
                                  "'policy_example.org', so their outputs would overwrite "
                                  "each other; rename one")
        assert not (tmp_path / "out").exists()

    def test_a_policy_with_the_stem_corpus_is_refused_before_any_work(self, tmp_path):
        # its graph would be written to corpus.ttl, then overwritten by the union graph
        policy = tmp_path / "p" / "corpus.txt"
        policy.parent.mkdir()
        policy.write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(FIXTURES / "policy_example.org.txt"), str(policy), "--replay",
                  "--cache", str(FIXTURES / "replay_cache.jsonl"), "--model", "fixture-model",
                  "--out", str(tmp_path / "out")])
        assert err.value.code == (f"error: the combined graph corpus.ttl and {policy} have the "
                                  "same stem 'corpus', so their outputs would overwrite each "
                                  "other; rename one")
        assert not (tmp_path / "out").exists()

    def test_missing_credentials_fails_before_processing(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(FIXTURES / "policy_example.org.txt"),
                  "--out", str(tmp_path)])
        assert "credentials" in str(err.value)
        assert not (tmp_path / "policy_example.org.ttl").exists()

    def test_unreadable_file_reported_with_nonzero_exit(self, tmp_path):
        missing = tmp_path / "missing.txt"
        code = main([
            "analyze", str(missing),
            "--replay", "--cache", str(FIXTURES / "replay_cache.jsonl"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_invariant_violation_fails_document(self, tmp_path, monkeypatch, capsys):
        import ppanalyze.extraction.pipeline as pipeline
        extract = pipeline.extract_documents

        def data_linked_to_purpose_term(*args, **kwargs):
            # a broken extraction: data spans grounded to a purpose class
            for result in extract(*args, **kwargs):
                for seg in result.segments:
                    seg.spans = tuple(
                        replace(s, grounded_term=MARKETING)
                        if s.kind == "data" and s.grounded_term else s for s in seg.spans)
                yield result

        # `analyze` looks the name up in the pipeline module on each run
        monkeypatch.setattr(pipeline, "extract_documents", data_linked_to_purpose_term)
        assert run_analyze(tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert "graph invariant violation" in err
        assert f"<{MARKETING}> is not a data term" in err
        assert not (tmp_path / "run" / "policy_example.org.ttl").exists()

    def test_a_failed_policy_removes_its_earlier_outputs(self, tmp_path, capsys):
        """A policy that fails on a second run into the same `--out` leaves
        none of the files that the first run wrote for it."""
        policies = [tmp_path / f"{name}.txt" for name in ("kept", "broken")]
        for policy in policies:
            policy.write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
        argv = ["analyze", *map(str, policies), "--replay", "--cache",
                str(FIXTURES / "replay_cache.jsonl"), "--model", "fixture-model",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        outputs = lambda stem: [tmp_path / "out" / name for name in (
            f"{stem}.ttl", f"{stem}.nt", f"audit/{stem}.json", f"logs/{stem}.build.json")]
        assert all(path.exists() for path in outputs("kept") + outputs("broken"))
        policies[1].write_bytes(b"not UTF-8: \xff\xfe\n")
        assert main(argv) == 1
        assert all(path.exists() for path in outputs("kept"))
        assert not any(path.exists() for path in outputs("broken"))

    def test_a_policy_whose_every_segment_fails_logs_its_calls(self, tmp_path, capsys):
        """A policy whose every call failed gets no graph, audit or build
        log and fails the run, but the run log records its calls and the
        warning lines count them."""
        out = tmp_path / "out"
        assert main(["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
                     "--cache", str(FIXTURES / "gold" / "replay_cache_empty.jsonl"),
                     "--model", "fixture-model", "--out", str(out)]) == 1
        stderr = capsys.readouterr().err.splitlines()
        assert stderr[1].startswith("error: ") and stderr[1].endswith(" failed (15/15)")
        assert stderr[-4:] == [f"warning: {task.value}: 15 of 15 calls failed"
                               for task in RECOGNITION_TASKS]
        records = [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]
        assert len(records) == 60
        assert all(record["event"] == "backend_call"
                   and record["service_id"] == "policy_example.org"
                   and record["error"].startswith("replay cache has no entry for digest "
                                                  + record["digest"])
                   for record in records)
        assert sorted((r["segment"], r["task"]) for r in records) == sorted(
            (segment, task.value) for segment in range(15) for task in RECOGNITION_TASKS)
        assert sorted(path.relative_to(out).as_posix() for path in out.rglob("*")) \
            == ["audit", "corpus.ttl", "logs", "run_log.jsonl"]

    @pytest.mark.usefixtures("no_retries")
    @pytest.mark.parametrize("mode", ["--replay", "--record"])
    def test_failed_calls_are_counted_on_stderr(self, tmp_path, monkeypatch, capsys, mode):
        """A run whose model calls fail ends with one warning line for each
        task that has failures, in task order, with the counts of the run
        log, at every `jobs`; its exit status stays 0."""
        records = (FIXTURES / "replay_cache.jsonl").read_text(encoding="utf-8").splitlines()
        kept = tmp_path / "kept.jsonl"
        kept.write_text("".join(line + "\n" for line in records[::3]), encoding="utf-8")
        answers = cache_answers(kept)

        def transport(prompt, config):
            if (prompt.system, prompt.user) not in answers:
                raise TransportError("down")
            return answers[prompt.system, prompt.user]

        answer_through(monkeypatch, transport)
        monkeypatch.setenv("PPA_API_KEY", "test-key")
        policies = [tmp_path / f"copy{i}.txt" for i in range(2)]
        for policy in policies:
            policy.write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
        warnings = set()
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            cache = kept if mode == "--replay" else out / "answers.jsonl"
            capsys.readouterr()
            assert main(["analyze", *map(str, policies), mode, "--cache", str(cache),
                         "--model", "fixture-model", "--jobs", jobs, "--out", str(out)]) == 0
            calls = [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]
            calls = [call for call in calls if call["event"] == "backend_call"]
            expected = [f"warning: {task.value}: {failed} of {len(of_task)} calls failed"
                        for task in TaskKind
                        for of_task in [[c for c in calls if c["task"] == task.value]]
                        for failed in [sum(1 for c in of_task if c["error"])] if failed]
            stderr = capsys.readouterr().err.splitlines()
            assert len(expected) > 1 and stderr[-len(expected):] == expected
            assert not any(line.startswith("warning: ") for line in stderr[:-len(expected)])
            warnings.add(tuple(expected))
        assert len(warnings) == 1

    def test_config_precedence_flag_beats_env_and_file(self, tmp_path, monkeypatch, capsys):
        import ppanalyze.cli as cli
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"model": "from-file", "jobs": 3}))
        monkeypatch.setenv("PPA_MODEL", "from-env")
        args = cli.build_parser().parse_args([
            "analyze", "x", "--config", str(config_file),
            "--model", "from-flag", "--out", str(tmp_path)])
        config = cli.resolve_config(args)
        assert config.model == "from-flag"     # flag wins over env and file
        assert config.jobs == 3                # file fills what nothing overrides
        err = capsys.readouterr().err
        assert "from-flag" in err              # effective config printed for audit

    def test_config_env_beats_file(self, tmp_path, monkeypatch, capsys):
        import ppanalyze.cli as cli
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"model": "from-file"}))
        monkeypatch.setenv("PPA_MODEL", "from-env")
        args = cli.build_parser().parse_args(
            ["analyze", "x", "--config", str(config_file), "--out", str(tmp_path)])
        assert cli.resolve_config(args).model == "from-env"


    def test_second_run_into_one_directory_rewrites_the_run_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_analyze(out) == 0
        first = (out / "run_log.jsonl").read_bytes()
        assert run_analyze(out) == 0
        # as many records as the .ttl files describe, not one set per run
        assert (out / "run_log.jsonl").read_bytes() == first
        assert len(first.splitlines()) == 100

    def test_run_log_written_as_each_policy_finishes(self, tmp_path, monkeypatch, capsys):
        """The first policy's records reach the run log while the second
        policy's queries are still waiting for their answers."""
        out = tmp_path / "out"
        run_log = out / "run_log.jsonl"
        second = "We share your location with advertisers."
        lock = threading.Lock()
        logged_while_second_asked: list[list[str]] = []

        def transport(prompt, config):
            if segment_text_of(prompt) == second:
                deadline = time.monotonic() + 10
                while not run_log.read_text().endswith("\n") and time.monotonic() < deadline:
                    time.sleep(0.01)
                with lock:
                    logged_while_second_asked.append(run_log.read_text().splitlines())
            return "[]"

        answer_through(monkeypatch, transport)
        monkeypatch.setenv("PPA_API_KEY", "test-key")
        policies = []
        for name, text in (("first.example", RICH_SEGMENT), ("second.example", second)):
            policies.append(tmp_path / f"{name}.txt")
            policies[-1].write_text(text, encoding="utf-8")
        # two jobs: slots for both policies' queries, so that the second
        # policy's waiting queries never hold back the first policy's
        assert main(["analyze", *map(str, policies), "--record", "--jobs", "2",
                     "--cache", str(tmp_path / "cache.jsonl"), "--out", str(out)]) == 0
        lines = run_log.read_text().splitlines()
        first = [line for line in lines if json.loads(line)["service_id"] == "first.example"]
        assert first and logged_while_second_asked == [first] * len(RECOGNITION_TASKS)


HELP_FLAGS = {
    "analyze": "--config --model --replay --record --cache --taxonomy --out --jobs",
    "evaluate": "--tasks --denominator --config --model --replay --record --cache "
                "--taxonomy --threshold --out --jobs",
    "convert": "--profile --config --out",
    "stats": "--top --config --out",
    "export-finetune": "--task --spec --config --taxonomy --seed --out",
}


def command_argv(command: str) -> list[str]:
    """Arguments that let `command` run offline on the fixtures."""
    if command == "analyze":
        return ["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
                "--cache", str(FIXTURES / "replay_cache.jsonl"), "--model", "fixture-model"]
    return ["evaluate", str(FIXTURES / "gold"), "--replay",
            "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl"), "--model", "fixture-model"]


class TestSettings:
    """Each command takes only the settings it reads, by flag, environment
    variable or config-file key."""

    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        # option lines are indented by two spaces, wrapped help text by more
        flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert flags == HELP_FLAGS[command].split()

    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["convert", "g.ttl", "--taxonomy", "x.ttl", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_unread_variables_and_config_keys_ignored(self, tmp_path, monkeypatch, capsys):
        run_analyze(tmp_path / "run")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"jobs": "many", "threshold": 7,
                                           "out": str(tmp_path / "stats")}))
        monkeypatch.setenv("PPA_THRESHOLD", "1.5")
        monkeypatch.setenv("PPA_JOBS", "abc")
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "run" / "policy_example.org.ttl"),
                     "--config", str(config_file)]) == 0
        assert (tmp_path / "stats" / "stats.json").exists()
        (line,) = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("config: ")]
        assert json.loads(line[len("config: "):]) == {"out": str(tmp_path / "stats")}

    def test_cache_in_live_mode_is_an_error(self, tmp_path, monkeypatch):
        """`live` is not a mode, whether a config file or the environment names it."""
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"mode": "live"}))
        argv = ["analyze", str(FIXTURES / "policy_example.org.txt"),
                "--cache", str(FIXTURES / "replay_cache.jsonl"), "--out", str(tmp_path / "out")]
        for extra in (["--config", str(config_file)], []):
            if not extra:
                monkeypatch.setenv("PPA_MODE", "live")
            with pytest.raises(SystemExit) as err:
                main(argv + extra)
            assert err.value.code == "error: unknown cache mode 'live'; choose record or replay"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, variable, key, value", [
        ("analyze", "PPA_JOBS", None, "abc"),
        ("analyze", None, "jobs", "many"),
        ("analyze", None, "jobs", 2.5),
        ("evaluate", "PPA_THRESHOLD", None, "high"),
        ("evaluate", None, "threshold", "high"),
    ])
    def test_bad_setting_value_is_an_error(self, tmp_path, monkeypatch, command, variable,
                                           key, value):
        argv = command_argv(command) + ["--out", str(tmp_path / "out")]
        if variable:
            monkeypatch.setenv(variable, value)
        else:
            config_file = tmp_path / "config.json"
            config_file.write_text(json.dumps({key: value}))
            argv += ["--config", str(config_file)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert str(err.value.code).startswith("error: ")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def set_jobs(argv: list[str], source: str, value: int, tmp_path, monkeypatch) -> list[str]:
        """`argv` with `jobs` set by a flag, the environment or a config-file key."""
        if source == "flag":
            return argv + [f"--jobs={value}"]
        if source == "variable":
            monkeypatch.setenv("PPA_JOBS", str(value))
            return argv
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"jobs": value}))
        return argv + ["--config", str(config_file)]

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("source", ["flag", "variable", "key"])
    def test_jobs_below_one_is_an_error(self, tmp_path, monkeypatch, source, value):
        argv = self.set_jobs(command_argv("analyze") + ["--out", str(tmp_path / "out")],
                             source, value, tmp_path, monkeypatch)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == f"error: jobs must be at least 1, got {value}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, jobs", [("--replay", 3), ("--record", 1), (None, 1)])
    def test_jobs_default_is_the_usable_cpus_on_a_replay_only(self, monkeypatch, capsys,
                                                              mode, jobs):
        import ppanalyze.cli as cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        argv = ["analyze", "x"] + ([mode] if mode else [])
        assert cli.resolve_config(cli.build_parser().parse_args(argv)).jobs == jobs
        assert f'"jobs": {jobs}}}' in capsys.readouterr().err

    def test_jobs_default_falls_back_to_the_cpu_count(self, monkeypatch):
        import ppanalyze.cli as cli
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        args = cli.build_parser().parse_args(["analyze", "x", "--replay"])
        assert cli.resolve_config(args).jobs == 6

    @pytest.mark.parametrize("source", ["flag", "variable", "key"])
    def test_jobs_setting_overrides_the_default(self, tmp_path, monkeypatch, source):
        import ppanalyze.cli as cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = self.set_jobs(["analyze", "x", "--replay"], source, 5, tmp_path, monkeypatch)
        assert cli.resolve_config(cli.build_parser().parse_args(argv)).jobs == 5

    @pytest.mark.parametrize("mode", ["--record", "--replay"])
    @pytest.mark.parametrize("command", ["analyze", "evaluate"])
    def test_corrupt_cache_is_an_error(self, tmp_path, command, mode):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("not json\n")
        argv = command_argv(command)
        argv[argv.index("--replay")] = mode
        argv[argv.index("--cache") + 1] = str(cache)
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "out")])
        assert str(err.value.code).startswith("error: corrupt cache line 1")


class TestRelationKinds:
    def test_data_link_to_a_purpose_span_is_skipped_and_logged(self, tmp_path, monkeypatch,
                                                              capsys):
        # e0 is the data span, e1 the purpose span (grounded to DirectMarketing)
        plan = {**RICH_PLAN, (0, TaskKind.RELATION_RECOGNITION):
                '{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
                '{"id1": "a0", "id2": "e1", "type": "HAS_DATA"}]}'}
        doc = make_document(RICH_SEGMENT)
        answer_through(monkeypatch, scripted_transport(doc, plan))
        monkeypatch.setenv("PPA_API_KEY", "test-key")
        policy, out = tmp_path / "kinds.example.txt", tmp_path / "out"
        policy.write_text(RICH_SEGMENT, encoding="utf-8")
        assert main(["analyze", str(policy), "--record", "--cache", str(tmp_path / "cache.jsonl"),
                     "--out", str(out)]) == 0
        graph = parse_turtle((out / "kinds.example.ttl").read_bytes())
        has_data = IRI("urn:pp-analyze:core#hasData")
        assert {o for (s, p, o) in graph if p == has_data} == {
            IRI("https://w3id.org/dpv/pd#EmailAddress")}
        note = "segment 0: HAS_DATA link to e1 skipped (purpose span 'send newsletters')"
        build_log = json.loads((out / "logs" / "kinds.example.build.json").read_text())
        assert build_log["dropped_tuples"] == 1
        assert build_log["records"] == [note]
        # the build log is the note's one home: the run log holds only the calls
        run_log = [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]
        assert [record["event"] for record in run_log] == ["backend_call"] * len(TaskKind)
        assert note not in (out / "run_log.jsonl").read_text()


class TestLoneSurrogates:
    @given(plan=surrogate_plans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_record_run_writes_all_its_files(self, monkeypatch, capsys, plan):
        text = RICH_SEGMENT + "\nThis policy may change."
        doc = make_document(text)
        answer_through(monkeypatch, scripted_transport(doc, plan))
        monkeypatch.setenv("PPA_API_KEY", "test-key")
        with tempfile.TemporaryDirectory() as tmp:
            policy, out = Path(tmp) / "fuzz.example.txt", Path(tmp) / "out"
            policy.write_text(text, encoding="utf-8")
            assert main(["analyze", str(policy), "--record", "--cache",
                         str(Path(tmp) / "cache.jsonl"), "--out", str(out)]) == 0
            for name in ("fuzz.example.ttl", "fuzz.example.nt", "corpus.ttl", "run_log.jsonl",
                         "audit/fuzz.example.json", "logs/fuzz.example.build.json"):
                assert (out / name).is_file(), name


class TestConvert:
    def test_fixture_graph_converts(self, tmp_path, capsys):
        run_analyze(tmp_path / "run")
        code = main([
            "convert", str(tmp_path / "run" / "policy_example.org.ttl"),
            "--out", str(tmp_path / "conv"),
        ])
        assert code == 0
        assert (tmp_path / "conv" / "policy_example.org.odrl.ttl").exists()
        assert (tmp_path / "conv" / "policy_example.org.psdtou.ttl").exists()
        report = json.loads(
            (tmp_path / "conv" / "policy_example.org.conversion.json").read_text())
        assert report["odrl"]["permissions"] == 7
        assert report["odrl"]["unmapped_types"] == ["storage_retention_deletion"]
        assert report["psdtou"]["input_specs"] == 6
        assert report["psdtou"]["sharing_entries"] == 2

    def test_profile_keys_that_can_never_match_are_named(self, tmp_path, capsys):
        # one warning line per unknown key; outputs and exit status as with
        # the default profile, which prints no warning
        run_analyze(tmp_path / "run")
        graph = str(tmp_path / "run" / "policy_example.org.ttl")
        default = json.loads((ROOT / "src" / "ppanalyze" / "data" /
                              "profile_default.json").read_text())
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            **default,
            "action_map": {**default["action_map"], "Sharing": "urn:x:share"},
            "role_map": {**default["role_map"], "HAS_DATA": "urn:x:data"}}))
        capsys.readouterr()
        assert main(["convert", graph, "--out", str(tmp_path / "default")]) == 0
        assert "warning:" not in capsys.readouterr().err
        extra = [graph, "--out", str(tmp_path / "extra")]
        assert main(["convert", *extra, "--profile", str(profile)]) == 0
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")] == [
            f"warning: profile {profile}: action_map key 'Sharing' names no practice type",
            f"warning: profile {profile}: role_map key 'HAS_DATA' names no party role"]
        for name in ("policy_example.org.odrl.ttl", "policy_example.org.psdtou.ttl"):
            assert (tmp_path / "extra" / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes()

    def test_invariant_violation_fails_conversion(self, tmp_path, capsys):
        broken = tmp_path / "broken.ttl"
        broken.write_text(
            "@prefix ppa: <urn:pp-analyze:core#> .\n"
            "<urn:p> a ppa:PrivacyPolicy ; ppa:hasService <urn:s> .\n"
            "<urn:x> a ppa:DataCollectionUse ; ppa:sourceSegment \"a\", \"b\" .\n")
        code = main(["convert", str(broken), "--out", str(tmp_path / "conv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "<urn:x>: 2 source segment literals (want 1)" in err
        assert "<urn:x>: belongs to 0 policies (want 1)" in err
        assert not (tmp_path / "conv" / "broken.odrl.ttl").exists()

    def test_graphs_sharing_a_stem_are_refused_before_any_work(self, tmp_path, capsys):
        run_analyze(tmp_path / "run")
        graphs = [tmp_path / "run" / "policy_example.org.ttl",
                  tmp_path / "run" / "policy_example.org.nt"]
        with pytest.raises(SystemExit) as err:
            main(["convert", *map(str, graphs), "--out", str(tmp_path / "conv")])
        assert err.value.code.startswith(f"error: {graphs[0]} and {graphs[1]} have the same "
                                         "stem 'policy_example.org'")
        assert not (tmp_path / "conv").exists()

    def test_truncated_graph_is_an_error(self, tmp_path, capsys):
        # reported, and the next graph is still converted
        run_analyze(tmp_path / "run")
        good = tmp_path / "run" / "policy_example.org.ttl"
        graph = good.read_bytes()
        cut = tmp_path / "cut.ttl"
        cut.write_bytes(graph[:graph.rindex(b"^^") + 2])   # cut inside a typed literal
        capsys.readouterr()
        assert main(["convert", str(cut), str(good), "--out", str(tmp_path / "conv")]) == 1
        out, err = capsys.readouterr()
        assert f"error: cannot read graph {cut}: unexpected end of input" in err.splitlines()
        assert out.startswith(f"{good}: 7 permissions")
        assert sorted(path.name for path in (tmp_path / "conv").iterdir()) == [
            "policy_example.org.conversion.json", "policy_example.org.odrl.ttl",
            "policy_example.org.psdtou.ttl"]

    def test_each_graph_is_read_once(self, tmp_path, monkeypatch):
        # both formats come from one walk over each graph's practices
        import ppanalyze.policyconv as policyconv
        run_analyze(tmp_path / "run")
        first = tmp_path / "run" / "policy_example.org.ttl"
        second = tmp_path / "second.ttl"
        second.write_bytes(first.read_bytes())
        calls = []
        read = policyconv.policy_practices
        monkeypatch.setattr(policyconv, "policy_practices", lambda g: calls.append(1) or read(g))
        assert main(["convert", str(first), str(second), "--out", str(tmp_path / "conv")]) == 0
        assert len(calls) == 2

    def test_graph_with_a_byte_order_mark(self, tmp_path, capsys):
        # `convert` and `stats` skip one leading BOM and write what they
        # write for the graph without it
        run_analyze(tmp_path / "run")
        plain = tmp_path / "run" / "policy_example.org.ttl"
        marked = tmp_path / "marked" / plain.name
        marked.parent.mkdir()
        marked.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
        for name, graph in (("plain", plain), ("marked", marked)):
            assert main(["convert", str(graph), "--out", str(tmp_path / name / "conv")]) == 0
            assert main(["stats", str(graph), "--out", str(tmp_path / name / "stats")]) == 0
        for sub in ("conv", "stats"):
            files = sorted(path.name for path in (tmp_path / "plain" / sub).iterdir())
            assert files == sorted(path.name for path in (tmp_path / "marked" / sub).iterdir())
            for name in files:
                assert (tmp_path / "marked" / sub / name).read_bytes() == \
                    (tmp_path / "plain" / sub / name).read_bytes(), name


class TestRecord:
    """`--record` serves cache hits and asks the model only on a miss."""

    @pytest.fixture
    def asked(self, monkeypatch):
        """Stand in for the model: it answers as the fixture cache does the
        first time it is asked a prompt, and with an empty list after that."""
        answers = cache_answers(FIXTURES / "replay_cache.jsonl")
        asked: list[tuple[str, str]] = []

        def transport(prompt, config):
            key = (prompt.system, prompt.user)
            asked.append(key)
            return answers[key] if asked.count(key) == 1 else "[]"

        answer_through(monkeypatch, transport)
        monkeypatch.setenv("PPA_API_KEY", "test-key")
        return asked

    @staticmethod
    def run(out_dir: Path, cache: Path, mode: str) -> dict[str, bytes]:
        code = main(["analyze", str(FIXTURES / "policy_example.org.txt"), mode,
                     "--cache", str(cache), "--model", "fixture-model", "--out", str(out_dir)])
        assert code == 0
        return {name: (out_dir / name).read_bytes()
                for name in ("policy_example.org.ttl", "policy_example.org.nt")}

    def test_second_record_run_asks_nothing_and_equals_replay(self, tmp_path, asked, capsys):
        cache = tmp_path / "cache.jsonl"
        first = self.run(tmp_path / "r1", cache, "--record")
        assert asked and len(set(asked)) == len(asked)
        calls = len(asked)
        second = self.run(tmp_path / "r2", cache, "--record")
        assert len(asked) == calls
        assert first == second == self.run(tmp_path / "replay", cache, "--replay")

    def test_interrupted_record_run_resumes(self, tmp_path, asked, capsys):
        full = tmp_path / "full.jsonl"
        expected = self.run(tmp_path / "r1", full, "--record")
        lines = full.read_text().splitlines(keepends=True)
        cache = tmp_path / "cut.jsonl"
        cache.write_text("".join(lines[:len(lines) // 2]))
        asked.clear()
        resumed = self.run(tmp_path / "r2", cache, "--record")
        assert len(asked) == len(lines) - len(lines) // 2
        assert resumed == expected == self.run(tmp_path / "replay", cache, "--replay")


class TestStats:
    def test_stats_match_build_log(self, tmp_path, capsys):
        run_analyze(tmp_path / "run")
        code = main([
            "stats", str(tmp_path / "run" / "policy_example.org.ttl"),
            "--out", str(tmp_path / "stats"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "stats" / "stats.json").read_text())
        assert payload["practice_count"] == 8
        assert payload["practice_type_counts"] == {
            "DataCollectionUse": 5, "DataPractice": 1,
            "ThirdPartySharingDisclosure": 2,
        }
        out = capsys.readouterr().out
        assert "practices\t8" in out

    def test_a_triple_in_two_inputs_counts_once(self, tmp_path, capsys):
        """`stats out/*.ttl` reads each policy's graph and `corpus.ttl`,
        which holds it again: it counts their union, as `corpus.ttl` alone."""
        run_analyze(tmp_path / "run")
        graphs = sorted(map(str, (tmp_path / "run").glob("*.ttl")))
        assert len(graphs) == 2
        assert main(["stats", *graphs, "--out", str(tmp_path / "both")]) == 0
        assert main(["stats", graphs[0], "--out", str(tmp_path / "corpus")]) == 0
        both, corpus = ((tmp_path / out / "stats.json").read_text() for out in ("both", "corpus"))
        assert both == corpus
        assert (json.loads(both)["triple_count"], json.loads(both)["practice_count"]) == (92, 8)

    def test_top_keeps_the_most_used_classes(self, tmp_path, capsys):
        run_analyze(tmp_path / "run")
        graph = str(tmp_path / "run" / "policy_example.org.ttl")
        assert main(["stats", graph, "--out", str(tmp_path / "all")]) == 0
        assert main(["stats", graph, "--top", "3", "--out", str(tmp_path / "top")]) == 0
        full, top = (json.loads((tmp_path / out / "stats.json").read_text())
                     for out in ("all", "top"))
        for kind in ("data", "purpose"):
            assert len(full[kind]["top"]) > 3
            assert top[kind]["top"] == full[kind]["top"][:3]

    @pytest.mark.parametrize("top", ["-1", "ten"])
    def test_top_must_be_zero_or_more(self, tmp_path, capsys, top):
        run_analyze(tmp_path / "run")
        with pytest.raises(SystemExit) as err:
            main(["stats", str(tmp_path / "run" / "policy_example.org.ttl"), "--top", top,
                  "--out", str(tmp_path / "stats")])
        assert err.value.code == 2
        assert "error: argument --top: " in capsys.readouterr().err
        assert not (tmp_path / "stats").exists()


def test_stats_and_convert_load_neither_pipeline_nor_evaluation(tmp_path):
    """Each command imports what it runs: in a fresh interpreter, `stats`
    and `convert` load no HTTP client, no extraction or evaluation code and
    no process pool."""
    run_analyze(tmp_path / "run")
    graph = str(tmp_path / "run" / "policy_example.org.ttl")
    script = f"""
import sys
from ppanalyze.cli import main
assert main(["stats", {graph!r}, "--out", {str(tmp_path / "stats")!r}]) == 0
assert main(["convert", {graph!r}, "--out", {str(tmp_path / "convert")!r}]) == 0
unused = ("urllib.request", "ppanalyze.extraction", "ppanalyze.eval", "multiprocessing")
print([name for name in sys.modules
       if any(name == top or name.startswith(top + ".") for top in unused)])
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


class TestEvaluate:
    def test_task_named_twice_runs_once(self, tmp_path, monkeypatch, capsys):
        asked = []

        def transport(prompt, config):
            asked.append((prompt.system, prompt.user))
            return "[]"

        answer_through(monkeypatch, transport)
        monkeypatch.setenv("PPA_API_KEY", "test-key")
        runs = []
        for tasks in (["data-recognition", "party-recognition"],
                      ["data-recognition", "party_recognition", "Data-Recognition",
                       "party-recognition"]):
            asked.clear()
            assert main(["evaluate", str(FIXTURES / "gold"), "--tasks", *tasks, "--jobs", "1",
                         "--out", str(tmp_path / str(len(tasks)))]) == 0
            runs.append((list(asked), (tmp_path / str(len(tasks)) / "report.json").read_text()))
        assert runs[0][0] and runs[0] == runs[1]

    def test_fixture_corpus_primed_cache_all_ones(self, tmp_path, capsys):
        code = main([
            "evaluate", str(FIXTURES / "gold"),
            "--replay", "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl"),
            "--model", "fixture-model", "--out", str(tmp_path),
        ])
        assert code == 0
        table = (tmp_path / "report.tsv").read_text()
        model_row = table.strip().split("\n")[2].split("\t")
        assert model_row[0] == "fixture-model"
        assert set(model_row[1:]) == {"1.000"}

    def test_crlf_gold_scores_as_its_lf_copy(self, tmp_path, capsys):
        """A gold pair with CRLF line ends, its brat offsets counting each
        CR, gives the report of its LF copy."""
        gold = tmp_path / "crlf"
        gold.mkdir()
        text = (FIXTURES / "gold" / "acme.txt").read_text(encoding="utf-8")

        def shifted(m: re.Match) -> str:
            return str(int(m.group()) + text.count("\n", 0, int(m.group())))

        ann = re.sub(r"^(T\d+\t\S+ )([0-9; ]+)\t",
                     lambda m: m.group(1) + re.sub(r"\d+", shifted, m.group(2)) + "\t",
                     (FIXTURES / "gold" / "acme.ann").read_text(encoding="utf-8"), flags=re.M)
        for name, content in (("acme.txt", text), ("acme.ann", ann),
                              ("annotation.conf", (FIXTURES / "gold" / "annotation.conf")
                               .read_text(encoding="utf-8"))):
            (gold / name).write_bytes(content.replace("\n", "\r\n").encode("utf-8"))
        reports = []
        for gold_dir, out in ((FIXTURES / "gold", tmp_path / "lf"), (gold, tmp_path / "out")):
            assert main(["evaluate", str(gold_dir), "--replay",
                         "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl"),
                         "--model", "fixture-model", "--out", str(out)]) == 0
            reports.append([(out / name).read_bytes() for name in ("report.tsv", "report.json")])
        assert reports[0] == reports[1]

    def test_empty_gold_dir_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", str(tmp_path), "--replay",
                  "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")])
        assert "usage error" in str(err.value)

    def test_undeclared_gold_label_is_usage_error(self, tmp_path, capsys):
        gold = tmp_path / "gold"
        shutil.copytree(FIXTURES / "gold", gold)
        ann = gold / "acme.ann"
        ann.write_text(ann.read_text().replace("T1\tdata ", "T1\tdata-item ", 1))
        # record mode without credentials: the label check must come first
        with pytest.raises(SystemExit) as err:
            main(["evaluate", str(gold), "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "usage error: 1 gold label(s) not declared" in stderr
        assert "acme: entity T1: undeclared type 'data-item'" in stderr
        assert not (tmp_path / "out" / "report.tsv").exists()


class TestExportFinetune:
    def test_export_writes_both_files(self, tmp_path):
        code = main([
            "export-finetune", str(FIXTURES / "gold"),
            "--task", "data-recognition", "--spec", "2-3-1-2",
            "--seed", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        train = (tmp_path / "data-recognition-2-3-1-2-train.jsonl").read_text().splitlines()
        val = (tmp_path / "data-recognition-2-3-1-2-validation.jsonl").read_text().splitlines()
        assert (len(train), len(val)) == (5, 3)

    def test_unknown_task_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["export-finetune", str(FIXTURES / "gold"),
                  "--task", "nonsense", "--spec", "1-1-1-1", "--out", str(tmp_path)])
