"""Errors: one `ppanalyze.Error` base, one run-level boundary in `cli.main`,
and one per-call boundary in `run_task`."""
from __future__ import annotations

import ast
import importlib
import inspect
import json
import multiprocessing
import os
import pkgutil
import shutil
import subprocess
import sys
from functools import partial

import pytest

import ppanalyze
from ppanalyze.cli import main
from ppanalyze.corpus import CorpusError, parse_brat
from ppanalyze.extraction.backend import Backend, BackendConfig, TransportError, prompt_digest
from ppanalyze.extraction.pipeline import run_task
from ppanalyze.extraction.prompts import TaskKind, build_prompt
from ppanalyze.rdfio import RdfError, parse_turtle
from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy

from .conftest import FIXTURES, ROOT, make_document, record_backend
from .test_cli import clean_environment  # noqa: F401  (autouse: no PPA_* settings)

OUTSIDE_ERROR = {"ParseError"}


def test_every_error_class_derives_from_error():
    found = {}
    for info in pkgutil.walk_packages(ppanalyze.__path__, "ppanalyze."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if name.endswith("Error") and cls.__module__.startswith("ppanalyze"):
                found[name] = cls
    assert OUTSIDE_ERROR <= set(found)
    for name, cls in found.items():
        assert issubclass(cls, ppanalyze.Error) == (name not in OUTSIDE_ERROR), name


def python_trees(*dirs: str):
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def type_names(node: ast.expr) -> set[str]:
    """The class names an `except` clause or an `isinstance` call names."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(type_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_class_is_told_apart_by_some_caller():
    """An error class stays only where a caller catches it by its type."""
    defined = {node.name for _, tree in python_trees("src/ppanalyze") for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name.endswith("Error")}
    caught = set()
    for _, tree in python_trees("src", "tools", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= type_names(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                caught |= type_names(node.args[1])
    assert defined, "no error class found"
    assert defined - caught == set()


def test_cli_exits_only_at_its_boundaries():
    """`cli.main` prints every `error:` line; only the gold corpus's usage
    error and the exit-2 label check leave through `SystemExit` elsewhere."""
    ((_, tree),) = [(path, tree) for path, tree in python_trees("src/ppanalyze")
                    if path.name == "cli.py"]
    exits = [(function.name, ast.unparse(node.exc))
             for function in tree.body if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Raise) and node.exc is not None
             and "SystemExit" in type_names(getattr(node.exc, "func", node.exc))]
    assert exits == [("_load_gold", "SystemExit(f'usage error: {exc}')"),
                     ("cmd_evaluate", "SystemExit(2)"),
                     ("main", "SystemExit(f'error: {exc}')")]


# -- bad input at the run-level boundary --

@pytest.fixture
def fixture_graph(tmp_path) -> bytes:
    out = tmp_path / "analyze"
    assert main(["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
                 "--cache", str(FIXTURES / "replay_cache.jsonl"),
                 "--model", "fixture-model", "--out", str(out)]) == 0
    return (out / "policy_example.org.ttl").read_bytes()


def work_before_the_error_line(name: str, *args, **kwargs):
    raise AssertionError(f"{name} ran before the output directory was made")


def fails_with_error_line(argv: list[str], out) -> str:
    """The one line `main` exits with; a string exit code is status 1."""
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(out)])
    message = err.value.code
    assert isinstance(message, str) and message.startswith("error: "), message
    assert "\n" not in message
    assert not out.exists() or not any(out.rglob("*")), "an output file was written"
    return message


DEFAULT_PROFILE = json.loads(
    (ROOT / "src" / "ppanalyze" / "data" / "profile_default.json").read_text(encoding="utf-8"))


def profile_bytes(**tables) -> bytes:
    """The default conversion profile with some tables replaced."""
    return json.dumps({**DEFAULT_PROFILE, **tables}).encode()


def bad_gold_dir(tmp_path, ann: bytes):
    gold = tmp_path / "gold"
    shutil.copytree(FIXTURES / "gold", gold)
    (gold / "acme.ann").write_bytes(ann)
    return gold


class TestBadInput:
    def test_non_utf8_graph_under_stats(self, tmp_path, fixture_graph):
        graph = tmp_path / "bad.ttl"
        graph.write_bytes(fixture_graph.replace(b"advertising partners", b"advertising \xff"))
        message = fails_with_error_line(["stats", str(graph)], tmp_path / "out")
        assert message.startswith(f"error: cannot read graph {graph}: not valid UTF-8")

    @pytest.mark.parametrize("escape, reason", [
        ("\\uZZZZ", "want 4 hex digits"),
        ("\\U00110000", "not a Unicode character"),
    ])
    def test_bad_escape_under_stats(self, tmp_path, fixture_graph, escape, reason):
        graph = tmp_path / "bad.ttl"
        graph.write_bytes(fixture_graph.replace(b"advertising partners",
                                                b"advertising " + escape.encode()))
        message = fails_with_error_line(["stats", str(graph)], tmp_path / "out")
        assert message == (f"error: cannot read graph {graph}: "
                           f"bad escape {escape!r}: {reason}")

    def test_surrogate_party_label_under_convert(self, tmp_path, fixture_graph, capsys):
        # `convert` reports an unreadable graph and goes on with the next one
        graph = tmp_path / "bad.ttl"
        graph.write_bytes(fixture_graph.replace(b'"advertising partners"',
                                                b'"advertising \\uD800"'))
        out = tmp_path / "out"
        assert main(["convert", str(graph), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: cannot read graph {graph}: bad escape '\\\\uD800': not a Unicode character")
        assert not any(out.rglob("*"))

    def test_non_utf8_taxonomy_under_analyze(self, tmp_path):
        taxonomy = tmp_path / "taxonomy.tsv"
        taxonomy.write_bytes(default_snapshot_path().read_bytes() + b"\xff\xfe\n")
        message = fails_with_error_line(
            ["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
             "--cache", str(FIXTURES / "replay_cache.jsonl"), "--taxonomy", str(taxonomy)],
            tmp_path / "out")
        assert message.startswith(f"error: taxonomy file {taxonomy} is not valid UTF-8")

    def test_taxonomy_cycle_under_analyze(self, tmp_path):
        taxonomy = tmp_path / "taxonomy.tsv"
        taxonomy.write_text("dpv:Purpose\t\tPurpose\nurn:a\turn:b\tA\nurn:b\turn:a\tB\n",
                            encoding="utf-8")
        message = fails_with_error_line(
            ["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
             "--cache", str(FIXTURES / "replay_cache.jsonl"), "--taxonomy", str(taxonomy)],
            tmp_path / "out")
        assert message == "error: cycle in class hierarchy: urn:a -> urn:b -> urn:a"

    def test_record_without_a_cache(self, tmp_path):
        """With no `--cache`, a run reads `<out>/answers.jsonl` before it asks
        or writes anything, so a bad answers file there ends the run."""
        answers = tmp_path / "out" / "answers.jsonl"
        answers.parent.mkdir()
        answers.write_text("not a record\n")
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(FIXTURES / "policy_example.org.txt"), "--record",
                  "--out", str(answers.parent)])
        assert err.value.code.startswith(f"error: corrupt cache line 1 in {answers}: ")
        assert list(answers.parent.iterdir()) == [answers]

    def test_live_analyze_without_credentials(self, tmp_path):
        message = fails_with_error_line(
            ["analyze", str(FIXTURES / "policy_example.org.txt")], tmp_path / "out")
        assert message == ("error: no API credentials: set PPA_API_KEY (or OPENAI_API_KEY) "
                           "in the environment, or run with --replay")

    @pytest.mark.parametrize("task, spec, line", [
        ("data-recognition", "1-2",
         "bad selection spec '1-2': expected 'a-b-c-d' "
         "(non-empty train, empty train, non-empty val, empty val)"),
        ("data-recognition", "100-0-0-0",
         "non-empty stratum has 3 samples for task data-recognition, "
         "but spec 100-0-0-0 needs 100"),
        ("nonsense", "1-1-1-1",
         "unknown task 'nonsense'; choose from data-recognition, purpose-recognition, "
         "party-recognition, action-recognition, data-classification, "
         "purpose-classification, relation-recognition"),
    ], ids=["bad-spec", "stratum-too-small", "unknown-task"])
    def test_bad_selection_under_export_finetune(self, tmp_path, task, spec, line):
        message = fails_with_error_line(
            ["export-finetune", str(FIXTURES / "gold"), "--task", task, "--spec", spec],
            tmp_path / "out")
        assert message == f"error: {line}"

    def test_taxonomy_iri_the_writer_cannot_write_under_analyze(self, tmp_path):
        # `analyze` would write it as <...#Email Address>, which no reader takes back
        taxonomy = tmp_path / "taxonomy.tsv"
        taxonomy.write_bytes(default_snapshot_path().read_bytes()
                             + b"pd:Email Address\tpd:Contact\tEmail address\n")
        line = len(default_snapshot_path().read_bytes().splitlines()) + 1
        message = fails_with_error_line(
            ["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
             "--cache", str(FIXTURES / "replay_cache.jsonl"), "--model", "fixture-model",
             "--taxonomy", str(taxonomy)],
            tmp_path / "out")
        assert message.startswith(f"error: {taxonomy}:{line}: IRI "
                                  "'https://w3id.org/dpv/pd#Email Address' cannot be written")

    @pytest.mark.parametrize("command", ["analyze", "evaluate", "convert", "stats",
                                         "export-finetune"])
    def test_out_directory_that_cannot_be_made(self, tmp_path, monkeypatch, fixture_graph,
                                               command):
        """Reported before any work: the commands make the directory first."""
        graph = tmp_path / "policy.ttl"
        graph.write_bytes(fixture_graph)
        for module, name in (("ppanalyze.extraction.pipeline", "extract_documents"),
                             ("ppanalyze.eval.benchmark", "score_document"),
                             ("ppanalyze.rdfio", "parse_turtle"),
                             ("ppanalyze.eval.finetune", "select_finetune_data")):
            monkeypatch.setattr(importlib.import_module(module), name,
                                partial(work_before_the_error_line, name))
        argv = {
            "analyze": ["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
                        "--cache", str(FIXTURES / "replay_cache.jsonl"),
                        "--model", "fixture-model"],
            "evaluate": ["evaluate", str(FIXTURES / "gold"), "--replay",
                         "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl"),
                         "--model", "fixture-model"],
            "convert": ["convert", str(graph)],
            "stats": ["stats", str(graph)],
            "export-finetune": ["export-finetune", str(FIXTURES / "gold"),
                                "--task", "data-recognition", "--spec", "2-3-1-2"],
        }[command]
        regular_file = tmp_path / "file"
        regular_file.write_bytes(b"")
        message = fails_with_error_line(argv, regular_file / "out")
        assert message.startswith("error: cannot create output directory: ")
        assert str(regular_file / "out") in message

    @pytest.mark.parametrize("command, target", [
        ("analyze --jobs 1", "audit/service1.example.json"),
        ("analyze --jobs 2", "audit/service1.example.json"),    # raised in a worker
        ("analyze --jobs 2", "service1.example.nt"),
        ("analyze --jobs 1", "run_log.jsonl"),
        ("analyze --jobs 2", "corpus.ttl"),
        ("convert", "policy.psdtou.ttl"),
        ("stats", "stats.json"),
        ("evaluate", "report.tsv"),
        ("export-finetune", "data-recognition-2-3-1-2-validation.jsonl"),
    ])
    def test_output_file_that_cannot_be_written(self, tmp_path, fixture_graph, command,
                                                target):
        """An output path that is a directory ends the run with one line."""
        graph = tmp_path / "policy.ttl"
        graph.write_bytes(fixture_graph)
        second = tmp_path / "service1.example.txt"
        second.write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
        name, *options = command.split()
        argv = {
            "analyze": ["analyze", str(FIXTURES / "policy_example.org.txt"), str(second),
                        "--replay", "--cache", str(FIXTURES / "replay_cache.jsonl"),
                        "--model", "fixture-model", *options],
            "evaluate": ["evaluate", str(FIXTURES / "gold"), "--replay",
                         "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl"),
                         "--model", "fixture-model"],
            "convert": ["convert", str(graph)],
            "stats": ["stats", str(graph)],
            "export-finetune": ["export-finetune", str(FIXTURES / "gold"),
                                "--task", "data-recognition", "--spec", "2-3-1-2"],
        }[name]
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        message = err.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"error: cannot write {out / target}: "), message
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", [
        ["evaluate", "--replay", "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")],
        ["export-finetune", "--task", "data-recognition", "--spec", "2-3-1-2"],
    ])
    def test_malformed_ann(self, tmp_path, command):
        gold = bad_gold_dir(tmp_path, b"T1\tbroken\n")
        message = fails_with_error_line([command[0], str(gold), *command[1:]],
                                        tmp_path / "out")
        assert message == f"error: {gold / 'acme.ann'}: malformed T line (line 1: 'T1\\tbroken')"

    def test_dangling_id_under_evaluate(self, tmp_path):
        gold = bad_gold_dir(tmp_path, (FIXTURES / "gold" / "acme.ann").read_bytes()
                            + b"R2\trelated Arg1:T1 Arg2:T99\n")
        message = fails_with_error_line(
            ["evaluate", str(gold), "--replay",
             "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")], tmp_path / "out")
        assert message == f"error: {gold / 'acme.ann'}: annotation references unknown ids: T99"

    def test_span_outside_every_segment_under_evaluate(self, tmp_path):
        # offset 20 is the blank line after the title
        gold = bad_gold_dir(tmp_path, (FIXTURES / "gold" / "acme.ann").read_bytes()
                            + b"T99\tdata 20 22\t W\n")
        message = fails_with_error_line(
            ["evaluate", str(gold), "--replay",
             "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")], tmp_path / "out")
        assert message == (f"error: {gold / 'acme.ann'}: "
                           "annotation span starts outside every segment: T99")

    def test_non_utf8_ann_under_evaluate(self, tmp_path):
        gold = bad_gold_dir(tmp_path, b"T1\tdata 0 3\t\xff\n")
        message = fails_with_error_line(
            ["evaluate", str(gold), "--replay",
             "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")], tmp_path / "out")
        assert message.startswith(f"error: {gold / 'acme.ann'} is not valid UTF-8")

    def test_non_utf8_annotation_conf_under_evaluate(self, tmp_path):
        gold = tmp_path / "gold"
        shutil.copytree(FIXTURES / "gold", gold)
        (gold / "annotation.conf").write_bytes(b"[entities]\ndata \xff\n")
        message = fails_with_error_line(
            ["evaluate", str(gold), "--replay",
             "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")], tmp_path / "out")
        assert message.startswith(f"error: {gold / 'annotation.conf'} is not valid UTF-8")

    @pytest.mark.parametrize("content, reason", [
        (b'{"action_map": {"a": "\xff"}}', "cannot load conversion profile"),
        (profile_bytes(action_map=["use"]), "'action_map' is missing or not an object of strings"),
        (profile_bytes(psdtou={k: v for k, v in DEFAULT_PROFILE["psdtou"].items()
                               if k != "namespace"}), "'psdtou' is missing namespace"),
        (profile_bytes(role_map={**DEFAULT_PROFILE["role_map"], "PERFORMED_BY": "urn:x:a b"}),
         "role_map['PERFORMED_BY'] = 'urn:x:a b' cannot be written to Turtle"),
        (profile_bytes(psdtou={**DEFAULT_PROFILE["psdtou"], "namespace": "urn:psdtou:<core>#"}),
         "psdtou['namespace'] = 'urn:psdtou:<core>#' cannot be written to Turtle"),
    ], ids=["non-utf8", "action-map-not-object", "psdtou-without-namespace",
            "role-iri-with-a-space", "psdtou-namespace-with-brackets"])
    def test_bad_profile_under_convert(self, tmp_path, fixture_graph, content, reason):
        graph = tmp_path / "policy.ttl"
        graph.write_bytes(fixture_graph)
        profile = tmp_path / "profile.json"
        profile.write_bytes(content)
        message = fails_with_error_line(["convert", str(graph), "--profile", str(profile)],
                                        tmp_path / "out")
        assert message.startswith("error: ") and str(profile) in message
        assert reason in message

    @pytest.mark.parametrize("kind", ["directory", "unreadable file"])
    @pytest.mark.parametrize("command", ["analyze", "evaluate"])
    def test_cache_that_cannot_be_read(self, tmp_path, command, kind):
        cache = tmp_path / "cache.jsonl"
        if kind == "directory":
            cache.mkdir()
        else:
            if os.geteuid() == 0:
                pytest.skip("root reads a file whatever its mode")
            shutil.copy(FIXTURES / "replay_cache.jsonl", cache)
            cache.chmod(0)
        inputs = {"analyze": FIXTURES / "policy_example.org.txt", "evaluate": FIXTURES / "gold"}
        message = fails_with_error_line(
            [command, str(inputs[command]), "--replay", "--cache", str(cache),
             "--model", "fixture-model"], tmp_path / "out")
        assert message.startswith(f"error: cannot read cache {cache}: [Errno ")

    @pytest.mark.parametrize("named", [True, False], ids=["--cache", "default"])
    @pytest.mark.parametrize("command", ["analyze", "evaluate"])
    def test_replay_cache_that_does_not_exist(self, tmp_path, command, named):
        out = tmp_path / "out"
        cache = tmp_path / "missing.jsonl" if named else out / "answers.jsonl"
        inputs = {"analyze": FIXTURES / "policy_example.org.txt", "evaluate": FIXTURES / "gold"}
        message = fails_with_error_line(
            [command, str(inputs[command]), "--replay", "--model", "fixture-model",
             *(["--cache", str(cache)] if named else [])], out)
        assert message == f"error: replay cache {cache} does not exist"

    def test_config_file_that_cannot_be_read(self, tmp_path):
        config = tmp_path / "absent.json"
        message = fails_with_error_line(["stats", "g.ttl", "--config", str(config)],
                                        tmp_path / "out")
        assert message == (f"error: cannot read config file {config}: [Errno 2] "
                           f"No such file or directory: '{config}'")

    @pytest.mark.parametrize("content", ["[1, 2]", '"out"', "null"])
    def test_config_file_without_a_json_object(self, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_text(content, encoding="utf-8")
        message = fails_with_error_line(["stats", "g.ttl", "--config", str(config)],
                                        tmp_path / "out")
        assert message == f"error: config file {config} does not hold a JSON object"

    def test_threshold_above_1(self, tmp_path):
        message = fails_with_error_line(
            ["evaluate", str(FIXTURES / "gold"), "--threshold", "1.5", "--replay",
             "--cache", str(FIXTURES / "gold" / "replay_cache.jsonl")], tmp_path / "out")
        assert message == "error: threshold must be in (0, 1], got 1.5"

    def test_process_prints_one_line_and_exits_1(self, tmp_path, fixture_graph):
        graph = tmp_path / "bad.ttl"
        graph.write_bytes(fixture_graph.replace(b"advertising partners", b"\\uZZZZ"))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "ppanalyze.cli", "stats", str(graph),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(f"error: cannot read graph {graph}")
        assert proc.stdout == ""


# -- the readers raise their own errors --

class TestReaders:
    @pytest.mark.parametrize("literal, escape", [
        ('"\\uZZZZ"', "\\uZZZZ"),
        ('"x\\u12"', "\\u12"),
        ('"\\U0011FFFF"', "\\U0011FFFF"),
        ('"a\\uDFFFb"', "\\uDFFF"),
        ('"""\\uD800"""', "\\uD800"),
        ('"a\\qb"', "\\q"),
    ])
    def test_bad_escape_named(self, literal, escape):
        with pytest.raises(RdfError) as err:
            parse_turtle(f"<urn:s> <urn:p> {literal} .")
        assert repr(escape) in str(err.value)

    def test_good_escapes_read(self):
        g = parse_turtle(r"""<urn:s> <urn:p> "\u00e9\U0001F600\t\"\b\n\r\f\'\\" .""")
        ((_, _, o),) = g.triples
        assert o.lexical == 'é😀\t"\b\n\r\f\'\\'

    def test_non_utf8_graph(self):
        with pytest.raises(RdfError, match="not valid UTF-8"):
            parse_turtle(b'<urn:s> <urn:p> "\xc3" .')

    @pytest.mark.parametrize("name", ["taxonomy.tsv", "taxonomy.ttl", "taxonomy"])
    def test_non_utf8_taxonomy_names_the_path(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"dpv:A\t\tA \xff\n")
        with pytest.raises(ppanalyze.Error, match="is not valid UTF-8") as err:
            load_taxonomy(path)
        assert str(path) in str(err.value)

    def test_unreadable_taxonomy_names_the_path(self, tmp_path):
        with pytest.raises(ppanalyze.Error, match="^cannot read taxonomy file ") as err:
            load_taxonomy(tmp_path)
        assert str(tmp_path) in str(err.value)

    @pytest.mark.parametrize("bad", ["txt", "ann"])
    def test_non_utf8_brat_pair(self, tmp_path, bad):
        t, a = tmp_path / "doc.txt", tmp_path / "doc.ann"
        t.write_bytes(b"We collect data.")
        a.write_bytes(b"T1\tdata 11 15\tdata\n")
        (t if bad == "txt" else a).write_bytes(b"\xff")
        with pytest.raises(CorpusError) as err:
            parse_brat(t, a)
        assert f"doc.{bad} is not valid UTF-8" in str(err.value)


# -- the per-call boundary --


class TestRunTaskFailure:
    segment = make_document("We collect data.").segments[0]

    def digest(self, model: str) -> str:
        return prompt_digest(model, "data-recognition",
                             build_prompt(TaskKind.DATA_RECOGNITION, self.segment.text))

    @pytest.mark.usefixtures("no_retries")
    def test_transport_error_returns_its_trace(self, tmp_path):
        def down(prompt, config):
            raise TransportError("down")

        items, trace = run_task(TaskKind.DATA_RECOGNITION, self.segment, None,
                                record_backend(tmp_path, down))
        assert items is None
        assert "down" in trace.error
        # no answer, but the digest names the call
        assert trace.raw is None and trace.digest == self.digest("scripted")

    def test_replay_miss_returns_its_trace(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("")
        backend = Backend(BackendConfig(model_name="m", cache_mode="replay", cache_path=cache))
        items, trace = run_task(TaskKind.DATA_RECOGNITION, self.segment, None, backend)
        assert items is None
        assert trace.error.startswith("replay cache has no entry")
        assert trace.raw is None and trace.digest == self.digest("m")

    def test_unparseable_answer_keeps_raw(self, tmp_path):
        # plain prose is no relation list
        answer = "I really cannot answer this question properly."
        items, trace = run_task(TaskKind.RELATION_RECOGNITION, self.segment,
                                [("e0", "data", "data")],
                                record_backend(tmp_path, lambda prompt, config: answer))
        assert items is None
        assert trace.error
        assert trace.raw == answer
        # the digest names the call whose answer did not parse
        assert trace.digest and not trace.from_cache
