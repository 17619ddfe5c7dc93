from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from ppanalyze.corpus import PolicyDocument, segment_lines
from ppanalyze.extraction import backend as backend_module
from ppanalyze.extraction import pipeline
from ppanalyze.extraction.backend import Backend, BackendConfig
from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIXTURE_MODEL = "fixture-model"


@pytest.fixture(autouse=True)
def fresh_parse_memo():
    """Each test parses its answers anew, so a test that patches the
    parser is never served another test's memoized parses."""
    pipeline._parse.cache_clear()


@pytest.fixture
def no_retries(monkeypatch):
    """A transport error fails its call at once, without a retry or a wait."""
    monkeypatch.setattr(backend_module, "_MAX_RETRIES", 0)


@pytest.fixture(scope="session")
def gen():
    """The benchmark's input generator, `perfbench/gen.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    # registered first: its dataclasses look their module up while it loads
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy(default_snapshot_path())


@pytest.fixture(scope="session")
def fixture_policy_path() -> Path:
    return FIXTURES / "policy_example.org.txt"


@pytest.fixture(scope="session")
def gold_dir() -> Path:
    return FIXTURES / "gold"


def replay_backend(cache_path: Path, model: str = FIXTURE_MODEL) -> Backend:
    return Backend(BackendConfig(model_name=model, cache_mode="replay",
                                 cache_path=cache_path))


@pytest.fixture
def policy_replay_backend() -> Backend:
    return replay_backend(FIXTURES / "replay_cache.jsonl")


@pytest.fixture
def gold_replay_backend() -> Backend:
    return replay_backend(FIXTURES / "gold" / "replay_cache.jsonl")


@pytest.fixture
def gold_empty_backend() -> Backend:
    return replay_backend(FIXTURES / "gold" / "replay_cache_empty.jsonl")


def make_document(text: str, service_id: str = "test.example") -> PolicyDocument:
    return PolicyDocument(service_id, "memory:" + service_id, text,
                          tuple(segment_lines(text)))
