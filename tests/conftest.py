from __future__ import annotations

from pathlib import Path

import pytest

from ppanalyze.corpus import PolicyDocument, segment_lines
from ppanalyze.extraction.backend import Backend, BackendConfig
from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIXTURE_MODEL = "fixture-model"


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
