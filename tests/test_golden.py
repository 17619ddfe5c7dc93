"""Every file the offline commands write, pinned by its sha256.

The commands run on the committed fixtures with replayed answers, so their
output bytes are fixed.  A change that should keep every output byte (a
faster writer, a new term type) must leave these digests as they are; a
change that means to alter an output updates the digest and says why.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from ppanalyze.cli import main

from .conftest import FIXTURES, FIXTURE_MODEL


def _digests(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_offline_commands(root: Path) -> dict[str, str]:
    """Run analyze, stats, convert and evaluate (both gold caches) under `root`."""
    def run(*argv: str) -> None:
        assert main(list(argv)) == 0, argv

    # the audit JSON records the policy path as given, so give it relative
    # to the repository root, which is the working directory here
    run("analyze", "fixtures/policy_example.org.txt", "--replay",
        "--cache", str(FIXTURES / "replay_cache.jsonl"), "--model", FIXTURE_MODEL,
        "--out", str(root / "analyze"))
    graph = str(root / "analyze" / "policy_example.org.ttl")
    run("stats", graph, "--out", str(root / "stats"))
    run("convert", graph, "--out", str(root / "convert"))
    for cache in ("replay_cache.jsonl", "replay_cache_empty.jsonl"):
        run("evaluate", str(FIXTURES / "gold"), "--replay",
            "--cache", str(FIXTURES / "gold" / cache), "--model", FIXTURE_MODEL,
            "--out", str(root / "evaluate" / Path(cache).stem))
    return _digests(root)


GOLDEN = {
    "analyze/audit/policy_example.org.json":
        "cb7430bc0592575d3176dc50aabb6c1dbeb05133a808b3bfe089bc9b8e4a5d0d",
    "analyze/corpus.ttl":
        "9b97f78fc508b57a7570b6a3f43827dcc6a6eaecb97c8f67e96e9882fda94a81",
    "analyze/logs/policy_example.org.build.json":
        "ad7d156073bc5bd9b1ba0b7c9a483fcaeb4693c2dcb29eb0f1dea5faa110702c",
    "analyze/policy_example.org.nt":
        "2cd52884189534acf89a2af4cb1858ed80d388cc99c5847ae43474382aec86ad",
    "analyze/policy_example.org.ttl":
        "9b97f78fc508b57a7570b6a3f43827dcc6a6eaecb97c8f67e96e9882fda94a81",
    "analyze/run_log.jsonl":
        "1794db2dd83cef2e4bd31fdac48d83338a12375e195b6d6e2045473047600ee9",
    "convert/policy_example.org.conversion.json":
        "aeedc7c65ea6265b4f0d03828f9b9ccf3bbb007b874c314e5f60d34151a74c84",
    "convert/policy_example.org.odrl.ttl":
        "02b131c542ee9e363d6b0837545ab29b3180816944ef45a435662a181a4bf4f8",
    "convert/policy_example.org.psdtou.ttl":
        "92d171563edeaa7b62deb61b4872963da5b61497a47922e423556e97e4951d66",
    "evaluate/replay_cache/report.json":
        "338c8a3dca1f4d69e783fd5bfbf1b46224cbfc2c2c5a5e0a5faa73feb1101008",
    "evaluate/replay_cache/report.tsv":
        "136ade832d07406048eecf1d72687a93a6032bd0cc3acf4c5619d3779b47573d",
    "evaluate/replay_cache_empty/report.json":
        "16d6ee43c24ce6881f188d54a77fc0f829d1c085e73de294c7c15ff387ed73ab",
    "evaluate/replay_cache_empty/report.tsv":
        "68d74da68ca25789184d9a89d59376e1095df680c25136ccafcbfa3b0739ee97",
    "stats/stats.json":
        "1aeaf9250f7bb10b77cd709b8bbb67a4cc64c43fb7377be5dc3444496cbac1b4",
    "stats/stats.tsv":
        "3bd4b7219de7666c5fc2b25bab751a3772a1414b88de1c409f77967e2698237b",
}


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("PPA_MODEL", "PPA_MODE", "PPA_CACHE", "PPA_TAXONOMY", "PPA_THRESHOLD",
                 "PPA_OUT", "PPA_JOBS", "PPA_SEED", "PPA_CONFIG"):
        monkeypatch.delenv(name, raising=False)


def test_offline_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    assert run_offline_commands(tmp_path) == GOLDEN
