"""Pinned bytes of the greedy ``prioritize`` and ``minimize`` CLI verbs.

Each digest is the SHA-256 of a transcript that runs one verb on every
consecutive build pair of a generated history: the pair, the exit code,
stdout and stderr. Pairs without an active fault exit 1 under ``apfd``
(it is undefined there), so that error path is pinned along with the
orders and covers. A change to the greedy engines must leave every byte
as it is.
"""

import hashlib

import pytest

from regsched import ScenarioConfig, generate_chain
from regsched.cli import main
from regsched.histio import dump_history

CONFIG = ScenarioConfig(seed=34, n_tests=60, n_builds=12, n_stories=10, fault_rate=0.9)

VERBS = {
    "prioritize/apfd": ("prioritize", "--metric", "apfd", "--engine", "greedy"),
    "prioritize/fault-count": ("prioritize", "--metric", "fault-count", "--engine", "greedy"),
    "prioritize/coverage": ("prioritize", "--metric", "coverage", "--engine", "greedy"),
    "minimize": ("minimize", "--engine", "greedy"),
}

GOLDEN = {
    "prioritize/apfd": "8dfa3cdf91c9479e3dcf49221f6cd67dd84bb82af6ac559537789b1717570781",
    "prioritize/fault-count": "303a5d62226dee92a1b65b7e28e43cd771169c95ee9f79fba8804040ced5476d",
    "prioritize/coverage": "fe0ede80b0fa6dbcc0f5c9b236a32e7911de0795ca1a4c5cbc8562fd4790774a",
    "minimize": "a43a0a00c4d8b66512ac1401b1df601f25713f63115dec59537a705e872a1ded",
}


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    bundle = generate_chain(CONFIG)
    path = tmp_path_factory.mktemp("golden") / "history.json"
    dump_history(bundle, path)
    return path, [(a.index, b.index) for a, b in bundle.chain.pairs()]


@pytest.mark.parametrize("key", sorted(VERBS))
def test_greedy_verb_bytes_are_pinned(key, history, capsys):
    path, pairs = history
    transcript = []
    for prev, nxt in pairs:
        code = main([*VERBS[key], "--history", str(path), "--prev", str(prev), "--next", str(nxt)])
        captured = capsys.readouterr()
        transcript.append(f"{prev}->{nxt} exit {code}\n{captured.out}\n{captured.err}\n")
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == GOLDEN[key]
