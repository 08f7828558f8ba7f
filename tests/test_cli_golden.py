"""Pinned bytes of the ``generate`` verb and the greedy ``prioritize`` and ``minimize`` verbs.

``generate``'s digest is the SHA-256 of the history file it writes for
``CONFIG_DICT``. Each other digest is the SHA-256 of a transcript that
runs one verb on every consecutive build pair of the same history: the pair,
the exit code, stdout and stderr. Pairs without an active fault exit 1
under ``apfd`` (it is undefined there), so that error path is pinned
along with the orders and covers. A change to the model, the history
format or the greedy engines must leave every byte as it is.
"""

import hashlib
import json

import pytest

from regsched import ScenarioConfig, generate_chain
from regsched.cli import main
from regsched.histio import dump_history

CONFIG_DICT = {"seed": 34, "n_tests": 60, "n_builds": 12, "n_stories": 10, "fault_rate": 0.9}
CONFIG = ScenarioConfig(**CONFIG_DICT)

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

GENERATE_GOLDEN = "313d50f9c497ce98b97c7ccee06d07eb449159dcaae6d5ac280f36314f7b1d72"


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


def test_generate_history_bytes_are_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG_DICT))
    out = tmp_path / "history.json"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_GOLDEN
