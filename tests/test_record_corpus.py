"""Cross-commit record corpus: fixed specs whose trial lists are pinned.

Each spec runs through ``expcli.run`` and its trial list is reduced to the
SHA-256 of its canonical JSON.  The pins were computed once and must be
reproduced byte for byte by any change that claims to keep behaviour, so a
refactor of the graph layer or the pipelines shows up here as a digest
mismatch.  Pins are keyed by ``RngStream.ALGORITHM``: a new random algorithm
changes every random host, and it must add its own pins instead of passing.
"""

import hashlib
import json

import pytest

from exlab.core import RngStream
from exlab.expcli import ExperimentSpec, run

CORPUS = {
    "weakseq-pipeline-n200-regime": ExperimentSpec(
        "weakseq", "pipeline", {"n": 200, "p": 0.5, "r": 2}, seed=1, trials=3),
    "weakseq-pipeline-n400-t2": ExperimentSpec(
        "weakseq", "pipeline", {"n": 400, "p": 0.5, "r": 3, "t": 2},
        seed=2, trials=2),
    "weakseq-pipeline-n600-t3": ExperimentSpec(
        "weakseq", "pipeline", {"n": 600, "p": 0.6, "r": 3, "t": 3},
        seed=3, trials=1),
    "weakseq-pipeline-n300-sparse": ExperimentSpec(
        "weakseq", "pipeline", {"n": 300, "p": 0.3, "r": 2, "t": 2},
        seed=4, trials=2),
    "weakseq-pipeline-ktt-absent": ExperimentSpec(
        "weakseq", "pipeline", {"n": 200, "p": 0.1, "r": 2, "t": 12},
        seed=1, trials=2),
    "weakseq-verify-n300": ExperimentSpec(
        "weakseq", "verify", {"n": 300, "p": 0.5, "r": 3, "t": 3},
        seed=1, trials=2),
    "weakseq-minor-n200-t3": ExperimentSpec(
        "weakseq", "minor", {"n": 200, "p": 0.7, "t": 3}, seed=5, trials=2),
    "weakseq-minor-n200-t3-plain": ExperimentSpec(
        "weakseq", "minor", {"n": 200, "p": 0.7, "t": 3, "diameter_aware": 0},
        seed=5, trials=2),
    "weakseq-minor-n600-t4": ExperimentSpec(
        "weakseq", "minor", {"n": 600, "p": 0.7, "t": 4}, seed=6, trials=1),
    "weakseq-minor-sparse-failure": ExperimentSpec(
        "weakseq", "minor", {"n": 200, "p": 0.4, "t": 3}, seed=5, trials=2),
    "bipfree-tight-m64": ExperimentSpec(
        "bipfree", "tight", {"m": 64}, seed=0, trials=1),
    "bipfree-tight-m27-s3": ExperimentSpec(
        "bipfree", "tight", {"m": 27, "s": 3}, seed=0, trials=1),
}

PINS = {
    "mt19937/sha256-derive": {
        "bipfree-tight-m27-s3":
            "43b66850cd82304fb82f341f0c8b7e87a7b49a4f61ba06f16983974f46a61eee",
        "bipfree-tight-m64":
            "c81f6a1adac6842c0168e154b685417551d46082c7e0bff7ea2ea007a4c34b39",
        "weakseq-minor-n200-t3":
            "b22b7e57ccab36ac654246f3d97cc3081d0bca5fa1a9edb4b56985066687aab5",
        "weakseq-minor-n200-t3-plain":
            "f0e179747abe39921f734c106f16b071d558880b1a8d3c3c7e3d06d491f14991",
        "weakseq-minor-n600-t4":
            "40c25a4f551bc11e3d3a7199aee1d4dd88d555fd1515554096d95cb39fb749a3",
        "weakseq-minor-sparse-failure":
            "815453c1b658a5365af2e46e8f6a0cd903181a04f9cc41818b930fa1375eda3d",
        "weakseq-pipeline-ktt-absent":
            "aa3662bc19cb193713d344499614a33e3b4be78f312e4ad9b27bcc7eaea7e2e5",
        "weakseq-pipeline-n200-regime":
            "1cac9a51d16fa28345f97e1b87ba57e3312b9bcbc364e5cf9533ca20875f52fa",
        "weakseq-pipeline-n300-sparse":
            "25d7598677f1ea50200506d38a75b7abc3e3f05cc6697d401821b4ae4a2ab69f",
        "weakseq-pipeline-n400-t2":
            "1fd1d2c5eeb5a7c8edbddbac11ba1f3a11709178c649d52be4c12ff9ba1eb9ff",
        "weakseq-pipeline-n600-t3":
            "e85054b0c2008f0fc963ed3ef10fda15f3a144750e5794019340615172967216",
        "weakseq-verify-n300":
            "d37e96eb0d95191e3c86f4fed1b12d26157e4a3793011d888a4ffa66acc39a31",
    },
}


def corpus_pins(algorithm: str) -> dict:
    pins = PINS.get(algorithm)
    if pins is None:
        pytest.fail(f"no record-corpus pins for RNG algorithm {algorithm!r}; "
                    "compute them from a trusted commit and add them to PINS")
    return pins


def trials_digest(spec: ExperimentSpec) -> str:
    blob = json.dumps(run(spec).trials, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_digest(name, monkeypatch):
    monkeypatch.delenv("EXLAB_THREADS", raising=False)
    pins = corpus_pins(RngStream.ALGORITHM)
    assert name in pins, f"corpus spec {name!r} has no pin"
    assert trials_digest(CORPUS[name]) == pins[name]


def test_corpus_pins_cover_the_corpus():
    assert sorted(corpus_pins(RngStream.ALGORITHM)) == sorted(CORPUS)


def test_unpinned_algorithm_fails_loudly():
    with pytest.raises(pytest.fail.Exception, match="no record-corpus pins"):
        corpus_pins("xoshiro/unpinned")
