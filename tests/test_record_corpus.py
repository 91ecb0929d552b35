"""Cross-commit record corpus: fixed specs whose trial lists are pinned.

Each spec runs through ``expcli.run`` and its trial list is reduced to the
SHA-256 of its canonical JSON.  The pins were computed once and must be
reproduced byte for byte by any change that claims to keep behaviour, so a
refactor of the graph layer or the pipelines shows up here as a digest
mismatch.  The corpus reaches every operation, ``Failure`` trials of a
round cap and of two retry caps (``*-cap-failure``), a
``FalsifyingColoring`` witness (``rsgraph-decompose-falsified``), and two
G(2000, 1/2) hosts where ``find_ktt`` searches for a K_{t,t} with t = 4 and
t = 12.  Pins are keyed by ``RngStream.ALGORITHM``: a new random algorithm
changes every random host, and it must add its own pins instead of passing.
"""

import hashlib
import json

import pytest

from exlab.core import RngStream
from exlab.expcli import OPS, ExperimentSpec, run

CORPUS = {
    "weakseq-pipeline-n200-regime": ExperimentSpec(
        "weakseq", "pipeline", {"n": 200, "p": 0.5, "r": 2}, seed=1, trials=3),
    "weakseq-pipeline-n400-t2": ExperimentSpec(
        "weakseq", "pipeline", {"n": 400, "p": 0.5, "r": 3, "t": 2},
        seed=2, trials=2),
    "weakseq-pipeline-n600-t3": ExperimentSpec(
        "weakseq", "pipeline", {"n": 600, "p": 0.6, "r": 3, "t": 3},
        seed=3, trials=1),
    "weakseq-pipeline-n2000-t4": ExperimentSpec(
        "weakseq", "pipeline", {"n": 2000, "p": 0.5, "r": 4, "t": 4},
        seed=7, trials=1),
    "weakseq-pipeline-n2000-t12": ExperimentSpec(
        "weakseq", "pipeline", {"n": 2000, "p": 0.5, "r": 4, "t": 12},
        seed=8, trials=1),
    "weakseq-pipeline-n300-sparse": ExperimentSpec(
        "weakseq", "pipeline", {"n": 300, "p": 0.3, "r": 2, "t": 2},
        seed=4, trials=2),
    "weakseq-pipeline-ktt-absent": ExperimentSpec(
        "weakseq", "pipeline", {"n": 200, "p": 0.1, "r": 2, "t": 12},
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
    "setmap-construct-k2-n4": ExperimentSpec(
        "setmap", "construct", {"k": 2, "n": 4}),
    "setmap-violate-k2-n6": ExperimentSpec(
        "setmap", "violate", {"k": 2, "n": 6}, seed=7, trials=4),
    "setmap-oracle-caro3-n3": ExperimentSpec(
        "setmap", "oracle", {"n": 3, "variant": "caro3",
                             "mode": "not_subset", "budget": 500},
        seed=1, trials=1),
    "bipfree-count-n30": ExperimentSpec(
        "bipfree", "count", {"n": 30, "p": 0.5}, seed=2, trials=2),
    "bipfree-extract-n40": ExperimentSpec(
        "bipfree", "extract", {"n": 40, "p": 0.5}, seed=3, trials=2),
    "bipfree-extract-retry-cap-failure": ExperimentSpec(
        "bipfree", "extract", {"n": 12, "p": 0.5, "retry_cap": 1}, seed=8),
    "bipfree-kcheck-k3-half": ExperimentSpec(
        "bipfree", "kcheck", {"k": 3, "r": 2, "n": 2, "p": 0.5},
        seed=4, trials=2),
    "embed-lemma-n64-d2": ExperimentSpec(
        "embed", "lemma", {"N": 64, "k": 3, "d": 2}, seed=1, trials=2),
    "embed-lemma-round-cap-failure": ExperimentSpec(
        "embed", "lemma", {"N": 16, "k": 3, "d": 3, "delta": "1/2",
                           "round_cap": 1}, seed=1, trials=2),
    "embed-drc-defaults": ExperimentSpec(
        "embed", "drc", {}, seed=1, trials=2),
    "embed-drc-retry-cap-failure": ExperimentSpec(
        "embed", "drc", {"N": 64, "p": 0.6, "k": 2, "eps": "1/2", "n": 8,
                         "retry_cap": 1}, seed=27),
    "embed-pipeline-n256": ExperimentSpec(
        "embed", "pipeline", {"N": 256}, seed=1, trials=1),
    "embed-cube-d3": ExperimentSpec(
        "embed", "cube", {"d": 3}),
    "weakseq-oracle-n10": ExperimentSpec(
        "weakseq", "oracle", {"n": 10, "p": 0.5}, seed=1, trials=2),
    "rsgraph-behrend-n100": ExperimentSpec(
        "rsgraph", "behrend", {"N": 100}),
    "rsgraph-construct-n100": ExperimentSpec(
        "rsgraph", "construct", {"N": 100}),
    "rsgraph-double-n100": ExperimentSpec(
        "rsgraph", "double", {"N": 100}),
    "rsgraph-decompose-n4": ExperimentSpec(
        "rsgraph", "decompose", {"N": 4, "n": 1}),
    "rsgraph-decompose-falsified": ExperimentSpec(
        "rsgraph", "decompose", {"N": 5, "n": 2, "t": 3}),
    "rsgraph-arrow-n4": ExperimentSpec(
        "rsgraph", "arrow", {"N": 4, "t": 2, "n": 2}),
    "removal-census-n6": ExperimentSpec(
        "removal", "census", {"N": 6, "r": 2}, seed=1, trials=2),
    "removal-step-n6": ExperimentSpec(
        "removal", "step", {"N": 6, "r": 2}, seed=1, trials=2),
    "removal-iterate-n8": ExperimentSpec(
        "removal", "iterate", {"N": 8, "r": 2}, seed=1, trials=2),
    "removal-diamond-n5": ExperimentSpec(
        "removal", "diamond", {"N": 5, "r": 2}, seed=1, trials=2),
    "removal-grid-n6-r3": ExperimentSpec(
        "removal", "grid", {"N": 6, "r": 3}, seed=1, trials=2),
}

PINS = {
    "mt19937/sha256-derive": {
        "bipfree-count-n30":
            "940c6d593433b711828b0477f4b957d8853b2559ca566728405c5a60df6df8fb",
        "bipfree-extract-n40":
            "e045bd03abd4bb3dbb4198aa5ba3f661cfc904688ed7440565437dd069440b2a",
        "bipfree-extract-retry-cap-failure":
            "7e73ea54a6fe3194726b284fc5922d12c9846e015353c3e55ce8a26b07d74bea",
        "bipfree-kcheck-k3-half":
            "93de8dd00bd9f41bb303be7387a5ab0330d598d0155adc3c66e31b03cb88fe25",
        "bipfree-tight-m27-s3":
            "43b66850cd82304fb82f341f0c8b7e87a7b49a4f61ba06f16983974f46a61eee",
        "bipfree-tight-m64":
            "c81f6a1adac6842c0168e154b685417551d46082c7e0bff7ea2ea007a4c34b39",
        "embed-cube-d3":
            "9aa350458925550512d324c44b034bb06b8715f7e300af0c0b4d26e49e3b7946",
        "embed-drc-defaults":
            "004219cbeabb14d32c5e7af8c535758c71ccaa4b53b0cd4a05a5304619961ad1",
        "embed-drc-retry-cap-failure":
            "051959ee19a2b44ef4781169dd7370dc047250d9d8d0d461c9838b1f7e6b1a50",
        "embed-lemma-n64-d2":
            "7bcb3b0f71551ccd1827c5aeb8ff881aad5f2a9ac8202955489de96d5b89f21a",
        "embed-lemma-round-cap-failure":
            "d7d7d1a5ac3f77253705fcd1cc5516e703f4961d0ee5eecea9d24e9653c301cf",
        "embed-pipeline-n256":
            "57a3000e4f0b6a0291cade4a8de9d746cd5fe314b344e93b150a447065d3d3cf",
        "removal-census-n6":
            "e9495d84e03318e52c258f24f06fd80d72b4fb2a0baeba4be21168ad3a2e5ffe",
        "removal-diamond-n5":
            "1aa4ab60ccb7e5711fffa488ebcff53693b83485cdd938a974f7500ec8f1f18b",
        "removal-grid-n6-r3":
            "79a4cbab5659a70f60f44cbe46913a4198cbce1119843d8cc6d8757069461dc7",
        "removal-iterate-n8":
            "46ed6c0f3ffd5da97822a2c4643a2033748f78ac876df4d6899c52cb20df0d4a",
        "removal-step-n6":
            "453f3c043c7af485af7aed190b24a43f5c5b24763548b9a8c45d833d7073004a",
        "rsgraph-arrow-n4":
            "84220ed68dbe7f487d12e02579326d4a7418543e89104896eb516efde589579c",
        "rsgraph-behrend-n100":
            "1ff8830d30401d4c08eee496a99c904c7d99e169f6680ef12f3dd02ac709337c",
        "rsgraph-construct-n100":
            "27aedaa7ddd69b897dbf8950e468067624bc56083ae8f8f94ade924dbbb72986",
        "rsgraph-decompose-falsified":
            "7e9c203250b68627ae427cfaa3958f8207e0bb00f1e3ae9191fb8ddfe1926aaf",
        "rsgraph-decompose-n4":
            "8b515c647d2d7c328899ba6999d650a269801d11c7499a716ed7953053676e30",
        "rsgraph-double-n100":
            "dee726a96e91a99053b8ce82cc2e76dcefada4200a11a1e6b5038c848236eaad",
        "setmap-construct-k2-n4":
            "1ad29db6eaf604dbe3e09736a598789e1c196d3998eb5454d2c96ba11426807a",
        "setmap-oracle-caro3-n3":
            "b59a454b1c07051c4e2485d2c63667d1fe6a8120b3b4ae8b7bc58aebc08ceb06",
        "setmap-violate-k2-n6":
            "5a03769fbba7b62361ba2b876ad3999508f20952adb391522bcbb8b31118f931",
        "weakseq-minor-n200-t3":
            "b22b7e57ccab36ac654246f3d97cc3081d0bca5fa1a9edb4b56985066687aab5",
        "weakseq-minor-n200-t3-plain":
            "f0e179747abe39921f734c106f16b071d558880b1a8d3c3c7e3d06d491f14991",
        "weakseq-minor-n600-t4":
            "40c25a4f551bc11e3d3a7199aee1d4dd88d555fd1515554096d95cb39fb749a3",
        "weakseq-minor-sparse-failure":
            "815453c1b658a5365af2e46e8f6a0cd903181a04f9cc41818b930fa1375eda3d",
        "weakseq-oracle-n10":
            "f58f9fb55a87bb965b8bf2c1cb4697a6b920d413c0da84eb4bbb52c8cb201b95",
        "weakseq-pipeline-ktt-absent":
            "aa3662bc19cb193713d344499614a33e3b4be78f312e4ad9b27bcc7eaea7e2e5",
        "weakseq-pipeline-n200-regime":
            "1cac9a51d16fa28345f97e1b87ba57e3312b9bcbc364e5cf9533ca20875f52fa",
        "weakseq-pipeline-n2000-t12":
            "3cdc0a20500ddde9a8f8b4e711f9834b72582f665b5553c7e7bbdcd92ab3b702",
        "weakseq-pipeline-n2000-t4":
            "0c84ded5d29116434299867481c027bc82b70f1a55350cb7f41522154c2e08bd",
        "weakseq-pipeline-n300-sparse":
            "25d7598677f1ea50200506d38a75b7abc3e3f05cc6697d401821b4ae4a2ab69f",
        "weakseq-pipeline-n400-t2":
            "1fd1d2c5eeb5a7c8edbddbac11ba1f3a11709178c649d52be4c12ff9ba1eb9ff",
        "weakseq-pipeline-n600-t3":
            "e85054b0c2008f0fc963ed3ef10fda15f3a144750e5794019340615172967216",
    },
}


def first_specs() -> dict:
    """The first corpus spec of each operation, keyed (module, operation)."""
    first = {}
    for spec in CORPUS.values():
        first.setdefault((spec.module, spec.operation), spec)
    return first


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
def test_corpus_digest(name):
    pins = corpus_pins(RngStream.ALGORITHM)
    assert name in pins, f"corpus spec {name!r} has no pin"
    assert trials_digest(CORPUS[name]) == pins[name]


def test_corpus_pins_cover_the_corpus():
    assert sorted(corpus_pins(RngStream.ALGORITHM)) == sorted(CORPUS)


def test_corpus_covers_every_operation():
    assert {(s.module, s.operation) for s in CORPUS.values()} == set(OPS)


def test_unpinned_algorithm_fails_loudly():
    with pytest.raises(pytest.fail.Exception, match="no record-corpus pins"):
        corpus_pins("xoshiro/unpinned")
