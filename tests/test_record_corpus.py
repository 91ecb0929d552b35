"""Cross-commit record corpus: fixed specs whose trial lists are pinned.

Each spec runs through ``expcli.run`` and its trial list is reduced to the
SHA-256 of its canonical JSON.  The pins were computed once and must be
reproduced byte for byte by any change that claims to keep behaviour, so a
refactor of the graph layer or the pipelines shows up here as a digest
mismatch.  The corpus reaches every operation, ``Failure`` trials of a
round cap and of two retry caps (``*-cap-failure``), a
``FalsifyingColoring`` witness (``rsgraph-decompose-falsified``), and two
G(2000, 1/2) hosts where ``find_ktt`` searches for a K_{t,t} with t = 4 and
t = 12, and a removal descent that deletes a sparse colour before its base
case (``removal-iterate-corner-free``, read from a grid file).  Two specs
draw per trial on one host file (``*-file-host``), so every trial runs on
the same parsed graph.  Pins are keyed by ``RngStream.ALGORITHM``: a new
random algorithm changes every random host, and it must add its own pins
instead of passing.
The whole corpus also runs once under ``python -O``, which strips assert
statements, and must give the same pins.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exlab
from exlab.core import RngStream
from exlab.expcli import OPS, ExperimentSpec, run

# a 2-coloured 4 x 4 grid without a monochromatic corner: its removal
# descent deletes a sparse colour once before the base case
CORNER_FREE = Path(__file__).resolve().with_name("golden") / "corner_free_4.grid"
# a G(120, 0.7) edge list: the minor spec's first trial fails at
# paths_drc[2] and its second finds a minor
DENSE_120 = CORNER_FREE.with_name("dense_120.edges")

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
    "bipfree-extract-file-host": ExperimentSpec(
        "bipfree", "extract", {"input": str(DENSE_120)}, seed=3, trials=3),
    "weakseq-minor-file-host": ExperimentSpec(
        "weakseq", "minor", {"input": str(DENSE_120), "t": 3},
        seed=4, trials=2),
    "bipfree-extract-retry-cap-failure": ExperimentSpec(
        "bipfree", "extract", {"n": 5, "p": 1.0, "retry_cap": 1}),
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
        "embed", "drc", {"N": 72, "p": 0.37, "k": 2, "eps": "1/3",
                         "retry_cap": 1}, seed=17),
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
    "removal-iterate-corner-free": ExperimentSpec(
        "removal", "iterate", {"grid_file": str(CORNER_FREE)}),
    "removal-diamond-n5": ExperimentSpec(
        "removal", "diamond", {"N": 5, "r": 2}, seed=1, trials=2),
    "removal-grid-n6-r3": ExperimentSpec(
        "removal", "grid", {"N": 6, "r": 3}, seed=1, trials=2),
}

PINS = {
    "mt19937-digits/sha256-derive": {
        "bipfree-count-n30":
            "0880391cfe38482f9709187b39037e7d093411fda0d3faef1954b39e5bf82c0e",
        "bipfree-extract-file-host":
            "15c2547e3317c4a61d0a66030afb788288d6d34011a849931951591dcb7f0210",
        "bipfree-extract-n40":
            "23fb81fa3b65ee0af53e09e1ce4907c36c76a64118e77e5063121c094d718336",
        "bipfree-extract-retry-cap-failure":
            "67f04e746c0b5af73e7d0c6ea40070beb02adbd91a55a2431fbae36e8af8c408",
        "bipfree-kcheck-k3-half":
            "93de8dd00bd9f41bb303be7387a5ab0330d598d0155adc3c66e31b03cb88fe25",
        "bipfree-tight-m27-s3":
            "43b66850cd82304fb82f341f0c8b7e87a7b49a4f61ba06f16983974f46a61eee",
        "bipfree-tight-m64":
            "c81f6a1adac6842c0168e154b685417551d46082c7e0bff7ea2ea007a4c34b39",
        "embed-cube-d3":
            "9aa350458925550512d324c44b034bb06b8715f7e300af0c0b4d26e49e3b7946",
        "embed-drc-defaults":
            "70b74e8511703a1f7b2cf8a2e8b5ae810eb706cd59c063b603b858b162aba480",
        "embed-drc-retry-cap-failure":
            "f6d83b6c05f501657911f7b538a212aaf5fefbe03842be744b720895fe6c2366",
        "embed-lemma-n64-d2":
            "7bcb3b0f71551ccd1827c5aeb8ff881aad5f2a9ac8202955489de96d5b89f21a",
        "embed-lemma-round-cap-failure":
            "d7d7d1a5ac3f77253705fcd1cc5516e703f4961d0ee5eecea9d24e9653c301cf",
        "embed-pipeline-n256":
            "aed800df26fd18f1a90372caa1ddf8228c8bad18d6e6a47aca35ccc9d927d682",
        "removal-census-n6":
            "e9495d84e03318e52c258f24f06fd80d72b4fb2a0baeba4be21168ad3a2e5ffe",
        "removal-diamond-n5":
            "1aa4ab60ccb7e5711fffa488ebcff53693b83485cdd938a974f7500ec8f1f18b",
        "removal-grid-n6-r3":
            "79a4cbab5659a70f60f44cbe46913a4198cbce1119843d8cc6d8757069461dc7",
        "removal-iterate-corner-free":
            "1e86ffa7eaf7f93ac0308d300acffa94d1b4e67c3e91b9a49581a152d2958649",
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
        "weakseq-minor-file-host":
            "502abf230c57e13198f2601fa088e7a06b39fa844dfd6aaa74c793ace9bd67eb",
        "weakseq-minor-n200-t3":
            "ee060012b943af0527d7e6e6767b9b92996a66e96190b00f930c218a95c5080b",
        "weakseq-minor-n200-t3-plain":
            "584a420c6e6f51370bdba10a4be78e153fb6c1c76fa2ef6e758162f328f37830",
        "weakseq-minor-n600-t4":
            "dd4bc2371362c0f4caf11d5887f0f867ba84d15dbad95d41d43e183122683e76",
        "weakseq-minor-sparse-failure":
            "cebd67b4118a25f80c18d22d5c4b5db21a792c6f14702ecbd7e221d77e83df2d",
        "weakseq-oracle-n10":
            "f58f9fb55a87bb965b8bf2c1cb4697a6b920d413c0da84eb4bbb52c8cb201b95",
        "weakseq-pipeline-ktt-absent":
            "dbfa7183d3d7b3824e5bc73368c9110bbc40095dae5c1e49983ce495045aaf97",
        "weakseq-pipeline-n200-regime":
            "833a33a1807e35f6f510f31974ac92f8f96a1dd98c3399d9fedb06d9fedf2c0a",
        "weakseq-pipeline-n2000-t12":
            "d6b9970b3a899e3ccbd2561faa772a5744113598b5624a2036b88ad1f7e9370f",
        "weakseq-pipeline-n2000-t4":
            "54ad2e549eba393b1d4988c60fce5906a756151d263008c622aa509ab12dd60a",
        "weakseq-pipeline-n300-sparse":
            "236411f0f061ed66d38ed9b395a114ccf33dab99813dafa929ae75832e4505dd",
        "weakseq-pipeline-n400-t2":
            "97ea074e3b2343998eb990f94f194c89d0a43aa7c8f18222a4f165ec24195788",
        "weakseq-pipeline-n600-t3":
            "aa40b488a36504a54fb7493f8ef7656e4f702c813e6daa9415399652cd0f148e",
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


# every corpus spec in one interpreter, printed as {name: digest}
_CORPUS_DIGESTS = """
import json
from test_record_corpus import CORPUS, trials_digest
print(json.dumps({name: trials_digest(spec) for name, spec in CORPUS.items()}))
"""


def test_corpus_digests_hold_under_optimize_flag():
    # python -O strips assert statements, so no kernel or verifier on any
    # operation's path may lean on one for what it returns
    src = Path(exlab.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (src, here, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-W", "ignore::RuntimeWarning",
                          "-c", _CORPUS_DIGESTS], capture_output=True,
                         text=True, env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == corpus_pins(RngStream.ALGORITHM)


def test_corpus_pins_cover_the_corpus():
    assert sorted(corpus_pins(RngStream.ALGORITHM)) == sorted(CORPUS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(n for n in CORPUS
                                        if n.endswith("-cap-failure")))
def test_cap_failure_specs_record_only_failures(name):
    outcomes = [t["outcome"] for t in run(CORPUS[name]).trials]
    assert outcomes and all(o.startswith("failure:") for o in outcomes), \
        outcomes


def test_corpus_covers_every_operation():
    assert {(s.module, s.operation) for s in CORPUS.values()} == set(OPS)


def test_unpinned_algorithm_fails_loudly():
    with pytest.raises(pytest.fail.Exception, match="no record-corpus pins"):
        corpus_pins("xoshiro/unpinned")
