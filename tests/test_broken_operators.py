"""Reports under broken operators stay what they were.

The regression oracle pins only passing runs. Here each of five carriers has
its operator replaced, through `main(argv, models=...)` and `--model`, by one
of four broken maps that keep the declared weight, and every suite below that
takes the carrier runs on it at small parameters. Each run's exit code and
the sha256 of its JSON report without `elapsed_ms` are pinned (a run that
exits 2 writes no report). A change that shares work between laws must keep
every failure, counterexample and refusal as it was.
"""

import hashlib
import json
from dataclasses import replace

from rbx import cli

FLAGS = ["--trials", "10", "--order", "4", "--bs-arity", "4", "--format", "json"]

# the broken operators, each built from the carrier's own R
MUTANTS = {
    "2R": lambda rb: lambda x: 2 * rb(x),
    "R+id": lambda rb: lambda x: rb(x) + x,
    "RR": lambda rb: lambda x: rb(rb(x)),
    "x*x": lambda rb: lambda x: x * x,
}

# (carrier, mutant, suite) -> (exit code, first 16 hex digits of the report's sha256)
PINS = {
    ("matrix", "2R", "rb-laws"): (1, "d92fc76d1f7c453c"),
    ("matrix", "2R", "prelie"): (1, "0867f940c648a428"),
    ("matrix", "2R", "yang-baxter"): (1, "1ab21cf8a6f9e1fe"),
    ("matrix", "2R", "atkinson"): (1, "650526b137580a38"),
    ("matrix", "2R", "flows-bch"): (1, "d623370c8f934b51"),
    ("matrix", "2R", "bohnenblust-spitzer"): (1, "7c97c619079823c3"),
    ("matrix", "R+id", "rb-laws"): (1, "7b0a367ac7ab0483"),
    ("matrix", "R+id", "prelie"): (1, "38974e2695da0d32"),
    ("matrix", "R+id", "yang-baxter"): (1, "24bbfb9864dc805a"),
    ("matrix", "R+id", "atkinson"): (1, "f6fc6d05dba396e3"),
    ("matrix", "R+id", "flows-bch"): (1, "a912e48e8992b5b9"),
    ("matrix", "R+id", "bohnenblust-spitzer"): (1, "1d8f51cd647adcab"),
    ("matrix", "RR", "rb-laws"): (0, "679d5bed3f71ab0b"),
    ("matrix", "RR", "prelie"): (0, "b807f4f4035c41f0"),
    ("matrix", "RR", "yang-baxter"): (0, "4b7452d5c6c94541"),
    ("matrix", "RR", "atkinson"): (0, "5e66abcda2b6ffa0"),
    ("matrix", "RR", "flows-bch"): (0, "99a369fe475f0436"),
    ("matrix", "RR", "bohnenblust-spitzer"): (0, "62488f865c198656"),
    ("matrix", "x*x", "rb-laws"): (1, "d99ce8306a1e90a7"),
    ("matrix", "x*x", "prelie"): (1, "38e9d12a9af11967"),
    ("matrix", "x*x", "yang-baxter"): (1, "fa65517ce24d18b1"),
    ("matrix", "x*x", "atkinson"): (1, "1613507a457909af"),
    ("matrix", "x*x", "flows-bch"): (1, "a8896eb084547150"),
    ("matrix", "x*x", "bohnenblust-spitzer"): (1, "d2b51ab70e517c46"),
    ("standard-comm", "2R", "rb-laws"): (1, "957d695ec041f542"),
    ("standard-comm", "2R", "prelie"): (0, "1f32ad07dac66f46"),
    ("standard-comm", "2R", "yang-baxter"): (1, "9ea24749f988750d"),
    ("standard-comm", "2R", "atkinson"): (1, "9980434dd718003a"),
    ("standard-comm", "2R", "bohnenblust-spitzer"): (1, "8dc96dc325fb017c"),
    ("standard-comm", "2R", "quasi-shuffle"): (1, "0d3f4600b1c4b0d3"),
    ("standard-comm", "R+id", "rb-laws"): (1, "1d27c3fde0c00112"),
    ("standard-comm", "R+id", "prelie"): (0, "1f32ad07dac66f46"),
    ("standard-comm", "R+id", "yang-baxter"): (1, "cffac196522b1b0a"),
    ("standard-comm", "R+id", "atkinson"): (1, "6bfcb50bd5bf8778"),
    ("standard-comm", "R+id", "bohnenblust-spitzer"): (1, "21e181433ae9b7e3"),
    ("standard-comm", "R+id", "quasi-shuffle"): (1, "01b30a3a0d697cb5"),
    ("standard-comm", "RR", "rb-laws"): (1, "cd6d81dd2475382f"),
    ("standard-comm", "RR", "prelie"): (0, "1f32ad07dac66f46"),
    ("standard-comm", "RR", "yang-baxter"): (1, "4eb00c234c1b17d8"),
    ("standard-comm", "RR", "atkinson"): (1, "b69cca930903063d"),
    ("standard-comm", "RR", "bohnenblust-spitzer"): (1, "afcbb69f72ffdbd0"),
    ("standard-comm", "RR", "quasi-shuffle"): (1, "9fdd9a5945527c9f"),
    ("standard-comm", "x*x", "rb-laws"): (1, "f28bc0852e0e97db"),
    ("standard-comm", "x*x", "prelie"): (0, "1f32ad07dac66f46"),
    ("standard-comm", "x*x", "yang-baxter"): (1, "bd3c51ecc2644fc6"),
    ("standard-comm", "x*x", "atkinson"): (1, "bbb5a7685178748b"),
    ("standard-comm", "x*x", "bohnenblust-spitzer"): (1, "0036dde0641a2de2"),
    ("standard-comm", "x*x", "quasi-shuffle"): (1, "a0fa931a7f57730c"),
    ("standard-nc", "2R", "rb-laws"): (1, "fd070672dd3222ef"),
    ("standard-nc", "2R", "prelie"): (0, "81669b52002d3496"),
    ("standard-nc", "2R", "yang-baxter"): (1, "715c4a953f106af4"),
    ("standard-nc", "2R", "atkinson"): (1, "4bd1d23866f90551"),
    ("standard-nc", "2R", "bohnenblust-spitzer"): (1, "e9d5175f08e6da6d"),
    ("standard-nc", "R+id", "rb-laws"): (1, "279f5973eaeb3e0c"),
    ("standard-nc", "R+id", "prelie"): (0, "81669b52002d3496"),
    ("standard-nc", "R+id", "yang-baxter"): (1, "e3e60d51fb4fd3b5"),
    ("standard-nc", "R+id", "atkinson"): (1, "13d883caf53ceab8"),
    ("standard-nc", "R+id", "bohnenblust-spitzer"): (1, "d0754fde8a2cce78"),
    ("standard-nc", "RR", "rb-laws"): (1, "5c4034ed6877951b"),
    ("standard-nc", "RR", "prelie"): (1, "38bf8c6244ac3cb5"),
    ("standard-nc", "RR", "yang-baxter"): (1, "0fec5b09fad50f70"),
    ("standard-nc", "RR", "atkinson"): (1, "9abaffcf73191e9e"),
    ("standard-nc", "RR", "bohnenblust-spitzer"): (1, "0eb68c4367e65a3c"),
    ("standard-nc", "x*x", "rb-laws"): (1, "3efef1b3e4c877c1"),
    ("standard-nc", "x*x", "prelie"): (0, "81669b52002d3496"),
    ("standard-nc", "x*x", "yang-baxter"): (1, "4c873888b3d23283"),
    ("standard-nc", "x*x", "atkinson"): (1, "0e2a552cb35150ea"),
    ("standard-nc", "x*x", "bohnenblust-spitzer"): (1, "caae326bf3728da9"),
    ("integration", "2R", "rb-laws"): (0, "587133f23931608b"),
    ("integration", "2R", "prelie"): (0, "7db3d2257abadfad"),
    ("integration", "2R", "dendriform"): (0, "89d95c27bee736f2"),
    ("integration", "2R", "yang-baxter"): (0, "22b3f34383112a1b"),
    ("integration", "2R", "atkinson"): (0, "e8cc8b60bc840509"),
    ("integration", "2R", "bohnenblust-spitzer"): (0, "217d4d935203f114"),
    ("integration", "R+id", "rb-laws"): (1, "b633d39cac76b864"),
    ("integration", "R+id", "prelie"): (0, "7db3d2257abadfad"),
    ("integration", "R+id", "dendriform"): (1, "1bca30ac28ee6507"),
    ("integration", "R+id", "yang-baxter"): (1, "7061d460fb74939d"),
    ("integration", "R+id", "atkinson"): (1, "1c1b0ca8eef7cd72"),
    ("integration", "R+id", "bohnenblust-spitzer"): (1, "ed8fb1d869841a26"),
    ("integration", "RR", "rb-laws"): (1, "556febcb6cdef190"),
    ("integration", "RR", "prelie"): (0, "7db3d2257abadfad"),
    ("integration", "RR", "dendriform"): (1, "03176c8950cce377"),
    ("integration", "RR", "yang-baxter"): (1, "22a327c0f8ca75e6"),
    ("integration", "RR", "atkinson"): (1, "830f2d20b57f5169"),
    ("integration", "RR", "bohnenblust-spitzer"): (1, "b88db36ce9fa4caa"),
    ("integration", "x*x", "rb-laws"): (1, "ff8f618e3846aa3e"),
    ("integration", "x*x", "prelie"): (0, "7db3d2257abadfad"),
    ("integration", "x*x", "dendriform"): (1, "873070cb8a3f5c22"),
    ("integration", "x*x", "yang-baxter"): (1, "dbb05fe1852ef8ba"),
    ("integration", "x*x", "atkinson"): (2, None),
    ("integration", "x*x", "bohnenblust-spitzer"): (2, None),
    ("summation", "2R", "rb-laws"): (1, "1565bb125bbb51ca"),
    ("summation", "2R", "prelie"): (0, "4d213ee446a3b797"),
    ("summation", "2R", "yang-baxter"): (1, "2250bf4d3a795a17"),
    ("summation", "2R", "atkinson"): (1, "467e654bbf0f0b65"),
    ("summation", "R+id", "rb-laws"): (1, "5c44fba3fd7a86b0"),
    ("summation", "R+id", "prelie"): (0, "4d213ee446a3b797"),
    ("summation", "R+id", "yang-baxter"): (1, "5655b8aae22b2f5e"),
    ("summation", "R+id", "atkinson"): (1, "38bebf3a9713c9f1"),
    ("summation", "RR", "rb-laws"): (1, "ef00afd180045676"),
    ("summation", "RR", "prelie"): (0, "4d213ee446a3b797"),
    ("summation", "RR", "yang-baxter"): (1, "34911e29c09d09a2"),
    ("summation", "RR", "atkinson"): (1, "d36fe7d21b7fd130"),
    ("summation", "x*x", "rb-laws"): (1, "e0ac85192746f8be"),
    ("summation", "x*x", "prelie"): (0, "4d213ee446a3b797"),
    ("summation", "x*x", "yang-baxter"): (1, "7347f3fc38f53754"),
    ("summation", "x*x", "atkinson"): (1, "a0858fd0b06e837f"),
}


def run(carrier: str, mutant: str, suite: str, capsys) -> tuple:
    argv = ["verify", "--suite", suite, "--model", cli._MODELS[carrier].pick or carrier, *FLAGS]
    alg = cli.default_models(cli.parse_config(argv))[carrier]
    broken = replace(alg, rb=MUTANTS[mutant](alg.rb))
    rc = cli.main(argv, models={carrier: broken})
    out = capsys.readouterr().out
    if not out:
        return rc, None
    payload = json.loads(out)
    payload.pop("elapsed_ms")
    body = json.dumps(payload, sort_keys=True).encode()
    return rc, hashlib.sha256(body).hexdigest()[:16]


def test_reports_under_broken_operators_are_pinned(capsys):
    got = {key: run(*key, capsys) for key in PINS}
    assert {key: value for key, value in got.items() if value != PINS[key]} == {}
