"""Every CLI command's output bytes, pinned by sha256.

Each run calls cli.main in process, from a directory holding seeded inputs:
the dyadic pair and measures of tests/test_cli.py, and non-dyadic float
files (leaves times 1/3 and pi, masses divided by pi, random.uniform trees).
The digest covers the exit code, stdout, stderr and the bytes written to
--out, --emit and --csv, so a change in any report shows here.
"""
import hashlib
import json
import math
import random

import pytest

from dyuch.carleson import measure_to_json, random_balanced_measure
from dyuch.cli import _fmt, main
from dyuch.dyadic import tree_to_json, window_root
from dyuch.martingale import analytic_to_json, random_analytic, random_sliced


def _tree(leaves, window=False):
    obj = {"base": "unit", "depth": len(leaves).bit_length() - 1, "leaves": leaves}
    if window:
        obj.update(base="real_line", ancestor_levels=1)
    return obj


def _scaled(obj, c):
    return {**obj, "leaves": [x * c for x in obj["leaves"]]}


def _over_pi(obj):
    return {**obj, "masses": {k: m / math.pi for k, m in obj["masses"].items()}}


def write_inputs(box):
    pair = analytic_to_json(random_analytic(random.Random(9), 4))
    wpair = analytic_to_json(random_analytic(random.Random(12), 4, window_root(1)))
    mu = measure_to_json(random_balanced_measure(random.Random(9), 4))
    rng = random.Random(13)
    files = {
        "pair.json": pair,
        "mu.json": mu,
        "mu2.json": measure_to_json(random_balanced_measure(random.Random(10), 2)),
        "u.json": tree_to_json(random_sliced(random.Random(11), 4)),
        "pu.json": pair["u"],
        "pv.json": pair["v"],
        "big.json": _tree([1e200] * 4),
        "pair3.json": {part: _scaled(pair[part], 1 / 3) for part in ("u", "v")},
        "pairpi.json": {part: _scaled(pair[part], math.pi) for part in ("u", "v")},
        "mupi.json": _over_pi(mu),
        "upi.json": _scaled(pair["u"], math.pi),
        "wpair3.json": {part: _scaled(wpair[part], 1 / 3) for part in ("u", "v")},
        "wmupi.json": _over_pi(measure_to_json(
            random_balanced_measure(random.Random(12), 4, window_root(1)))),
        "re.json": _tree([rng.uniform(-2.0, 2.0) for _ in range(16)]),
        "im.json": _tree([rng.uniform(-2.0, 2.0) for _ in range(16)]),
        "wre.json": _tree([rng.uniform(-2.0, 2.0) for _ in range(16)], window=True),
    }
    for name, obj in files.items():
        (box / name).write_text(json.dumps(obj))


RUNS = {
    "verify-bellman": ["verify-bellman", "--samples", "200"],
    "verify-bellman-no-boundary": ["verify-bellman", "--samples", "200", "--seed", "3",
                                   "--no-boundary"],
    # 19 slices, the size of test_bellman's check of every slice against LAPACK on all samples
    "verify-bellman-pool": ["verify-bellman", "--samples", "300000", "--seed", "2"],
    "verify-bellman-pool-no-boundary": ["verify-bellman", "--samples", "300000", "--seed", "2",
                                        "--no-boundary"],
    # the benchmark's verifier command
    "verify-bellman-million": ["verify-bellman", "--samples", "1000000", "--seed", "1"],
    "scan-unsliced": ["scan-unsliced", "--csv", "w.csv"],
    "scan-unsliced-d-zero": ["scan-unsliced", "--region", "d-zero", "--step", "0.1"],
    "embed": ["embed", "--function", "pair.json", "--measure", "mu.json"],
    "embed-third-pi": ["embed", "--function", "pair3.json", "--measure", "mupi.json"],
    "embed-pi-exact": ["embed", "--function", "pairpi.json", "--measure", "mu.json"],
    "embed-window": ["embed", "--function", "wpair3.json", "--measure", "wmupi.json"],
    "uchiyama": ["uchiyama-check", "--function", "pair.json", "--measure", "mu.json"],
    "uchiyama-shallow": ["uchiyama-check", "--function", "pair.json", "--measure", "mu2.json"],
    "uchiyama-third-pi": ["uchiyama-check", "--function", "pair3.json", "--measure",
                          "mupi.json"],
    "uchiyama-window": ["uchiyama-check", "--function", "wpair3.json", "--measure",
                        "wmupi.json"],
    "check-3e": ["check-3e", "--measure", "mu.json", "--function", "pair.json"],
    "check-3e-pi": ["check-3e", "--measure", "mupi.json", "--function", "pairpi.json"],
    "check-3e-window": ["check-3e", "--measure", "wmupi.json", "--function", "wpair3.json"],
    "conjugate": ["conjugate", "--function", "u.json", "--emit", "e.json"],
    "conjugate-pi": ["conjugate", "--function", "upi.json", "--emit", "e.json"],
    "conjugate-imag": ["conjugate", "--function", "pu.json", "--imag", "pv.json"],
    "conjugate-project": ["conjugate", "--function", "re.json", "--project", "--emit",
                          "e.json"],
    "conjugate-project-imag": ["conjugate", "--function", "re.json", "--imag", "im.json",
                               "--project", "--emit", "e.json"],
    "conjugate-project-window": ["conjugate", "--function", "wre.json", "--project",
                                 "--emit", "e.json"],
    "conjugate-unsliced": ["conjugate", "--function", "re.json"],
    "conjugate-square-overflow": ["conjugate", "--function", "big.json"],
    "conjugate-project-square-overflow": ["conjugate", "--function", "big.json", "--project"],
    "kernel": ["kernel", "--interval", "L4N5", "--height", "2", "--evaluate", "L4N7",
               "--emit", "e.json"],
    "kernel-window": ["kernel", "--base", "real_line", "--ancestors", "1", "--interval",
                      "L2N3", "--height", "2", "--evaluate", "L0N1", "--emit", "e.json"],
    "kernel-bad-height": ["kernel", "--interval", "L2N1", "--height", "3"],
    "search-extremal": ["search-extremal", "--depth", "4", "--budget", "60", "--restarts",
                        "2", "--seed", "5", "--emit", "e.json"],
    "certify-lower-bound": ["certify-lower-bound", "--eps", "0.01", "0.001", "1e-05",
                            "--csv", "lb.csv"],
    "certify-lower-bound-domain": ["certify-lower-bound", "--eps", "0.3"],
}

# run_digest(name) for every run; a change here means some report changed.
PINNED = {
    "certify-lower-bound": "82ce03539fb29e07",
    "certify-lower-bound-domain": "77e8e2da425a9033",
    "check-3e": "c67361b3a370436a",
    "check-3e-pi": "5987e659f6776f32",
    "check-3e-window": "489556b56b91a362",
    "conjugate": "c6cb540e02f5780f",
    "conjugate-imag": "7d4daddd2d0818b8",
    "conjugate-pi": "2733bb8dd66cf7e8",
    "conjugate-project": "74d0dd3ea320a9bd",
    "conjugate-project-imag": "eb8baf4c14128211",
    "conjugate-project-square-overflow": "f8a83186f26ff8f8",
    "conjugate-project-window": "dfa06f769338fb34",
    "conjugate-square-overflow": "f8a83186f26ff8f8",
    "conjugate-unsliced": "755b472a5595e586",
    "embed": "e936a50c7ed4364e",
    "embed-pi-exact": "b837e4e00ab9486c",
    "embed-third-pi": "e7775a027eee933d",
    "embed-window": "7fae175a4240966a",
    "kernel": "57f60f08217c731e",
    "kernel-bad-height": "07f28a0a7dadf350",
    "kernel-window": "82b4984796173d7c",
    "scan-unsliced": "526f29b99b8fcdef",
    "scan-unsliced-d-zero": "c28f08454dde5cda",
    "search-extremal": "465f6439d48de938",
    "uchiyama": "eebbde3b17484b77",
    "uchiyama-shallow": "178b9a184df95eb9",
    "uchiyama-third-pi": "8b9ee54591435f3d",
    "uchiyama-window": "de91a88cb6aa8a95",
    "verify-bellman": "cae83ca09c5336b7",
    "verify-bellman-million": "b1a093aa85035580",
    "verify-bellman-no-boundary": "3d9c015f5f62d945",
    "verify-bellman-pool": "1eee9c2e3b6babd1",
    "verify-bellman-pool-no-boundary": "7306d2dc4a329430",
}


@pytest.fixture(scope="module")
def box(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins")
    write_inputs(path)
    return path


def run_digest(box, name, capsys):
    for written in ("out.json", "e.json", "w.csv", "lb.csv"):
        (box / written).unlink(missing_ok=True)
    code = main([*RUNS[name], "--out", "out.json"])
    captured = capsys.readouterr()
    h = hashlib.sha256(repr((code, captured.out, captured.err)).encode())
    for written in ("out.json", "e.json", "w.csv", "lb.csv"):
        path = box / written
        h.update(path.read_bytes() if path.exists() else b"<none>")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_bytes_pinned(box, name, capsys, monkeypatch):
    monkeypatch.delenv("DYUCH_MAX_DEPTH", raising=False)
    monkeypatch.chdir(box)
    assert run_digest(box, name, capsys) == PINNED[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_agrees_with_stdout(box, name, capsys, monkeypatch):
    # main builds one report; its --out copy and its printed lines say the same thing
    monkeypatch.delenv("DYUCH_MAX_DEPTH", raising=False)
    monkeypatch.chdir(box)
    (box / "out.json").unlink(missing_ok=True)
    argv = RUNS[name]
    code = main([*argv, "--out", "out.json"])
    out = capsys.readouterr().out
    if not (box / "out.json").exists():
        assert code == 2 and out == ""
        return
    report = json.loads((box / "out.json").read_text())
    assert report["command"] == argv[0]
    summary = report["summary"]
    lines = out.splitlines()
    assert lines[:len(summary)] == [f"{key}: {_fmt(summary[key])}" for key in sorted(summary)]
    assert lines[len(summary):-1] == [f"violation: {v}" for v in report["violations"]]
    assert lines[-1] == ("result: PASS" if report["pass"] else "result: FAIL")
    assert code == (0 if report["pass"] else 1)
