import ast
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import dyuch
from dyuch import bellman
from dyuch.carleson import measure_from_json, random_balanced_measure, measure_to_json
from dyuch.cli import main
from dyuch.dyadic import tree_to_json
from dyuch.extremal import Configuration
from dyuch.martingale import analytic_from_json, analytic_to_json, random_analytic, random_sliced


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    box = tmp_path_factory.mktemp("cli")

    def dump(name, obj):
        path = box / name
        path.write_text(json.dumps(obj))
        return str(path)

    pair = random_analytic(random.Random(9), 4)
    paths = {
        "pair": dump("pair.json", analytic_to_json(pair)),
        "mu": dump("mu.json", measure_to_json(random_balanced_measure(random.Random(9), 4))),
        "mu2": dump("mu2.json", measure_to_json(random_balanced_measure(random.Random(10), 2))),
        "u": dump("u.json", tree_to_json(random_sliced(random.Random(11), 4))),
        "bad_mu": dump("bad_mu.json", {"masses": {"L2N0": 1}}),
    }
    broken = box / "broken.json"
    broken.write_text("{not json")
    paths["broken"] = str(broken)
    paths["box"] = box
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify-bellman" in out

    def test_no_command(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "prove-everything")[0] == 2


class TestVerifyBellman:
    def test_passes(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify-bellman", "--samples", "500", "--out", str(out_path)
        )
        assert code == 0
        assert "result: PASS" in out
        rep = json.loads(out_path.read_text())
        assert set(rep) == {"command", "seed", "tolerance", "pass", "violations", "summary"}
        assert rep["command"] == "verify-bellman"
        assert rep["pass"] is True
        assert rep["violations"] == []
        assert rep["summary"]["min_eigenvalue"] >= -1e-9

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify-bellman", "--samples", "300", "--out", str(a))
        run(capsys, "verify-bellman", "--samples", "300", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("argv", [["--samples", "-1"], ["--samples", "0", "--no-boundary"]],
                             ids=["negative", "nothing-checked"])
    def test_nothing_checked_is_usage_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, "verify-bellman", *argv, "--out", str(out_path))
        assert code == 2
        assert "result:" not in out
        assert "--samples" in err
        assert not out_path.exists()

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, "verify-bellman", "--seed", "-1", "--out", str(out_path))
        assert code == 2
        assert "result:" not in out
        assert "--seed" in err
        assert not out_path.exists()

    def test_boundary_grid_alone_is_checked(self, capsys):
        code, out, _ = run(capsys, "verify-bellman", "--samples", "0")
        assert code == 0
        assert "samples: 882" in out

    def test_samples_over_the_cap_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        over = str(bellman.MAX_PSD_SAMPLES + 1)
        code, out, err = run(capsys, "verify-bellman", "--samples", over, "--out", str(out_path))
        assert code == 2
        assert "result:" not in out
        assert "--samples" in err and str(bellman.MAX_PSD_SAMPLES) in err
        assert not out_path.exists()

    def test_closed_form_failures_fail(self, capsys, monkeypatch):
        report = bellman.PsdReport(samples=1, min_minor=0.0, min_eigenvalue=0.0,
                                   max_third_minor_error=0.0, max_det_error=0.0,
                                   closed_form_failures=3)
        monkeypatch.setattr(bellman, "verify_sliced_psd", lambda **kw: report)
        code, out, _ = run(capsys, "verify-bellman")
        assert code == 1
        assert out.splitlines()[-2:] == ["violation: 3 closed-form comparisons out of gate",
                                         "result: FAIL"]

    def test_nan_form_is_an_error_not_a_verdict(self, capsys, monkeypatch, tmp_path):
        # a NaN entry stops the run before LAPACK sees it, wherever it sits in the form
        real = bellman.concavity_form_matrix

        def poisoned(*hp):
            mats = real(*hp)
            mats[0, 3, 1] = math.nan
            return mats

        monkeypatch.setattr(bellman, "concavity_form_matrix", poisoned)
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, "verify-bellman", "--samples", "3000", "--no-boundary",
                             "--out", str(out_path))
        assert code == 2
        assert "result:" not in out
        assert err.startswith("error: the sliced form of sample 0 of a slice, at M=")
        assert not out_path.exists()


    def test_nan_form_in_the_helpers_half_exits_2(self, capsys, monkeypatch, tmp_path):
        # on two CPUs the forked helper checks the later slices; its error exits 2 the same
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bellman.concavity_form_matrix

        def poisoned(*hp):
            mats = real(*hp)
            if os.getpid() != caller:
                mats[0, 3, 1] = math.nan
            return mats

        monkeypatch.setattr(bellman, "concavity_form_matrix", poisoned)
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, "verify-bellman", "--samples", "40000", "--no-boundary",
                             "--out", str(out_path))
        assert code == 2
        assert "result:" not in out
        assert err.startswith("error: the sliced form of sample 0 of a slice, at M=")
        assert not out_path.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

class TestScanUnsliced:
    def test_sweep_finds_witnesses(self, capsys, tmp_path):
        csv_path = tmp_path / "w.csv"
        out_path = tmp_path / "scan.json"
        code, out, _ = run(
            capsys,
            "scan-unsliced",
            "--csv",
            str(csv_path),
            "--out",
            str(out_path),
        )
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["summary"]["witnesses"] == 11
        assert rep["summary"]["argmin"] == [0.05, 0.0, 0.45]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "d,d1,d2,G"
        assert len(lines) == 12

    def test_zero_tilt_clean(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "scan-unsliced", "--region", "d-zero", "--csv", str(tmp_path / "z.csv")
        )
        assert code == 0
        assert "result: PASS" in out

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    def test_verdict_reads_the_minimum_not_the_threshold(self, capsys, region):
        # --threshold only picks the witness rows; it used to pick the verdict too, so
        # d-zero failed at threshold 1 with "negative minor 0.0" and sweep at -1
        verdicts = set()
        for threshold in ("-1", "0", "1"):
            code, out, _ = run(capsys, "scan-unsliced", "--region", region,
                               "--threshold", threshold)
            assert code == 0
            verdicts.add(tuple(line for line in out.splitlines()
                               if line.startswith(("violation:", "result:"))))
            if threshold == "-1":
                assert "witnesses: 0" in out.splitlines()
        assert verdicts == {("result: PASS",)}

    def test_negative_minimum_on_the_zero_tilt_slice_fails(self, capsys, monkeypatch):
        # no tier-1 scan reaches this verdict; the witness list is empty, the minimum is not
        scan = {"region": "d-zero", "checked": 1, "witnesses": 0, "min_value": -0.001,
                "argmin": [0.0, 0.1, 0.2]}
        monkeypatch.setattr(bellman, "scan_unsliced", lambda **kw: ([], scan))
        code, out, _ = run(capsys, "scan-unsliced", "--region", "d-zero")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "violation: negative minor -0.001 on the zero-tilt slice at (0.0,0.1,0.2)",
            "result: FAIL"]

    def test_narrow_window_fails(self, capsys, tmp_path):
        # witnesses need d + d2 close to 0.5; a narrow sweep finds none
        code, out, _ = run(
            capsys,
            "scan-unsliced",
            "--max-sum",
            "0.2",
            "--csv",
            str(tmp_path / "n.csv"),
        )
        assert code == 1
        assert "result: FAIL" in out


class TestEmbed:
    def test_passes(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "embed", "--function", fixtures["pair"], "--measure", fixtures["mu"]
        )
        assert code == 0
        assert "result: PASS" in out

    def test_unbalanced_measure_is_usage_error(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "embed",
            "--function",
            fixtures["pair"],
            "--measure",
            fixtures["bad_mu"],
        )
        assert code == 2
        assert "balanced" in err

    def test_missing_file(self, capsys, fixtures):
        code, _, err = run(
            capsys, "embed", "--function", "/nonexistent.json", "--measure", fixtures["mu"]
        )
        assert code == 2
        assert "error:" in err

    def test_broken_json(self, capsys, fixtures):
        code, _, _ = run(
            capsys, "embed", "--function", fixtures["broken"], "--measure", fixtures["mu"]
        )
        assert code == 2

    def test_pair_without_v_is_usage_error(self, capsys, fixtures, tmp_path):
        path = tmp_path / "u_only.json"
        path.write_text(json.dumps({"u": json.loads(Path(fixtures["pair"]).read_text())["u"]}))
        code, out, err = run(capsys, "embed", "--function", str(path),
                             "--measure", fixtures["mu"])
        assert code == 2
        assert "result:" not in out
        assert err == f"error: {path}: conjugate pair object must carry u and v trees\n"

    def test_malformed_depth_cap_is_usage_error(self, capsys, fixtures, monkeypatch):
        monkeypatch.setenv("DYUCH_MAX_DEPTH", "abc")
        code, out, err = run(
            capsys, "embed", "--function", fixtures["pair"], "--measure", fixtures["mu"]
        )
        assert code == 2
        assert "result:" not in out
        assert err == "error: DYUCH_MAX_DEPTH must be an integer, got 'abc'\n"

    def test_depth_cap(self, capsys, fixtures, monkeypatch):
        monkeypatch.setenv("DYUCH_MAX_DEPTH", "2")
        code, _, err = run(
            capsys, "embed", "--function", fixtures["pair"], "--measure", fixtures["mu"]
        )
        assert code == 2
        assert "depth" in err


class TestUchiyamaCheck:
    def test_matching_depths(self, capsys, fixtures, tmp_path):
        out_path = tmp_path / "uch.json"
        code, out, _ = run(
            capsys,
            "uchiyama-check",
            "--function",
            fixtures["pair"],
            "--measure",
            fixtures["mu"],
            "--out",
            str(out_path),
        )
        assert code == 0
        summary = json.loads(out_path.read_text())["summary"]
        assert summary["embedding_slack"] >= -1e-9
        assert summary["weighted_slack"] >= -1e-9
        assert abs(summary["telescoped_match"]) <= 1e-10
        assert summary["chain_min_gap"] >= -1e-9

    def test_shallow_measure(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "uchiyama-check",
            "--function",
            fixtures["pair"],
            "--measure",
            fixtures["mu2"],
        )
        assert code == 0
        assert "result: PASS" in out


class TestIncompatibleInputs:
    """A pair and a measure that do not fit are an input error for every command."""

    COMMANDS = [["embed"], ["uchiyama-check"], ["check-3e"]]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        box = tmp_path_factory.mktemp("incompatible")
        shallow, window = box / "pair2.json", box / "window_mu.json"
        shallow.write_text(json.dumps(analytic_to_json(random_analytic(random.Random(12), 2))))
        window.write_text(json.dumps({"base": "real_line", "ancestor_levels": 2, "depth": 2,
                                      "masses": {"L-4N0": 1}}))
        return {"shallow_pair": str(shallow), "window_mu": str(window)}

    def check(self, capsys, tmp_path, argv, pair, measure, message):
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, *argv, "--function", pair, "--measure", measure,
                             "--out", str(out_path))
        assert code == 2
        assert "result: PASS" not in out
        assert message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_measure_deeper_than_pair(self, capsys, fixtures, inputs, tmp_path, argv):
        self.check(capsys, tmp_path, argv, inputs["shallow_pair"], fixtures["mu"],
                   "measure depth 4 exceeds function depth 2")

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_measure_on_another_base(self, capsys, fixtures, inputs, tmp_path, argv):
        self.check(capsys, tmp_path, argv, fixtures["pair"], inputs["window_mu"],
                   "function and measure live on different roots")


class TestOneBalanceRule:
    """Every command that needs balance applies DiscreteMeasure.require_balanced:
    a float residual of 4e-10 is past the float slack DEFAULT_TOL, whatever
    --tolerance says, so all three commands reject it alike."""

    COMMANDS = [["embed"], ["uchiyama-check"], ["check-3e"]]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        box = tmp_path_factory.mktemp("balance")
        pair, mu = box / "pair2.json", box / "mu2.json"
        pair.write_text(json.dumps(analytic_to_json(random_analytic(random.Random(12), 2))))
        eps = 4e-10
        masses = [0.25 + eps, 0.25, 0.25 - eps, 0.25]
        mu.write_text(json.dumps({"depth": 2, "masses": {f"L2N{j}": m
                                                         for j, m in enumerate(masses)}}))
        assert measure_from_json(json.loads(mu.read_text())).balance_residual() > 1e-10
        return str(pair), str(mu)

    @pytest.mark.parametrize("tolerance", [[], ["--tolerance", "1e-6"]], ids=["default", "1e-6"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_float_residual_past_the_slack_is_usage_error(self, capsys, inputs, argv, tolerance):
        pair, mu = inputs
        code, out, err = run(capsys, *argv, "--function", pair, "--measure", mu, *tolerance)
        assert code == 2
        assert "result:" not in out
        assert "measure is not balanced (residual 4e-10)" in err


class TestConjugate:
    def test_emit_valid_pair(self, capsys, fixtures, tmp_path):
        emit = tmp_path / "pair_out.json"
        code, out, _ = run(
            capsys, "conjugate", "--function", fixtures["u"], "--emit", str(emit)
        )
        assert code == 0
        pair = analytic_from_json(json.loads(emit.read_text()))  # validates coupling
        assert pair.depth == 4

    def test_unsliced_input_rejected(self, capsys, fixtures, tmp_path):
        bad = tmp_path / "unsliced.json"
        bad.write_text(json.dumps({"base": "unit", "depth": 2, "leaves": [0, 2, 1, 3]}))
        code, _, err = run(capsys, "conjugate", "--function", str(bad))
        assert code == 2
        assert "L0N0" in err

    def test_projection_repairs(self, capsys, tmp_path):
        bad = tmp_path / "unsliced.json"
        bad.write_text(json.dumps({"base": "unit", "depth": 2, "leaves": [0, 2, 1, 3]}))
        code, out, _ = run(capsys, "conjugate", "--function", str(bad), "--project")
        assert code == 0
        assert "result: PASS" in out

    def test_deep_imag_hits_the_depth_cap(self, capsys, fixtures, tmp_path, monkeypatch):
        # the imaginary part is capped like every loaded file, before the grids are compared
        monkeypatch.delenv("DYUCH_MAX_DEPTH", raising=False)
        shallow, deep = tmp_path / "u2.json", tmp_path / "v10.json"
        shallow.write_text(json.dumps({"base": "unit", "depth": 2, "leaves": [0, 0, 0, 0]}))
        deep.write_text(json.dumps({"base": "unit", "leaves": [0.5] * 1024}))
        code, out, err = run(capsys, "conjugate", "--function", str(shallow),
                             "--imag", str(deep))
        assert code == 2
        assert "result:" not in out
        assert "depth 10 exceeds the cap 8" in err

    def test_nan_cauchy_riemann_residual_is_not_conjugate(self, capsys, tmp_path):
        # the jump differences overflow and inf - inf is NaN; the residual used to drop it,
        # print cr_residual 0.0 and exit 1 only because norm2 overflowed
        paths = [tmp_path / "u.json", tmp_path / "v.json"]
        for path in paths:
            path.write_text(json.dumps({"depth": 2, "leaves": [1.7e308, -1.7e308] * 2}))
        code, out, err = run(capsys, "conjugate", "--function", str(paths[0]),
                             "--imag", str(paths[1]))
        assert code == 2
        assert "result:" not in out
        assert err == "error: pair is not conjugate: Cauchy-Riemann residual nan\n"

    @pytest.mark.parametrize("leaf, bad, projected",
                             [(1e308, ["norm2", "real_mean"], ["real_mean"]),
                              (1e200, ["norm2"], ["norm2"])],
                             ids=["average-overflow", "square-overflow"])
    def test_non_finite_summary_fails(self, capsys, tmp_path, leaf, bad, projected):
        # finite leaves whose float averages (a + b) * 0.5 or squares overflow;
        # a projection keeps the mean, so an overflowing mean leaves no pair
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"base": "unit", "depth": 2, "leaves": [leaf] * 4}))
        for flags, want in (([], bad), (["--project"], projected)):
            code, out, _ = run(capsys, "conjugate", "--function", str(path), *flags)
            assert code == 1
            assert [line.split()[1] for line in out.splitlines()
                    if line.startswith("violation:")] == want
            assert "result: FAIL" in out


class TestKernel:
    def test_emit_frozen_coefficients(self, capsys, tmp_path):
        emit = tmp_path / "k.json"
        code, _, _ = run(
            capsys,
            "kernel",
            "--interval",
            "L2N1",
            "--height",
            "1",
            "--emit",
            str(emit),
        )
        assert code == 0
        obj = json.loads(emit.read_text())
        inv_rt2 = 1.0 / math.sqrt(2.0)
        assert obj["interval"] == "L2N1"
        assert obj["constant"] == 1.0
        assert obj["real"] == {"L1N0": pytest.approx(inv_rt2, abs=1e-15)}
        assert obj["imag"] == {"L1N1": pytest.approx(-inv_rt2, abs=1e-15)}
        assert obj["norm2"] == pytest.approx(1.0, abs=1e-15)
        assert obj["norm2_limit"] == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_evaluate(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--interval", "L2N1", "--height", "1", "--evaluate", "L2N3"
        )
        assert code == 0
        assert "result: PASS" in out

    def test_window_kernel(self, capsys):
        code, _, _ = run(
            capsys,
            "kernel",
            "--interval",
            "L0N0",
            "--height",
            "1",
            "--base",
            "real_line",
            "--ancestors",
            "1",
        )
        assert code == 0

    def test_height_overflow(self, capsys):
        code, _, err = run(capsys, "kernel", "--interval", "L2N1", "--height", "3")
        assert code == 2
        assert "odd ancestors" in err

    def test_bad_interval_id(self, capsys):
        assert run(capsys, "kernel", "--interval", "nope", "--height", "0")[0] == 2

    def test_depth_cap_checked_before_build(self, capsys, monkeypatch):
        from dyuch import kernel

        def build(*args):
            raise AssertionError("kernel built before the depth cap was checked")

        monkeypatch.setattr(kernel, "reproducing_kernel", build)
        code, out, err = run(capsys, "kernel", "--base", "real_line", "--ancestors", "100000",
                             "--interval", "L0N0", "--height", "100000")
        assert code == 2
        assert "result:" not in out
        assert "exceeds the cap" in err


class TestMalformedInputWork:
    """Numbers in an input cap the work they cause before they size anything.

    Each input exits 2 with a tracemalloc peak under 1 MB: an index range is
    checked with a shift that builds nothing, a measure's depth is checked
    against DYUCH_MAX_DEPTH before its level rows are built, and a window's
    ancestor levels are capped before any length 4**ancestor_levels is built.
    """

    MEASURES = {
        "deep-id-declared": ({"depth": 8, "masses": {"L100000000N0": 1}}, "cannot hold support"),
        "deep-id": ({"masses": {"L100000000N0": 1}}, "depth 100000000 exceeds the cap"),
        "deep-depth": ({"depth": 2000000, "masses": {"L0N0": 1}},
                       "depth 2000000 exceeds the cap"),
        "wide-window": ({"base": "real_line", "ancestor_levels": 5000000,
                         "masses": {"L-10000000N0": 1}}, "ancestor levels 5000000 exceed the cap"),
    }
    KERNELS = {
        "wide-window": (["--base", "real_line", "--ancestors", "50000000", "--interval", "L0N0",
                         "--height", "0"], "depth 100000000 exceeds the cap"),
        "tall-kernel": (["--interval", "L8N0", "--height", "1000000000"], "odd ancestors"),
        "window-root": (["--base", "real_line", "--ancestors", "5000000", "--interval",
                         "L-10000000N0", "--height", "0"], "ancestor levels 5000000 exceed the cap"),
    }

    @staticmethod
    def peak_run(capsys, *argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "result:" not in out
        assert peak < 1 << 20
        return err

    @pytest.mark.parametrize("case", sorted(MEASURES))
    def test_measure(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.delenv("DYUCH_MAX_DEPTH", raising=False)
        obj, message = self.MEASURES[case]
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(obj))
        assert message in self.peak_run(capsys, "check-3e", "--measure", str(path))

    @pytest.mark.parametrize("case", sorted(KERNELS))
    def test_kernel(self, capsys, monkeypatch, case):
        monkeypatch.delenv("DYUCH_MAX_DEPTH", raising=False)
        argv, message = self.KERNELS[case]
        assert message in self.peak_run(capsys, "kernel", *argv)

    def test_wide_tree(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"base": "real_line", "ancestor_levels": 5000000,
                                    "leaves": [0, 0, 0, 0]}))
        err = self.peak_run(capsys, "conjugate", "--function", str(path))
        assert "ancestor levels 5000000 exceed the cap" in err

    def test_widest_window_under_the_cap(self, capsys):
        anc = dyuch.cli.MAX_ANCESTOR_LEVELS
        for extra, want in ((0, 0), (1, 2)):
            a = anc + extra
            code, _, _ = run(capsys, "kernel", "--base", "real_line", "--ancestors", str(a),
                             "--interval", f"L{-2 * a}N0", "--height", "0")
            assert code == want


class TestCheck3e:
    def test_measure_only(self, capsys, fixtures):
        code, out, _ = run(capsys, "check-3e", "--measure", fixtures["mu"])
        assert code == 0
        assert "result: PASS" in out

    def test_with_function(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "check-3e",
            "--measure",
            fixtures["mu"],
            "--function",
            fixtures["pair"],
        )
        assert code == 0

    def test_unbalanced_testing_table_still_works(self, capsys, fixtures):
        code, _, _ = run(capsys, "check-3e", "--measure", fixtures["bad_mu"])
        assert code == 0

    def test_unbalanced_with_function_rejected(self, capsys, fixtures):
        code, _, _ = run(
            capsys,
            "check-3e",
            "--measure",
            fixtures["bad_mu"],
            "--function",
            fixtures["pair"],
        )
        assert code == 2

    def test_report_says_where_the_verdict_comes_from(self, capsys, fixtures, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "check-3e", "--measure", fixtures["mu"], "--out", str(out_path)
        )
        assert code == 0
        summary = json.loads(out_path.read_text())["summary"]
        assert summary["nodes_checked"] == 1 + 4 + 16
        for key in ("worst_testing_node", "worst_packing_node"):
            assert summary[key].startswith("L")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, capsys, fixtures, tmp_path, bad):
        obj = json.loads(Path(fixtures["mu"]).read_text())
        obj["masses"][next(iter(obj["masses"]))] = bad
        path = tmp_path / "mu_bad.json"
        path.write_text(json.dumps(obj))
        for extra in ([], ["--function", fixtures["pair"]]):
            code, out, err = run(capsys, "check-3e", "--measure", str(path), *extra)
            assert code == 2
            assert "result: PASS" not in out
            assert "not finite" in err

    def test_nan_leaf_does_not_pass(self, capsys, fixtures, tmp_path):
        obj = json.loads(Path(fixtures["pair"]).read_text())
        obj["u"]["leaves"][3] = math.nan
        path = tmp_path / "pair_nan.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(
            capsys, "check-3e", "--measure", fixtures["mu"], "--function", str(path)
        )
        assert code != 0
        assert "result: PASS" not in out


class TestNonFiniteAndOverflow:
    """Pair inputs that must never give a PASS, for every command reading one."""

    COMMANDS = ["embed", "uchiyama-check", "check-3e"]

    @staticmethod
    def pair_file(tmp_path, fixtures, edit):
        obj = json.loads(Path(fixtures["pair"]).read_text())
        edit(obj)
        path = tmp_path / "pair_edit.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def check(self, capsys, fixtures, command, path):
        return run(capsys, command, "--measure", fixtures["mu"], "--function", path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_nan_leaf_is_input_error(self, capsys, fixtures, tmp_path, command):
        def edit(obj):
            obj["u"]["leaves"][3] = math.nan

        path = self.pair_file(tmp_path, fixtures, edit)
        code, out, err = self.check(capsys, fixtures, command, path)
        assert code == 2
        assert "result: PASS" not in out
        assert "finite" in err

    @pytest.mark.parametrize("command", ["embed", "uchiyama-check"])
    def test_overflowing_float_pair_fails(self, capsys, fixtures, tmp_path, command):
        # finite leaves whose squares overflow: every slack is inf - inf = nan
        def edit(obj):
            for part, value in (("u", 1e200), ("v", 0.0)):
                obj[part]["leaves"] = [value] * len(obj[part]["leaves"])

        path = self.pair_file(tmp_path, fixtures, edit)
        code, out, _ = self.check(capsys, fixtures, command, path)
        assert code == 1
        assert "result: FAIL" in out
        assert "nan" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_exact_overflow_is_input_error(self, capsys, fixtures, tmp_path, command):
        # the pair's leaves are k / 64, so these are exact integers near 1e160
        def edit(obj):
            pair = analytic_from_json(obj)
            for part in ("u", "v"):
                leaves = getattr(pair, part).leaves
                obj[part]["leaves"] = [int(Fraction(x) * 10**160) for x in leaves]
            assert analytic_from_json(obj).exact

        path = self.pair_file(tmp_path, fixtures, edit)
        code, out, err = self.check(capsys, fixtures, command, path)
        assert code == 2
        assert "result:" not in out
        assert err.startswith("error: input values overflow a float")


class TestSearchExtremal:
    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["search-extremal", "--depth", "2"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_emit_rebuildable(self, capsys, tmp_path):
        emit = tmp_path / "best.json"
        code, _, _ = run(capsys, "search-extremal", "--depth", "2", "--emit", str(emit))
        assert code == 0
        obj = json.loads(emit.read_text())
        cfg = Configuration.build(
            analytic_from_json(obj["f"]), measure_from_json(obj["mu"])
        )
        assert cfg.ratio == pytest.approx(obj["ratio"], rel=1e-9, abs=1e-12)
        assert cfg.ratio >= 1.0 - 1e-12


    @pytest.mark.parametrize("argv", [
        ["--budget", "-1"], ["--budget", "0"], ["--budget", "100001"],
        ["--restarts", "-3"], ["--restarts", "100001"],
        ["--budget", "800"], ["--restarts", "6"], ["--seed", "5"],
    ], ids=["negative-budget", "zero-budget", "budget-over-cap", "negative-restarts",
            "restarts-over-cap", "budget", "restarts", "seed"])
    def test_knob_out_of_range_is_usage_error(self, capsys, tmp_path, argv):
        # the recursion has no search knobs: each of these is an unknown option, at any value
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, "search-extremal", "--depth", "4", *argv,
                             "--out", str(out_path))
        assert code == 2
        assert "result:" not in out
        assert argv[0][2:] in err
        assert not out_path.exists()


class TestCertifyLowerBound:
    def test_default(self, capsys, tmp_path):
        out_path = tmp_path / "lb.json"
        code, out, _ = run(capsys, "certify-lower-bound", "--out", str(out_path))
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["summary"]["max_bound"] == pytest.approx(
            2.3965582669362173, abs=1e-12
        )

    def test_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "lb.csv"
        code, _, _ = run(
            capsys,
            "certify-lower-bound",
            "--eps",
            "0.01",
            "0.001",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "eps,bound"
        assert len(lines) == 3

    def test_domain_error(self, capsys):
        assert run(capsys, "certify-lower-bound", "--eps", "0.3")[0] == 2

    def test_bound_that_rounds_to_e_passes(self, capsys):
        # past eps ~ 6e-19 the certificate's exponent is under 2**-54 and exp rounds it to 1
        code, out, _ = run(capsys, "certify-lower-bound", "--eps", "1e-19", "1e-300")
        assert code == 0
        assert f"max_bound: {bellman.E!r}" in out

    @pytest.mark.parametrize("bound", [math.nextafter(bellman.E, 4), math.nan],
                             ids=["past-e", "nan"])
    def test_bound_past_e_or_nan_fails(self, capsys, monkeypatch, bound):
        monkeypatch.setattr(bellman, "lower_bound_certificate", lambda eps: bound)
        code, out, _ = run(capsys, "certify-lower-bound", "--eps", "0.01")
        assert code == 1
        assert "overshot e" in out
        assert "result: FAIL" in out


class TestMalformedInput:
    """Headers and values the JSON readers reject with exit 2, never a guess."""

    MEASURES = {
        "unknown_base": {"base": "bogus", "masses": {}},
        "fractional_ancestors": {
            "base": "real_line", "ancestor_levels": 1.7, "masses": {"L-2N0": 1}
        },
        "string_ancestors": {
            "base": "real_line", "ancestor_levels": "1", "masses": {"L-2N0": 1}
        },
        "string_depth": {"depth": "2", "masses": {"L0N0": 1}},
        "float_depth": {"depth": 2.0, "masses": {"L0N0": 1}},
        "bool_depth": {"depth": True, "masses": {"L0N0": 1}},
        "string_mass": {"depth": 2, "masses": {"L0N0": "1"}},
        "bool_mass": {"depth": 2, "masses": {"L0N0": True}},
        "masses_not_an_object": {"depth": 2, "masses": [1]},
    }
    TREES = {
        "unknown_base": {"base": "bogus", "leaves": [0, 0, 0, 0]},
        "fractional_ancestors": {
            "base": "real_line", "ancestor_levels": 1.7, "leaves": [0, 0, 0, 0]
        },
        "string_depth": {"depth": "2", "leaves": [0, 0, 0, 0]},
        "float_depth": {"depth": 2.0, "leaves": [0, 0, 0, 0]},
        "string_leaf": {"depth": 2, "leaves": ["1", 1, 1, 1]},
        "bool_leaf": {"depth": 2, "leaves": [True, 1, 1, 1]},
        "null_leaf": {"depth": 2, "leaves": [None, 1, 1, 1]},
        "string_and_bool_leaves": {"depth": 2, "leaves": ["1", True, 1.0, 1.0]},
    }

    @staticmethod
    def write(tmp_path, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("case", sorted(MEASURES))
    def test_measure_rejected(self, capsys, tmp_path, case):
        path = self.write(tmp_path, self.MEASURES[case])
        code, out, err = run(capsys, "check-3e", "--measure", path)
        assert code == 2
        assert "result:" not in out
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(TREES))
    def test_tree_rejected(self, capsys, tmp_path, case):
        path = self.write(tmp_path, self.TREES[case])
        code, out, err = run(capsys, "conjugate", "--function", path)
        assert code == 2
        assert "result:" not in out
        assert err.startswith("error:")

    def test_pair_leaf_rejected(self, capsys, fixtures, tmp_path):
        obj = json.loads(Path(fixtures["pair"]).read_text())
        obj["v"]["leaves"][0] = str(obj["v"]["leaves"][0])
        path = self.write(tmp_path, obj)
        code, out, err = run(capsys, "embed", "--function", path, "--measure", fixtures["mu"])
        assert code == 2
        assert "leaf 0" in err

    def test_unit_base_ignores_ancestor_levels(self, capsys, tmp_path):
        path = self.write(tmp_path, {"ancestor_levels": 3, "depth": 0, "masses": {"L0N0": 1}})
        assert run(capsys, "check-3e", "--measure", path)[0] == 0


class TestTolerance:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1e-9", "tight"])
    def test_rejected_by_the_parser(self, capsys, bad):
        code, out, err = run(capsys, "verify-bellman", "--samples", "50", f"--tolerance={bad}")
        assert code == 2
        assert "result:" not in out
        assert "--tolerance" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-unsliced", "--step", "0.25"],
            ["certify-lower-bound"],
            ["search-extremal", "--depth", "2"],
            ["kernel", "--interval", "L2N1", "--height", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_rejects_infinity(self, capsys, argv):
        assert run(capsys, *argv, "--tolerance", "inf")[0] == 2

    def test_zero_is_allowed(self, capsys):
        code, out, _ = run(capsys, "verify-bellman", "--samples", "50", "--tolerance", "0")
        assert code in (0, 1)
        assert "result:" in out

    @pytest.mark.parametrize("field", ["min_minor", "min_eigenvalue"])
    def test_nan_psd_gate_fails(self, capsys, monkeypatch, field):
        import dataclasses

        real = bellman.verify_sliced_psd

        def poisoned(**kw):
            return dataclasses.replace(real(**kw), **{field: math.nan})

        monkeypatch.setattr(bellman, "verify_sliced_psd", poisoned)
        code, out, _ = run(capsys, "verify-bellman", "--samples", "50")
        assert code == 1
        assert "result: FAIL" in out

    def test_nan_profile_residual_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            bellman,
            "profile_residuals",
            lambda profile: bellman.ProfileResiduals(math.nan, 0.0, 0.0),
        )
        code, out, _ = run(capsys, "verify-bellman", "--samples", "50")
        assert code == 1
        assert "profile residual nan" in out


class TestScanUnslicedChecksSomething:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--step", "0"],
            ["--step", "nan"],
            ["--step", "inf"],
            ["--region", "d-zero", "--step", "-0.05"],
            ["--max-sum", "-1"],
            ["--max-sum", "inf"],
            ["--threshold", "nan"],
        ],
        ids=["step-0", "step-nan", "step-inf", "negative-step", "negative-max-sum",
             "infinite-max-sum", "nan-threshold"],
    )
    def test_bad_grid_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "scan-unsliced", *argv, "--csv", str(tmp_path / "w.csv"))
        assert code == 2
        assert "result:" not in out
        assert err.startswith("error:")
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    def test_grid_over_the_cap_is_usage_error(self, capsys, tmp_path, region):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "scan-unsliced", "--region", region, "--step", "1e-4",
                                 "--csv", str(tmp_path / "w.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "result:" not in out
        assert "over the cap" in err and str(bellman.MAX_SCAN_POINTS) in err
        assert not (tmp_path / "w.csv").exists()
        assert peak < 1 << 20

    @pytest.mark.parametrize("step, max_sum", [("5e-324", "1"), ("1e-300", "1e10")])
    def test_overflowing_grid_is_over_the_cap(self, capsys, tmp_path, step, max_sum):
        # used to exit 2 with "input values overflow a float", from an OverflowError
        code, out, err = run(capsys, "scan-unsliced", "--step", step, "--max-sum", max_sum,
                             "--csv", str(tmp_path / "w.csv"))
        assert code == 2
        assert "result:" not in out
        assert "over the cap" in err and str(bellman.MAX_SCAN_POINTS) in err
        assert "overflow" not in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    def test_non_finite_minor_is_usage_error(self, capsys, tmp_path, region):
        # 2 cosh(700) and exp(700) are finite, but the minor overflows to inf, which the
        # scan used to count and leave out of its minimum and witnesses (d-zero passed)
        code, out, err = run(capsys, "scan-unsliced", "--region", region, "--step", "700",
                             "--max-sum", "700", "--csv", str(tmp_path / "w.csv"))
        assert code == 2
        assert "result:" not in out
        assert "tilted minor at d=" in err and "not a finite number" in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("step, point", [("800", "d=0.0, d1=0.0, d2=800.0"),
                                             ("710", "d=710.0, d1=0.0, d2=0.0")])
    def test_overflowing_grid_is_usage_error(self, capsys, tmp_path, step, point):
        # 2 cosh(800) and exp(710) overflow a float; this used to exit 2 blaming the input
        # with "input values overflow a float: math range error"
        code, out, err = run(capsys, "scan-unsliced", "--step", step, "--max-sum", step,
                             "--csv", str(tmp_path / "w.csv"))
        assert code == 2
        assert "result:" not in out
        assert err == f"error: 2 cosh or exp overflows at {point}\n"
        assert not (tmp_path / "w.csv").exists()

    def test_unwritable_csv_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "w.csv"
        code, out, err = run(capsys, "scan-unsliced", "--csv", str(path))
        assert code == 2
        assert "result:" not in out
        assert err.startswith(f"error: cannot write {path}: ")

    def test_no_csv_unless_asked(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "scan.json"
        code, out, _ = run(capsys, "scan-unsliced", "--out", str(out_path))
        assert code == 0
        assert "result: PASS" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]
        assert json.loads(out_path.read_text())["summary"]["csv"] is None


class TestNanStickyReductions:
    """A NaN that is not the first value still reaches the gate."""

    @pytest.mark.parametrize("which", ["range_gaps", "derivative_gap"])
    def test_verify_bellman_nan_gap_fails(self, capsys, monkeypatch, which):
        real = getattr(bellman, which)
        calls = []

        def poisoned(*args):
            calls.append(args)
            out = real(*args)
            if len(calls) != 3:
                return out
            return (out[0], math.nan) if which == "range_gaps" else math.nan

        monkeypatch.setattr(bellman, which, poisoned)
        code, out, _ = run(capsys, "verify-bellman", "--samples", "50")
        assert code == 1
        assert "result: FAIL" in out
        field = "min_range_gap" if which == "range_gaps" else "min_derivative_gap"
        assert f"{field}: nan" in out

    def test_uchiyama_nan_chain_gap_fails(self, capsys, monkeypatch, fixtures):
        from dyuch import carleson

        real = carleson.bellman_chain_slacks

        def poisoned(f, mu):
            gaps = real(f, mu)
            second = list(gaps)[1]
            gaps[second] = math.nan
            return gaps

        monkeypatch.setattr(carleson, "bellman_chain_slacks", poisoned)
        code, out, _ = run(
            capsys, "uchiyama-check", "--function", fixtures["pair"], "--measure", fixtures["mu"]
        )
        assert code == 1
        assert "chain_min_gap: nan" in out
        assert "result: FAIL" in out

    def test_uchiyama_nan_telescoping_term_fails(self, capsys, monkeypatch, fixtures):
        from dyuch import carleson

        real = carleson.telescoped_weighted_slack

        def poisoned(f, mu):
            deco = real(f, mu)
            deco.leaf_terms[list(deco.leaf_terms)[2]] = math.nan
            return deco

        monkeypatch.setattr(carleson, "telescoped_weighted_slack", poisoned)
        code, out, _ = run(
            capsys, "uchiyama-check", "--function", fixtures["pair"], "--measure", fixtures["mu"]
        )
        assert code == 1
        assert "telescoped_min_term: nan" in out


class TestInputsTheCoreRejects:
    COMMANDS = [
        ["check-3e"],
        ["embed", "--function", "PAIR"],
        ["uchiyama-check", "--function", "PAIR"],
    ]

    def measure_file(self, tmp_path, masses):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"base": "unit", "depth": 2, "masses": masses}))
        return str(path)

    def invoke(self, capsys, fixtures, argv, measure):
        argv = [fixtures["pair"] if a == "PAIR" else a for a in argv]
        return run(capsys, *argv, "--measure", measure)

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_overflowing_total_mass(self, capsys, fixtures, tmp_path, argv):
        # balance used to read inf - inf = nan as 0 and call this balanced
        masses = {f"L2N{j}": 1e308 for j in range(4)}
        code, out, err = self.invoke(capsys, fixtures, argv, self.measure_file(tmp_path, masses))
        assert code == 2
        assert "result:" not in out
        assert "float range" in err

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    @pytest.mark.parametrize("key", ["L02N0", "L+2N0", "L2N00", "L2N0 "])
    def test_non_canonical_node_id(self, capsys, fixtures, tmp_path, argv, key):
        masses = {"L2N0": 1, key: 2, "L2N1": 1}
        code, out, err = self.invoke(capsys, fixtures, argv, self.measure_file(tmp_path, masses))
        assert code == 2
        assert "result:" not in out
        assert "not canonical" in err

    def test_non_canonical_kernel_interval(self, capsys):
        code, _, err = run(capsys, "kernel", "--interval", "L04N9", "--height", "1")
        assert code == 2
        assert "not canonical" in err


def fresh_python(code, *argv, cwd):
    """Run `code` with `argv` in a fresh interpreter that imports dyuch from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(dyuch.__file__).resolve().parents[1]))
    env.pop("DYUCH_MAX_DEPTH", None)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after(source, *argv, cwd):
    """The child's result and the sorted dyuch modules it loaded, printed last on its stderr.

    `source` may set `code`, the child's exit code."""
    report = "print(sorted(m for m in sys.modules if m.startswith('dyuch')), file=sys.stderr)"
    child = fresh_python(f"import sys\ncode = 0\n{source}\n{report}\nsys.exit(code)\n", *argv,
                         cwd=cwd)
    assert child.returncode == 0, child.stderr
    return child, ast.literal_eval(child.stderr.splitlines()[-1])


class TestLayersOffTheImportPath:
    """Each command imports only the layers it calls, so a fresh process loads no other."""

    RUN_CLI = ("from dyuch.cli import main\n"
               "code = main(sys.argv[1:])\n")
    BASE = ["dyuch", "dyuch.cli"]
    BELLMAN = [*BASE, "dyuch.bellman", "dyuch.dyadic"]
    EMBED = [*BELLMAN, "dyuch.carleson", "dyuch.martingale"]
    MARTINGALE = [*BASE, "dyuch.dyadic", "dyuch.martingale"]

    def test_import_dyuch(self, tmp_path):
        assert loaded_after("import dyuch", cwd=tmp_path)[1] == ["dyuch"]

    def test_import_cli(self, tmp_path):
        # nor these modules, each of which would add to every command's start-up time
        slow = ("dataclasses", "inspect", "fractions", "numpy")
        child, loaded = loaded_after(
            f"import dyuch.cli\nprint([m for m in {slow!r} if m in sys.modules])", cwd=tmp_path)
        assert loaded == self.BASE
        assert child.stdout == "[]\n"

    @pytest.mark.parametrize("argv, layers", [
        (["scan-unsliced"], BELLMAN),
        (["verify-bellman", "--samples", "10"], BELLMAN),
        (["embed", "--function", "PAIR", "--measure", "MU"], EMBED),
        (["conjugate", "--function", "U"], MARTINGALE),
        (["check-3e", "--measure", "MU"], [*EMBED, "dyuch.kernel"]),
        (["certify-lower-bound"], BELLMAN),
    ], ids=["scan-unsliced", "verify-bellman", "embed", "conjugate", "check-3e",
            "certify-lower-bound"])
    def test_command(self, tmp_path, fixtures, argv, layers):
        argv = [{"PAIR": fixtures["pair"], "MU": fixtures["mu"], "U": fixtures["u"]}.get(a, a)
                for a in argv]
        child, loaded = loaded_after(self.RUN_CLI, *argv, cwd=tmp_path)
        assert child.stdout.endswith("result: PASS\n")
        assert loaded == sorted(layers)


def unread_exports(names, package, bench):
    """The names that no module in package reads outside the name's own
    definition (an import, or a name or attribute load), and that no
    script in bench mentions."""
    reads = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        read = []
        if isinstance(node, ast.ImportFrom):
            read = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read = [node.attr]
        reads.update(name for name in read if name not in defining)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in sorted(Path(package).glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    scripts = "\n".join(path.read_text() for path in sorted(Path(bench).glob("*.py")))
    return [name for name in names
            if name not in reads and not re.search(rf"\b{re.escape(name)}\b", scripts)]


class TestLazyExports:
    """The package resolves each exported name, and each layer, on first use."""

    def test_every_name_is_read_by_the_package_or_the_benchmark(self):
        # an export only the tests read belongs in tests/, not in the package
        package = Path(dyuch.__file__).resolve().parent
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        assert unread_exports(dyuch.__all__, package, bench) == []

    def test_every_name_is_its_layers_attribute(self):
        assert len(set(dyuch.__all__)) == len(dyuch.__all__)
        for name in dyuch.__all__:
            layer = importlib.import_module(f"dyuch.{dyuch._SOURCE[name]}")
            assert getattr(dyuch, name) is getattr(layer, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from dyuch import *", namespace)
        assert all(namespace[name] is getattr(dyuch, name) for name in dyuch.__all__)

    def test_dir_lists_every_name_and_layer(self):
        assert set(dyuch.__all__) | set(dyuch._EXPORTS) <= set(dir(dyuch))

    def test_unknown_name_raises_and_imports_nothing(self, tmp_path):
        before = set(sys.modules)
        with pytest.raises(AttributeError, match="no_such_name"):
            dyuch.no_such_name
        assert set(sys.modules) == before
        code = "import dyuch\ntry:\n    dyuch.no_such_name\nexcept AttributeError:\n    pass"
        assert loaded_after(code, cwd=tmp_path)[1] == ["dyuch"]

    def test_one_name_loads_its_layer_only(self, tmp_path):
        loaded = loaded_after("from dyuch import scan_unsliced", cwd=tmp_path)[1]
        assert loaded == ["dyuch", "dyuch.bellman", "dyuch.dyadic"]

    def test_layer_resolves_as_an_attribute(self, tmp_path):
        # the benchmark imports carleson and martingale, then reads dyuch.kernel
        code = ("import dyuch\n"
                "from dyuch import carleson, martingale\n"
                "assert dyuch.kernel is sys.modules['dyuch.kernel']\n"
                "assert callable(dyuch.kernel.testing_scan)")
        loaded = loaded_after(code, cwd=tmp_path)[1]
        assert "dyuch.kernel" in loaded and "dyuch.extremal" not in loaded


class TestNumpyOffTheImportPath:
    """Only the PSD verifier needs numpy, so other commands never import it."""

    CHILD = ("import sys\n"
             "from dyuch.cli import main\n"
             "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "sys.exit(9 if 'numpy' in sys.modules else code)\n")

    def fresh(self, *argv, cwd):
        return fresh_python(self.CHILD, *argv, cwd=cwd)

    def test_import(self, tmp_path):
        assert self.fresh(cwd=tmp_path).returncode == 0

    @pytest.mark.parametrize("command", ["embed", "scan-unsliced"])
    def test_command(self, tmp_path, fixtures, command):
        argv = {"embed": ["embed", "--function", fixtures["pair"], "--measure", fixtures["mu"]],
                "scan-unsliced": ["scan-unsliced"]}[command]
        child = self.fresh(*argv, cwd=tmp_path)
        assert child.returncode == 0, child.stderr
        assert child.stdout.endswith("result: PASS\n")

    def test_verify_bellman_does_import_it(self, tmp_path):
        assert self.fresh("verify-bellman", "--samples", "10", cwd=tmp_path).returncode == 9
