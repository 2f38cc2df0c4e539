"""Acceptance gate: one test per criterion, one verdict line each.

Each test prints `[criterion N] ... PASS|FAIL` (visible under `pytest -s`; the
`-v` listing carries the same verdict per test) and then asserts, so a red
criterion fails loudly instead of being summarized away.
"""
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from dyuch.bellman import (
    exponential_profile,
    lower_bound_certificate,
    profile_residuals,
    scan_unsliced,
    unsliced_form_matrix,
    unsliced_third_minor,
    verify_sliced_psd,
)
from dyuch.carleson import (
    embedding_slack,
    embedding_sum,
    random_balanced_measure,
    telescoped_weighted_slack,
    weighted_embedding_slack,
)
from dyuch.cli import main as cli_main
from dyuch.dyadic import unit_root
from dyuch import kernel as kern
from dyuch.kernel import kernel_norm2
from dyuch.martingale import (
    analytic_projection,
    cr_residual,
    random_analytic,
    random_sliced,
    s0,
)

import numpy as np

E = math.e


def _verdict(n, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {title}: {tag}{extra}")


# criteria 4 and 5 share one pool of admissible configurations
_CONFIGS = None


def _configs():
    global _CONFIGS
    if _CONFIGS is None:
        rng = random.Random(414)
        pool = []
        for k in range(10_000):
            depth = 2 if k % 5 < 3 else 4
            f = random_analytic(rng, depth)
            mu = random_balanced_measure(rng, depth)
            pool.append((f, mu))
        _CONFIGS = pool
    return _CONFIGS


def test_criterion_1_kernel_norm_identity():
    """The truncated kernel norm equals (1/3)(1 - 4**-T) on the unit interval
    for every height T up to 30 (to 1e-14, exact underneath) and sits within
    1e-12 of the limit 1/3 at T = 30, in under a second."""
    start = time.perf_counter()
    failures = 0
    worst = 0.0
    for T in range(1, 31):
        got = kernel_norm2(unit_root(), T)
        want = Fraction(1, 3) * (1 - Fraction(1, 4) ** T)
        err = abs(float(got.value) - float(want))
        worst = max(worst, err)
        failures += got.value != want or err > 1e-14
        failures += got.limit != Fraction(1, 3)
    tail = abs(float(kernel_norm2(unit_root(), 30).value) - 1.0 / 3.0)
    failures += tail >= 1e-12
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1.0
    _verdict(1, "kernel norm closed form for heights 1..30", ok,
             f"worst error {worst:.2e}, tail gap {tail:.2e}, {elapsed:.3f}s")
    assert ok


def test_criterion_2_sliced_form_positive_semidefinite():
    """The 4x4 concavity form stays PSD over 1e5 random domain samples plus
    the degenerate-spread boundary grids; all four nested minors clear -1e-9
    and the determinant matches its product closed form to 1e-9 relative.
    Budget: ten seconds."""
    start = time.perf_counter()
    rep = verify_sliced_psd(samples=100_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        rep.min_minor >= -1e-9
        and rep.min_eigenvalue >= -1e-9
        and rep.closed_form_failures == 0
        and elapsed < 10.0
    )
    _verdict(2, "sliced concavity form positive semidefinite", ok,
             f"min minor {rep.min_minor:.2e}, min eig {rep.min_eigenvalue:.2e}, "
             f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_unsliced_counterexample_found():
    """Tilting breaks the form: along d in (0, 0.1] step 1e-3 with the first
    spread zero and the second 1/2 - d, the third minor drops below -1e-8,
    while the zero-tilt slice stays clean.  The default sweep pins the frozen
    minimum at (0.05, 0, 0.45) and the matrix there has a negative
    eigenvalue.  Budget: one second."""
    start = time.perf_counter()
    family = [(k * 1e-3, 0.0, 0.5 - k * 1e-3) for k in range(1, 101)]
    line, line_summary = scan_unsliced(triples=family, threshold=-1e-8)
    _, clean = scan_unsliced(region="d-zero")
    elapsed = time.perf_counter() - start

    witnesses, summary = scan_unsliced()
    frozen = -0.004918626047445508
    eig_min = float(np.linalg.eigvalsh(unsliced_form_matrix(0.05, 0.0, 0.45))[0])
    ok = (
        line_summary["checked"] == 100
        and len(line) >= 1
        and all(g < -1e-8 for *_, g in line)
        and clean["witnesses"] == 0
        and clean["min_value"] >= -1e-12
        and elapsed < 1.0
        and summary["witnesses"] == len(witnesses) == 11
        and summary["argmin"] == [0.05, 0.0, 0.45]
        and abs(summary["min_value"] - frozen) <= 1e-12
        and eig_min < 0
        and abs(unsliced_third_minor(0.05, 0.0, 0.45) - frozen) <= 1e-12
    )
    _verdict(3, "unsliced counterexample witnesses found", ok,
             f"{len(line)}/100 on the line, sweep min {summary['min_value']:.6g}")
    assert ok


def test_criterion_4_embedding_bound_constant_e():
    """Embedding sum at most e * norm * (1 + 1e-12) for 1e4 seeded balanced
    measures with unit intensity cap against conjugate pairs at depths 2 and
    4, with zero violations; the sharper e * intensity form clears -1e-9.
    Budget: thirty seconds."""
    start = time.perf_counter()
    worst = math.inf
    failures = 0
    for f, mu in _configs():
        total = float(embedding_sum(f, mu))
        norm2 = float(f.norm2())
        failures += not total <= E * norm2 * (1.0 + 1e-12)
        slack = embedding_slack(f, mu)
        worst = min(worst, slack)
        failures += not slack >= -1e-9
        failures += not total / norm2 <= E * float(mu.packing_intensity()) + 1e-9
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _verdict(4, "embedding bound with constant e", ok,
             f"{len(_configs())} configs, min slack {worst:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_weighted_bound_and_telescoping():
    """Same 1e4 configurations: the supermartingale-weighted sum stays below
    the squared norm plus 1e-12 with no packing cap, and the per-node step
    gaps telescope back to the global slack to 1e-10 with every term above
    -1e-12."""
    worst_match = 0.0
    failures = 0
    for f, mu in _configs():
        failures += not weighted_embedding_slack(f, mu) >= -1e-12
        deco = telescoped_weighted_slack(f, mu)
        match = abs(deco.total() - deco.slack)
        worst_match = max(worst_match, match)
        failures += not match <= 1e-10
        failures += not deco.min_term() >= -1e-12
    _verdict(5, "weighted bound telescopes into nonnegative terms",
             failures == 0, f"worst identity mismatch {worst_match:.3e}")
    assert failures == 0


def test_criterion_6_lower_bound_certificate():
    """The certified family bound matches its closed form to 1e-12 and reads
    2.3966 +- 5e-4 at eps 0.01, climbs strictly as eps falls through 1e-2 ..
    1e-8 while staying below e, and the sharp profile exp(1 - M) with
    constant e leaves zero residuals."""
    b = lower_bound_certificate(0.01)
    ladder = [lower_bound_certificate(10.0 ** -k) for k in range(2, 9)]
    residuals = profile_residuals(exponential_profile())
    ok = (
        abs(b - 2.3965582669362173) <= 1e-12
        and abs(b - 2.3966) <= 5e-4
        and all(x < y for x, y in zip(ladder, ladder[1:]))
        and all(0.0 < x < E for x in ladder)
        and E - lower_bound_certificate(1e-6) < 1e-4
        and residuals.max_residual() <= 1e-12
    )
    _verdict(6, "lower bound certificate sharp toward e", ok,
             f"bound(0.01) = {b:.10f}")
    assert ok


def test_criterion_6_certificate_clears_near_limit_threshold():
    """The certificate clears e - 1e-6 once eps is small enough, and stays
    below e.  Its documented promise is e * exp(2 eps (log(eps/2) - 1)),
    which tends to e; it never promised e - 1e-6 at eps = 1e-8.  There the
    closed form is e - 1.0935e-6 (as test_approaches_e also pins), and the
    threshold is first cleared near eps = 9.1e-9: it holds at 9.0e-9 and
    fails at 9.2e-9.  Every decade 1e-9 .. 1e-12 clears it."""
    target = E - 1e-6
    decades = [10.0 ** -k for k in range(9, 13)]
    bounds = [lower_bound_certificate(eps) for eps in decades]
    eps = 1e-8
    reference_gap = -E * math.expm1(2.0 * eps * (math.log(eps / 2.0) - 1.0))
    gap_1e8 = E - lower_bound_certificate(eps)
    ok = (
        all(target < b < E for b in bounds)
        and lower_bound_certificate(9.0e-9) > target
        and lower_bound_certificate(9.2e-9) <= target
        and abs(gap_1e8 - reference_gap) <= 1e-10
        and abs(gap_1e8 - 1.0935e-6) <= 1e-10
    )
    _verdict(6, "certificate clears e - 1e-6 for eps <= 9.0e-9", ok,
             f"gap to e is {E - lower_bound_certificate(9.0e-9):.4e} at "
             f"eps 9.0e-9, {gap_1e8:.4e} at eps 1e-8")
    assert ok


def test_criterion_7_conjugation_engine_exact():
    """On 1e3 random sliced martingales at depths up to 6 the coupling
    residual against the conjugate vanishes identically, conjugation
    preserves the fluctuation norm and squares to minus the mean-free part,
    and the projection fixes every conjugate pair.  All checks are exact on
    rational leaves, strictly inside the 1e-12 allowance."""
    failures = 0
    for k in range(1000):
        depth = (2, 4, 6)[k % 3]
        u = random_sliced(random.Random(1000 + k), depth)
        v = s0(u)
        centered = u.shift(-u.root_average)
        g = analytic_projection(u, v)
        ok = (
            cr_residual(u, v) == 0
            and v.norm2() == centered.norm2()
            and s0(v).leaves == centered.scale(-1).leaves
            and g.u.leaves == u.leaves
            and g.v.leaves == v.leaves
        )
        failures += not ok
    _verdict(7, "conjugation engine exact on random sliced martingales",
             failures == 0, "1000 cases")
    assert failures == 0


def test_criterion_8_testing_controls_packing():
    """For 1e3 random balanced measures rescaled so the worst kernel testing
    sum is one, the packing intensity stays below 3 + 1e-12 and the bound at
    three e times the testing constant clears random conjugate pairs with
    slack above -1e-12."""
    failures = 0
    rng = random.Random(500)
    frng = random.Random(600)
    min_pack = math.inf
    for trial in range(1000):
        depth = 2 if trial % 2 else 4
        mu = random_balanced_measure(rng, depth)
        mu = mu.scale(1.0 / kern.testing_constant(mu))
        failures += abs(kern.testing_constant(mu) - 1.0) > 1e-12
        pack = float(mu.packing_intensity())
        min_pack = min(min_pack, 3.0 - pack)
        failures += pack > 3.0 + 1e-12
        f = random_analytic(frng, depth)
        failures += kern.testing_embedding_slack(f, mu) < -1e-12
    _verdict(8, "testing sums control packing with factor 3", failures == 0,
             f"min packing margin {min_pack:.2e}")
    assert failures == 0


def test_criterion_9_cli_deterministic_with_exit_discipline(tmp_path, capsys):
    """Every command re-run with identical arguments reproduces its exit
    code, stdout, and emitted files byte for byte; exit codes are 0 for a
    passing check, 1 for a found violation, 2 for unusable input."""
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(
        json.dumps(
            {
                "u": {"base": "unit", "depth": 2, "leaves": [0, 2, 1, 1]},
                "v": {"base": "unit", "depth": 2, "leaves": [0, 0, 1, -1]},
            }
        )
    )
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps({"base": "unit", "depth": 2, "leaves": [0, 2, 1, 1]}))
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({"masses": {"L0N0": 1}, "depth": 2, "base": "unit"}))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"masses": {"L2N0": 1}}))
    out = tmp_path / "out"
    out.mkdir()

    commands = [
        ["verify-bellman", "--samples", "400", "--out", str(out / "vb.json")],
        ["scan-unsliced", "--csv", str(out / "w.csv"), "--out", str(out / "scan.json")],
        ["embed", "--function", str(pair_path), "--measure", str(mu_path),
         "--out", str(out / "embed.json")],
        ["uchiyama-check", "--function", str(pair_path), "--measure", str(mu_path)],
        ["conjugate", "--function", str(u_path), "--emit", str(out / "pair.json")],
        ["kernel", "--interval", "L2N1", "--height", "1",
         "--emit", str(out / "kernel.json")],
        ["check-3e", "--measure", str(mu_path), "--function", str(pair_path)],
        ["search-extremal", "--depth", "2", "--budget", "40", "--restarts", "2",
         "--out", str(out / "search.json"), "--emit", str(out / "best.json")],
        ["certify-lower-bound", "--eps", "0.01", "0.001",
         "--csv", str(out / "bounds.csv")],
    ]
    mismatched = []
    for argv in commands:
        emitted = [a for a in argv if a.startswith(str(out))]
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            blobs = tuple(Path(p).read_bytes() for p in emitted)
            runs.append((code, captured.out, captured.err, blobs))
        if runs[0] != runs[1]:
            mismatched.append(argv[0])

    code_pass = cli_main(
        ["embed", "--function", str(pair_path), "--measure", str(mu_path)]
    )
    code_violation = cli_main(
        ["scan-unsliced", "--max-sum", "0.2", "--csv", str(out / "none.csv")]
    )
    code_usage = cli_main(
        ["embed", "--function", str(pair_path), "--measure", str(bad_path)]
    )
    capsys.readouterr()  # the verdict below should stay visible

    ok = not mismatched and (code_pass, code_violation, code_usage) == (0, 1, 2)
    _verdict(9, "CLI deterministic with exit discipline", ok,
             f"9 commands, exit codes {(code_pass, code_violation, code_usage)}")
    assert ok
