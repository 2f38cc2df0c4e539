import csv
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyuch import bellman
from dyuch.bellman import (
    bellman_value,
    concavity_form_matrix,
    derivative_gap,
    det_closed_form,
    dynamics_gap,
    laplacian_step_gap,
    range_gaps,
    scan_unsliced,
    sliced_eigenvalues,
    third_minor_closed_form,
    unsliced_form_matrix,
    unsliced_third_minor,
    verify_sliced_psd,
    witness_csv,
)
from dyuch.dyadic import unit_root, window_root
from dyuch.martingale import random_analytic

E = math.e


def _minors(mats):
    # LAPACK's nested principal minors of a form or a batch, from the upper left
    return [np.linalg.det(mats[..., :k, :k]) for k in range(1, 5)]


def random_domain_point(rng):
    # a state (F, r, i, M) in the certificate domain
    r = rng.uniform(-1.5, 1.5)
    i = rng.uniform(-1.5, 1.5)
    F = r * r + i * i + rng.uniform(0.0, 2.0)
    M = rng.uniform(0.0, 1.0)
    return F, r, i, M


def children(F, r, i, M, dxr, dyr, d1, d2, mu, F_parts):
    """The children states of one step in the order (x-, x+, y-, y+): the pair
    moves by the conjugate rule, the masses spread around M - mu."""
    mean = M - mu
    fxm, fxp, fym, fyp = F_parts
    return (
        (fxm, r - dxr, i + dyr, mean - d1),
        (fxp, r + dxr, i - dyr, mean + d1),
        (fym, r - dyr, i - dxr, mean - d2),
        (fyp, r + dyr, i + dxr, mean + d2),
    )


def in_domain(F, r, i, M):
    # dynamics_gap takes the state, so the state lies in the domain (up to STEP_TOL)
    try:
        dynamics_gap(F, r, i, M, 0.0, 0.0, 0.0, 0.0, 0.0, (F,) * 4)
    except ValueError as exc:
        assert str(exc) == "state lies outside the certificate domain"
        return False
    return True


def manual_gap(state, split):
    """B at the state minus the mean of B over the children, minus the harvest."""
    F, r, i, M = state
    kids = children(*state, *split)
    drop = bellman_value(*state) - sum(bellman_value(*c) for c in kids) / 4
    return drop - split[4] * (r * r + i * i)


class TestValueAndDomain:
    def test_value_formula(self):
        assert bellman_value(3.0, 1.0, 0.0, 1.0) == pytest.approx(3 * E - 1, abs=1e-12)
        assert bellman_value(2.0, 1.0, 1.0, 0.0) == pytest.approx(2 * E - 2 * E, abs=1e-12)

    def test_in_domain(self):
        assert in_domain(1.0, 1.0, 0.0, 0.5)
        assert not in_domain(0.9, 1.0, 0.0, 0.5)
        assert not in_domain(1.0, 1.0, 0.0, 1.5)
        assert not in_domain(1.0, 1.0, 0.0, -0.5)
        # tolerance loosens the edges
        assert in_domain(1.0, 1.0, 0.0, 1.0 + 1e-13)
        assert in_domain(1.0 - 1e-10, 1.0, 0.0, -1e-10)
        assert not in_domain(1.0, 1.0, 0.0, math.nan)

    def test_range_gaps(self):
        lo, hi = range_gaps(1.0, 0.0, 0.0, 1.0)
        assert lo == pytest.approx(E, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)
        lo, hi = range_gaps(1.0, 1.0, 0.0, 0.0)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(E, abs=1e-12)

    def test_range_gaps_nonnegative_on_domain(self):
        rng = random.Random(50)
        for _ in range(300):
            lo, hi = range_gaps(*random_domain_point(rng))
            assert lo >= -1e-12 and hi >= -1e-12

    def test_range_gap_fails_off_domain(self):
        # below M = 0 the weight overshoots and the lower gap flips sign
        lo, _ = range_gaps(1.0, 1.0, 0.0, -1.0)
        assert lo < 0


class TestDerivativeGap:
    def test_frozen_value(self):
        assert derivative_gap(1.0, 0.0, 1.0, 1.0) == pytest.approx(E - 2, abs=1e-12)

    def test_nonnegative_on_domain(self):
        rng = random.Random(51)
        for _ in range(300):
            _, r, i, M = random_domain_point(rng)
            mu = rng.uniform(0.0, 2.0)
            assert derivative_gap(r, i, M, mu) >= -1e-12

    def test_zero_mass_and_off_domain(self):
        assert derivative_gap(1.0, 0.0, 1.0, 0.0) == 0.0
        assert derivative_gap(1.0, 0.0, 2.0, 0.1) < 0


class TestSplits:
    def test_children_layout(self):
        state, split = (3.0, 1.0, 0.0, 0.5), (1.0, 1.0, 0.0, 0.0, 0.0, (3.0, 3.0, 3.0, 3.0))
        xm, xp, ym, yp = (c[1:] for c in children(*state, *split))
        assert (xm, xp, ym, yp) == ((0.0, 1.0, 0.5), (2.0, -1.0, 0.5), (0.0, -1.0, 0.5),
                                    (2.0, 1.0, 0.5))
        # dynamics_gap lays its children out the same way: with every parameter
        # apart, a swapped pair, sign or spread would change the gap
        rng = random.Random(61)
        for _ in range(50):
            state = (9.0, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.4, 0.6))
            split = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.3, 0.3),
                     rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.1), (9.0,) * 4)
            assert dynamics_gap(*state, *split) == pytest.approx(manual_gap(state, split),
                                                                  rel=1e-12, abs=1e-12)

    def test_mass_and_spread_move_children(self):
        state, split = (3.0, 0.0, 0.0, 0.6), (0.0, 0.0, 0.1, 0.2, 0.1, (3.0,) * 4)
        xm, xp, ym, yp = (c[3] for c in children(*state, *split))
        assert (xm, xp) == (pytest.approx(0.4), pytest.approx(0.6))
        assert (ym, yp) == (pytest.approx(0.3), pytest.approx(0.7))
        state = (3.0, 1.0, 0.5, 0.6)
        assert dynamics_gap(*state, *split) == pytest.approx(manual_gap(state, split), abs=1e-12)

    def test_f_parts_validation(self):
        for parts in ((1.0, 2.0), (1.0,) * 5):
            with pytest.raises(ValueError, match="^F_parts must list the four children"):
                dynamics_gap(1.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, parts)


class TestConcavityGap:
    # the concavity gap is dynamics_gap at mu = 0

    def test_frozen_value(self):
        gap = dynamics_gap(3.0, 1.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 0.0, (3.0,) * 4)
        assert gap == pytest.approx(2 * math.sqrt(E), abs=1e-12)
        assert 2 * math.sqrt(E) == pytest.approx(3.2974425414002564, abs=1e-15)

    def test_matches_quadratic_form(self):
        rng = random.Random(52)
        for _ in range(200):
            M = rng.uniform(0.05, 0.95)
            d1 = rng.uniform(-0.6, 0.6)
            d2 = rng.uniform(-0.6, 0.6)
            w = np.array([rng.uniform(-2, 2) for _ in range(4)])
            gap = dynamics_gap(30.0, w[0], w[1], M, w[2], w[3], d1, d2, 0.0, (30.0,) * 4)
            mat = concavity_form_matrix(M, d1, d2)
            want = E * float(w @ mat @ w)
            assert gap == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_nonnegative_for_wild_splits(self):
        rng = random.Random(53)
        for _ in range(300):
            F, r, i, M = random_domain_point(rng)
            split = (
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                0.0,
                (F,) * 4,
            )
            assert dynamics_gap(F, r, i, M, *split) >= -1e-9

    def test_children_domain_check_optional(self):
        state, wild = (1.0, 1.0, 0.0, 0.5), (2.0, 0.0, 0.0, 0.0, 0.0, (1.0,) * 4)
        assert not all(in_domain(*c) for c in children(*state, *wild))
        assert dynamics_gap(*state, *wild) >= 0  # children leave the domain, still fine

    def test_rejects_bad_parent_or_parts(self):
        with pytest.raises(ValueError, match="domain"):
            dynamics_gap(0.5, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, (0.5,) * 4)
        with pytest.raises(ValueError, match="average"):
            dynamics_gap(3.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, (1.0,) * 4)


class TestDynamicsGap:
    def test_reduces_to_concavity(self):
        # with no mass there is no harvest: the gap is the value drop alone
        state, split = (3.0, 1.0, 0.5, 0.6), (0.3, -0.2, 0.1, 0.05, 0.0, (3.0, 2.0, 4.0, 3.0))
        drop = bellman_value(*state) - sum(bellman_value(*c) for c in children(*state, *split)) / 4
        assert dynamics_gap(*state, *split) == pytest.approx(drop, abs=1e-12)

    def test_manual_sum(self):
        state, split = (3.0, 1.0, 0.5, 0.6), (0.3, -0.2, 0.1, 0.05, 0.2, (3.0, 2.0, 4.0, 3.0))
        assert dynamics_gap(*state, *split) == pytest.approx(manual_gap(state, split), abs=1e-12)

    def test_nonnegative_randomized(self):
        rng = random.Random(54)
        for _ in range(300):
            F, r, i, M = random_domain_point(rng)
            mu = rng.uniform(0.0, M)
            mean = M - mu
            room = min(mean, 1.0 - mean)
            split = (
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                rng.uniform(-room, room),
                rng.uniform(-room, room),
                mu,
                (F,) * 4,
            )
            assert dynamics_gap(F, r, i, M, *split) >= -1e-9

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dynamics_gap(3.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, -0.1, (3.0,) * 4)


class TestHessianMatrices:
    def test_matrix_entries(self):
        mat = concavity_form_matrix(0.0, math.log(2), 0.0)
        sig = 2.5 + 2.0
        want = 0.25 * np.array(
            [
                [sig - 4, 0.0, -1.5, 0.0],
                [0.0, sig - 4, 0.0, 1.5],
                [-1.5, 0.0, sig, 0.0],
                [0.0, 1.5, 0.0, sig],
            ]
        )
        assert np.allclose(mat, want, atol=1e-12)
        assert np.allclose(mat, mat.T, atol=0.0)

    def test_mass_prefactor(self):
        a = concavity_form_matrix(0.0, 0.2, 0.1)
        b = concavity_form_matrix(1.0, 0.2, 0.1)
        assert np.allclose(a, math.e * b, atol=1e-12)

    def test_psd_for_all_real_spreads(self):
        rng = random.Random(55)
        for _ in range(300):
            hp = (
                rng.uniform(-1, 2), rng.uniform(-3, 3), rng.uniform(-3, 3)
            )
            eig = np.linalg.eigvalsh(concavity_form_matrix(*hp))
            assert eig[0] >= -1e-9

    def test_batch_matches_single_forms(self):
        # the verifier's array path: one call on arrays, entry by entry equal
        # to the single forms and closed forms
        rng = np.random.default_rng(60)
        m, d1, d2 = rng.uniform(0, 1, 50), rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)
        batch = (m, d1, d2)
        mats = concavity_form_matrix(*batch)
        minors = _minors(mats)
        thirds, dets = third_minor_closed_form(*batch), det_closed_form(*batch)
        assert mats.shape == (50, 4, 4) and thirds.shape == dets.shape == (50,)
        for t in range(50):
            hp = (float(m[t]), float(d1[t]), float(d2[t]))
            assert np.allclose(mats[t], concavity_form_matrix(*hp), rtol=1e-14, atol=0.0)
            assert np.allclose([mn[t] for mn in minors], _minors(mats[t]),
                               rtol=1e-12, atol=1e-15)
            assert thirds[t] == pytest.approx(third_minor_closed_form(*hp), rel=1e-14)
            assert dets[t] == pytest.approx(det_closed_form(*hp), rel=1e-14, abs=1e-300)
        tilted = unsliced_form_matrix(0.1, d1, d2)
        assert np.allclose(tilted[7], unsliced_form_matrix(0.1, float(d1[7]), float(d2[7])),
                           rtol=1e-14, atol=0.0)

    def test_closed_forms_match_numerics(self):
        rng = random.Random(56)
        for _ in range(200):
            hp = (
                rng.uniform(0.0, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            mat = concavity_form_matrix(*hp)
            third = float(np.linalg.det(mat[:3, :3]))
            det = float(np.linalg.det(mat))
            tc = third_minor_closed_form(*hp)
            dc = det_closed_form(*hp)
            assert abs(third - tc) <= max(1e-9 * abs(tc), 1e-12)
            assert abs(det - dc) <= max(1e-9 * abs(dc), 1e-12)
            assert tc >= 0.0 and dc >= 0.0

    def test_det_vanishes_on_axes(self):
        assert det_closed_form(0.3, 0.0, 0.7) == 0.0
        assert det_closed_form(0.3, 0.7, 0.0) == 0.0


class TestUnslicedForm:
    def test_reduces_to_sliced_at_zero_tilt(self):
        rng = random.Random(57)
        for _ in range(50):
            d1, d2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            a = unsliced_form_matrix(0.0, d1, d2)
            b = 4.0 * concavity_form_matrix(0.0, d1, d2)
            assert np.allclose(a, b, atol=1e-12)

    def test_third_minor_matches_matrix(self):
        rng = random.Random(58)
        for _ in range(100):
            d = rng.uniform(0.0, 0.5)
            d1 = rng.uniform(0.0, 0.5)
            d2 = rng.uniform(0.0, 0.5)
            mat = unsliced_form_matrix(d, d1, d2)
            num = float(np.linalg.det(mat[:3, :3]))
            assert unsliced_third_minor(d, d1, d2) == pytest.approx(
                num, rel=1e-9, abs=1e-12
            )

    def test_frozen_witness(self):
        g = unsliced_third_minor(0.05, 0.0, 0.45)
        assert g == pytest.approx(-0.004918626047445508, abs=1e-15)
        assert g < 0

    def test_negative_eigenvalue_at_witness(self):
        eig = np.linalg.eigvalsh(unsliced_form_matrix(0.05, 0.0, 0.45))
        assert eig[0] < 0

    def test_zero_tilt_slice_is_clean(self):
        for t in np.linspace(0.0, 0.5, 11):
            assert unsliced_third_minor(0.0, 0.0, float(t)) == pytest.approx(
                0.0, abs=1e-12
            )
        for a in np.linspace(0.0, 0.5, 11):
            for b in np.linspace(0.0, 0.5 - a, 6):
                assert unsliced_third_minor(0.0, float(a), float(b)) >= -1e-12


class TestLaplacianStep:
    def test_frozen_point_mass(self):
        for m in (0.25, 0.75, 1.5):
            gap = laplacian_step_gap(-m, m, (0.0, 0.0, 0.0, 0.0), 1.0, 0.0, 0.0, 0.0)
            assert gap == pytest.approx(1 - math.exp(-m) * (1 + m), abs=1e-12)

    def test_pair_mean_constraint(self):
        with pytest.raises(ValueError, match="average"):
            laplacian_step_gap(0.0, 0.0, (0.5, 0.0, 0.0, 0.0), 1.0, 0.0, 0.0, 0.0)

    def test_nonnegative_randomized(self):
        rng = random.Random(59)
        for _ in range(500):
            mp = rng.uniform(-2.0, 0.5)
            mu = rng.uniform(0.0, 1.0)
            s1, s2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            t = mp + mu
            gap = laplacian_step_gap(
                mp,
                mu,
                (t - s1, t + s1, t - s2, t + s2),
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
            )
            assert gap >= -1e-12


class TestChildren:
    @pytest.mark.parametrize("root", [unit_root(), window_root(1)], ids=["unit", "window-1"])
    @pytest.mark.parametrize("depth", [2, 4, 6, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_match_the_tree(self, root, depth, seed):
        # at every internal 4-adic node of an exact conjugate pair, the children rule run
        # on the node's averages and u's half jumps gives the averages of u and v over its
        # grandchildren, x- and x+ the right pair, y- and y+ the left
        f = random_analytic(random.Random(seed), depth, root)
        avg = [[[Fraction(s, pc.den_at(r)) for s in row] for r, row in enumerate(pc.pyramid())]
               for pc in (f.u, f.v)]
        for r in range(0, depth, 2):
            for j in range(1 << r):
                below = [(avg[0][r + 2][4 * j + q], avg[1][r + 2][4 * j + q])
                         for q in (2, 3, 0, 1)]
                dx, dy = (below[1][0] - below[0][0]) / 2, (below[3][0] - below[2][0]) / 2
                assert bellman._children(avg[0][r][j], avg[1][r][j], dx, dy) == tuple(below)


def _passes(rep, tol=1e-9):
    """verify-bellman's three PSD gates at its default --tolerance."""
    return rep.min_minor >= -tol and rep.min_eigenvalue >= -tol and rep.closed_form_failures == 0


class TestPsdStress:
    def test_small_run_clean(self):
        rep = verify_sliced_psd(samples=2000, seed=1)
        assert _passes(rep)
        assert rep.samples == 2000 + 2 * 21 * 21
        assert rep.min_minor >= -1e-9
        assert rep.min_eigenvalue >= -1e-9
        assert rep.closed_form_failures == 0

    def test_deterministic(self):
        a = verify_sliced_psd(samples=500, seed=3)
        b = verify_sliced_psd(samples=500, seed=3)
        assert a == b

    def test_no_boundary(self):
        rep = verify_sliced_psd(samples=500, seed=4, boundary=False)
        assert rep.samples == 500 and _passes(rep)


def _draws(samples, seed):
    # the verifier's draws: M in [0, 1], spreads within the window min(M, 1 - M)
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, samples)
    delta = np.minimum(m, 1.0 - m)
    return m, rng.uniform(-1.0, 1.0, samples) * delta, rng.uniform(-1.0, 1.0, samples) * delta


def _boundary_grid():
    gm, gt = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, 21),
                                              np.linspace(-0.5, 0.5, 21)))
    return np.concatenate([gm, gm]), np.concatenate([0.0 * gm, gt]), np.concatenate([gt, 0.0 * gm])


def _full_batch_row(m, d1, d2):
    # a slice's fold row with LAPACK on every sample
    mats = bellman.concavity_form_matrix(m, d1, d2)
    minors = _minors(mats)
    third_closed, det_closed = third_minor_closed_form(m, d1, d2), det_closed_form(m, d1, d2)
    third_err = np.abs(minors[2] - third_closed)
    det_err = np.abs(minors[3] - det_closed)
    third_gate = np.maximum(1e-9 * np.abs(third_closed), 1e-12)
    det_gate = np.maximum(1e-9 * np.abs(det_closed), 1e-12)
    failures = (~(third_err <= third_gate)).sum() + (~(det_err <= det_gate)).sum()
    return [len(m), *(float(mn.min()) for mn in minors),
            float(np.linalg.eigvalsh(mats)[:, 0].min()),
            float(third_err.max()), float(det_err.max()), int(failures)]


def _one_pass(samples, seed, boundary):
    # the report from all draws at once, folded by numpy alone
    m, d1, d2 = _draws(samples, seed)
    if boundary:
        m, d1, d2 = (np.concatenate(pair) for pair in zip((m, d1, d2), _boundary_grid()))
    row = _full_batch_row(m, d1, d2)
    return (row[0], min(row[1:5]), *row[5:8])


def _use_cpus(monkeypatch, n):
    # the verifier forks its helper only when it sees at least two usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _record_forks(monkeypatch):
    # the helpers the calling process forked
    forks, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _record_fold(monkeypatch, strip=False):
    # the rows the caller folds, in order; strip drops a last entry _check_slice added
    rows, real = [], bellman._fold

    def fold(got, expected):
        rows.extend(got)
        return real([r[:-1] for r in got] if strip else got, expected)

    monkeypatch.setattr(bellman, "_fold", fold)
    return rows


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPsdSlices:
    """The verifier checks its draws in slices and folds them to one report."""

    @pytest.mark.parametrize("size", [1000, 4096, 1 << 14])
    @pytest.mark.parametrize("boundary", [True, False])
    def test_slices_fold_to_one_pass(self, monkeypatch, size, boundary):
        monkeypatch.setattr(bellman, "PSD_SLICE", size)
        rep = verify_sliced_psd(samples=20_000, seed=5, boundary=boundary)
        got = (rep.samples, rep.min_minor, rep.min_eigenvalue, rep.max_third_minor_error,
               rep.max_det_error)
        assert got == _one_pass(20_000, 5, boundary)
        assert _passes(rep) and rep.closed_form_failures == 0

    @pytest.mark.parametrize("samples", [1, bellman.PSD_SLICE - 1, bellman.PSD_SLICE,
                                         bellman.PSD_SLICE + 1, 3 * bellman.PSD_SLICE + 7])
    def test_streamed_slices_are_the_draws(self, monkeypatch, samples):
        # each slice is drawn just before it is checked; together they are the draws
        # all at once, bit for bit, with the boundary grid last (one CPU: every call
        # is made here)
        _use_cpus(monkeypatch, 1)
        seen, real = [], bellman._check_slice

        def recorded(*s):
            seen.append(tuple(x.copy() for x in s))
            return real(*s)

        monkeypatch.setattr(bellman, "_check_slice", recorded)
        verify_sliced_psd(samples=samples, seed=7)
        *drawn, grid = seen
        assert [len(s[0]) for s in drawn[:-1]] == [bellman.PSD_SLICE] * (len(drawn) - 1)
        for got, want in zip(zip(*drawn), _draws(samples, 7)):
            assert np.array_equal(np.concatenate(got), want)
        for got, want in zip(grid, _boundary_grid()):
            assert np.array_equal(got, want)

    def test_peak_memory_does_not_grow_with_samples(self, monkeypatch):
        # one CPU: tracemalloc sees only this process, so every slice is checked here
        _use_cpus(monkeypatch, 1)
        verify_sliced_psd(samples=50_000, boundary=False)  # warm-up
        peaks = []
        for samples in (50_000, 400_000):
            tracemalloc.start()
            try:
                verify_sliced_psd(samples=samples, seed=2, boundary=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # all draws at once would add 32 bytes per sample: 11 MB more at 400,000
        assert peaks[1] <= peaks[0] + (1 << 20)

    @pytest.mark.parametrize("samples, boundary", [(-1, True), (-1, False), (0, False)])
    def test_nothing_checked_raises(self, samples, boundary):
        with pytest.raises(ValueError, match="--samples"):
            verify_sliced_psd(samples=samples, boundary=boundary)

    def test_negative_seed_raises(self):
        # numpy's own error would not name the option
        with pytest.raises(ValueError, match="--seed must be a nonnegative integer, got -1"):
            verify_sliced_psd(samples=10, seed=-1)

    def test_nan_in_a_later_slice_sticks(self, monkeypatch):
        # a NaN 3x3 minor in the second slice reaches min_minor and the failure count
        # (one CPU: every det call is made here)
        _use_cpus(monkeypatch, 1)
        real, calls = np.linalg.det, []

        def poisoned(a):
            minors = real(a)
            if a.shape[-1] == 3:
                calls.append(None)
                if len(calls) == 2:
                    minors[-1] = math.nan
            return minors

        monkeypatch.setattr(bellman, "PSD_SLICE", 1000)
        monkeypatch.setattr(np.linalg, "det", poisoned)
        rep = verify_sliced_psd(samples=3000, seed=1, boundary=False)
        assert len(calls) == 3
        assert math.isnan(rep.min_minor) and rep.closed_form_failures == 1 and not _passes(rep)

    def test_script_without_main_guard(self, tmp_path):
        # a script run as a file, without a __main__ guard, gets the same report
        script = tmp_path / "unguarded.py"
        script.write_text("from dyuch import bellman\n"
                          "rep = bellman.verify_sliced_psd(600_000, seed=1)\n"
                          "print(rep.min_minor >= -1e-9 and rep.min_eigenvalue >= -1e-9"
                          " and rep.closed_form_failures == 0, repr(rep.min_minor))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(bellman.__file__).resolve().parents[1]))
        child = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        rep = verify_sliced_psd(600_000, seed=1)
        assert child.stdout == f"{_passes(rep)} {rep.min_minor!r}\n"

    def test_nan_closed_form_counts_as_failure(self, monkeypatch):
        real = bellman.det_closed_form

        def poisoned(*hp):
            out = real(*hp)
            out[0] = math.nan
            return out

        monkeypatch.setattr(bellman, "PSD_SLICE", 1000)
        monkeypatch.setattr(bellman, "det_closed_form", poisoned)
        rep = verify_sliced_psd(samples=3000, seed=1, boundary=False)
        assert rep.closed_form_failures == 3 and not _passes(rep)


class TestPsdHelper:
    """On two or more CPUs the verifier checks its later slices in one forked helper."""

    @pytest.mark.parametrize("samples", [bellman.PSD_SLICE + 1, 2 * bellman.PSD_SLICE,
                                         3 * bellman.PSD_SLICE + 7])
    @pytest.mark.parametrize("boundary", [True, False])
    def test_report_equals_one_process(self, monkeypatch, samples, boundary):
        forks = _record_forks(monkeypatch)
        _use_cpus(monkeypatch, 1)
        one = verify_sliced_psd(samples=samples, seed=8, boundary=boundary)
        assert forks == []
        _use_cpus(monkeypatch, 2)
        two = verify_sliced_psd(samples=samples, seed=8, boundary=boundary)
        assert len(forks) == 1
        assert repr(two) == repr(one)  # repr is exact for floats
        _no_child_left()

    @pytest.mark.parametrize("cpus, samples", [(None, 2 * bellman.PSD_SLICE),
                                               (1, 2 * bellman.PSD_SLICE),
                                               (64, bellman.PSD_SLICE)])
    def test_one_slice_or_one_cpu_never_forks(self, monkeypatch, cpus, samples):
        # no sched_getaffinity, one usable CPU, or one draw slice: the one-process loop
        forks = _record_forks(monkeypatch)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            _use_cpus(monkeypatch, cpus)
        verify_sliced_psd(samples=samples)
        assert forks == []

    def test_failed_fork_checks_every_slice_here(self, monkeypatch):
        _use_cpus(monkeypatch, 1)
        one = verify_sliced_psd(samples=2 * bellman.PSD_SLICE + 5, seed=9)
        _use_cpus(monkeypatch, 2)

        def fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert repr(verify_sliced_psd(samples=2 * bellman.PSD_SLICE + 5, seed=9)) == repr(one)

    @pytest.mark.parametrize("samples", [bellman.PSD_SLICE + 1, 3 * bellman.PSD_SLICE + 7])
    def test_split_slices_are_the_draws(self, monkeypatch, samples):
        # each folded row carries the draws it was checked on, from either process
        _use_cpus(monkeypatch, 2)
        forks, real = _record_forks(monkeypatch), bellman._check_slice
        monkeypatch.setattr(bellman, "_check_slice", lambda *s: [*real(*s), s])
        rows = _record_fold(monkeypatch, strip=True)
        verify_sliced_psd(samples=samples, seed=7)
        assert len(forks) == 1
        *drawn, grid = (r[-1] for r in rows)
        assert [len(s[0]) for s in drawn[:-1]] == [bellman.PSD_SLICE] * (len(drawn) - 1)
        for got, want in zip(zip(*drawn), _draws(samples, 7)):
            assert np.array_equal(np.concatenate(got), want)
        for got, want in zip(grid, _boundary_grid()):
            assert np.array_equal(got, want)

    def test_nan_in_the_helpers_half_sticks(self, monkeypatch):
        # slices of 1000: this process checks slice 0, the helper slices 1 and 2; the
        # helper's second 3x3 det, slice 2's, has a NaN that reaches the report
        _use_cpus(monkeypatch, 2)
        real, calls = np.linalg.det, []

        def poisoned(a):
            minors = real(a)
            if a.shape[-1] == 3:
                calls.append(None)
                if len(calls) == 2:
                    minors[-1] = math.nan
            return minors

        monkeypatch.setattr(bellman, "PSD_SLICE", 1000)
        monkeypatch.setattr(np.linalg, "det", poisoned)
        rows = _record_fold(monkeypatch)
        rep = verify_sliced_psd(samples=3000, seed=1, boundary=False)
        assert len(calls) == 1
        assert [math.isnan(r[3]) for r in rows] == [False, False, True]
        assert math.isnan(rep.min_minor) and rep.closed_form_failures == 1 and not _passes(rep)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nan_form_in_the_helpers_half_raises_the_same_error(self, monkeypatch, cpus):
        # the form of sample 2005 of the draws, in the helper's half, is poisoned
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(bellman, "PSD_SLICE", 1000)
        target, d1, d2 = (float(x[2005]) for x in _draws(3000, 1))
        real = bellman.concavity_form_matrix

        def poisoned(m, d1, d2):
            mats = real(m, d1, d2)
            mats[m == target, 2, 1] = math.nan
            return mats

        monkeypatch.setattr(bellman, "concavity_form_matrix", poisoned)
        with pytest.raises(ValueError) as exc:
            verify_sliced_psd(samples=3000, seed=1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == (f"the sliced form of sample 5 of a slice, at M={target!r},"
                                  f" d1={d1!r}, d2={d2!r}, has a non-finite entry")
        _no_child_left()

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, ValueError])
    def test_raise_in_this_half_kills_the_helper(self, monkeypatch, raised):
        # the helper would sleep for a minute; it is killed and reaped at once
        _use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def check(*s):
            if os.getpid() == caller:
                raise raised("stop")
            time.sleep(60)

        monkeypatch.setattr(bellman, "_check_slice", check)
        start = time.monotonic()
        with pytest.raises(raised, match="stop"):
            verify_sliced_psd(samples=3 * bellman.PSD_SLICE)
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_helper_dying_without_rows_raises(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        caller, real = os.getpid(), bellman._check_slice
        monkeypatch.setattr(bellman, "_check_slice",
                            lambda *s: real(*s) if os.getpid() == caller else os._exit(3))
        with pytest.raises(RuntimeError, match="helper exited with status 3"):
            verify_sliced_psd(samples=3 * bellman.PSD_SLICE)
        _no_child_left()

    def test_helper_stops_once_its_parent_is_gone(self, monkeypatch, tmp_path):
        # a helper that sees a new parent after its first slice checks no other
        _use_cpus(monkeypatch, 2)
        caller, real, log = os.getpid(), bellman._check_slice, tmp_path / "helper.log"

        def check(*s):
            if os.getpid() != caller:
                with open(log, "a") as fh:
                    fh.write("slice\n")
            return real(*s)

        monkeypatch.setattr(bellman, "_check_slice", check)
        monkeypatch.setattr(os, "getppid", lambda: -1)
        with pytest.raises(RuntimeError, match="helper exited with status 1"):
            verify_sliced_psd(samples=4 * bellman.PSD_SLICE)
        assert log.read_text() == "slice\n"
        _no_child_left()

    def test_cli_forks_before_numpy_is_imported(self, tmp_path):
        # the helper is forked from a process with one thread, so on 3.12 and later
        # fork warns of nothing
        script = ("import os, runpy, sys\n"
                  "real = os.fork\n"
                  "def fork():\n"
                  "    loaded = 'numpy' in sys.modules\n"
                  "    pid = real()\n"
                  "    if pid:\n"
                  "        print('forked', 'after' if loaded else 'before', 'numpy',"
                  " file=sys.stderr)\n"
                  "    return pid\n"
                  "os.fork = fork\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "sys.argv = ['dyuch', 'verify-bellman', '--samples', '40000']\n"
                  "runpy.run_module('dyuch.cli', run_name='__main__')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(bellman.__file__).resolve().parents[1]))
        child = subprocess.run([sys.executable, "-W", "error", "-c", script], cwd=tmp_path,
                               env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert child.stderr == "forked before numpy\n"
        assert "result: PASS" in child.stdout


def _outcome(check, m, d1, d2):
    # repr is exact for floats, so equal outcomes are equal bit for bit
    return repr(check(m, d1, d2))


class TestSlicedSpectrum:
    """The sliced form's two double eigenvalues in closed form."""

    @pytest.mark.parametrize("draws", [_draws(20_000, 61), _boundary_grid(),
                                       tuple(np.random.default_rng(62).uniform(-3, 3, (3, 2000)))],
                             ids=["domain", "boundary-grid", "all-real"])
    def test_all_four_match_lapack(self, draws):
        mats = concavity_form_matrix(*draws)
        low, high = sliced_eigenvalues(mats)
        eig = np.linalg.eigvalsh(mats)
        for k, closed in enumerate((low, low, high, high)):
            # high >= |low| is the spectral radius; the domain's forms have high <= 1
            assert (np.abs(eig[:, k] - closed) <= 1e-14 * np.maximum(1.0, high)).all()

    def test_single_form(self):
        # sig = 4.5, p = -1.5, q = 0
        low, high = sliced_eigenvalues(concavity_form_matrix(0.0, math.log(2), 0.0))
        assert low == pytest.approx(0.25 * (2.5 - 2.5), abs=1e-15)
        assert high == pytest.approx(0.25 * (2.5 + 2.5), rel=1e-15)


class TestEigenvalueCandidates:
    """LAPACK runs on a slice's near-minimal samples only; the fold row stays the same."""

    def test_every_slice_of_a_pool_sized_run(self):
        m, d1, d2 = _draws(300_000, 2)
        slices = [(m[lo:lo + bellman.PSD_SLICE], d1[lo:lo + bellman.PSD_SLICE],
                   d2[lo:lo + bellman.PSD_SLICE]) for lo in range(0, 300_000, bellman.PSD_SLICE)]
        for s in [*slices, _boundary_grid()]:
            assert _outcome(bellman._check_slice, *s) == _outcome(_full_batch_row, *s)

    @pytest.mark.parametrize("zeros", ["d1", "d1-d2"])
    def test_slices_where_every_eigenvalue_ties_at_zero(self, zeros):
        m, d1, d2 = _draws(bellman.PSD_SLICE, 63)
        d1 = 0.0 * d1
        if zeros == "d1-d2":
            d2 = 0.0 * d2
        low = sliced_eigenvalues(concavity_form_matrix(m, d1, d2))[0]
        assert np.abs(low).max() <= 1e-15
        assert _outcome(bellman._check_slice, m, d1, d2) == _outcome(_full_batch_row, m, d1, d2)

    def test_every_a_ties_at_a_nonzero_value(self):
        # constant (M, d1, d2): every sample is a candidate for both windows
        m, d1, d2 = (np.full(bellman.PSD_SLICE, x) for x in (0.4, 0.3, -0.2))
        assert concavity_form_matrix(m, d1, d2)[0, 0, 0] > 0
        assert _outcome(bellman._check_slice, m, d1, d2) == _outcome(_full_batch_row, m, d1, d2)

    def test_least_a_away_from_the_least_eigenvalue(self):
        # even samples have d1 = 0, so a least eigenvalue of 0; odd ones hold the
        # least a, with least eigenvalues far above the window
        rng = np.random.default_rng(66)
        m = rng.uniform(0.4, 0.6, bellman.PSD_SLICE)
        delta = np.minimum(m, 1.0 - m)
        d1, d2 = rng.uniform(0.3, 0.4, (2, len(m))) * delta
        d1[::2], d2[::2] = 0.0, 0.9 * delta[::2]
        mats = concavity_form_matrix(m, d1, d2)
        low, a = sliced_eigenvalues(mats)[0], mats[:, 0, 0]
        assert low[np.argmin(a)] > low.min() + 1e3 * bellman.PSD_EIG_WINDOW
        assert _outcome(bellman._check_slice, m, d1, d2) == _outcome(_full_batch_row, m, d1, d2)

    def test_lapack_sees_few_samples(self, monkeypatch):
        real, sizes = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or real(a))
        bellman._check_slice(*_draws(bellman.PSD_SLICE, 64))
        assert len(sizes) == 1 and 0 < sizes[0] < 2000

    def test_first_two_minors_see_few_samples(self, monkeypatch):
        real, sizes = np.linalg.det, {}

        def counted(a):
            sizes[a.shape[-1]] = len(a)
            return real(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        bellman._check_slice(*_draws(bellman.PSD_SLICE, 64))
        assert 0 < sizes[1] == sizes[2] < 2000
        assert sizes[3] == sizes[4] == bellman.PSD_SLICE

    @pytest.mark.parametrize("entry", [(i, j) for i in range(4) for j in range(4)])
    def test_nan_in_any_entry_gives_the_full_batch_outcome(self, monkeypatch, entry):
        # a NaN anywhere in a form stops the slice before LAPACK sees it, in the
        # lower triangle, which eigvalsh reads, and above it alike
        real = bellman.concavity_form_matrix

        def poisoned(*hp):
            mats = real(*hp)
            mats[(700, *entry)] = math.nan
            return mats

        monkeypatch.setattr(bellman, "concavity_form_matrix", poisoned)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        monkeypatch.setattr(np.linalg, "det", None)
        with pytest.raises(ValueError, match="sample 700 of a slice") as exc:
            bellman._check_slice(*_draws(1000, 65))
        assert type(exc.value) is ValueError

    def test_nan_form_raises_in_the_library(self, monkeypatch):
        real = bellman.concavity_form_matrix

        def poisoned(*hp):
            mats = real(*hp)
            mats[0, 0, 0] = math.nan
            return mats

        monkeypatch.setattr(bellman, "concavity_form_matrix", poisoned)
        with pytest.raises(ValueError, match="sample 0 of a slice, at M=.* has a non-finite"):
            verify_sliced_psd(samples=3000, seed=1)


class TestPsdFold:
    """The fold of per-slice rows alone: NaN sticks, and every sample is accounted for."""

    # [samples, 4 minor minima, least eigenvalue, third and det errors, failures]
    ROWS = [[1000, 0.5, 0.2, 0.1, 0.0, 0.0, 1e-15, 2e-15, 0],
            [1000, 0.4, 0.3, 0.2, 1e-18, 1e-3, 3e-15, 1e-15, 0],
            [882, 0.6, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0]]
    FIELDS = {1: "min_minor", 2: "min_minor", 3: "min_minor", 4: "min_minor",
              5: "min_eigenvalue", 6: "max_third_minor_error", 7: "max_det_error"}

    def test_clean_rows_fold(self):
        rep = bellman._fold(self.ROWS, 2882)
        assert (rep.samples, rep.min_minor, rep.min_eigenvalue) == (2882, 0.0, 0.0)
        assert (rep.max_third_minor_error, rep.max_det_error) == (3e-15, 2e-15)
        assert rep.closed_form_failures == 0 and _passes(rep)

    @pytest.mark.parametrize("row", range(3))
    @pytest.mark.parametrize("column", sorted(FIELDS))
    def test_nan_in_any_row_and_column_sticks(self, row, column):
        rows = [list(r) for r in self.ROWS]
        rows[row][column] = math.nan
        rep = bellman._fold(rows, 2882)
        assert math.isnan(getattr(rep, self.FIELDS[column]))
        if column <= 5:
            assert not _passes(rep)

    @pytest.mark.parametrize("expected", [2881, 2883, 2000])
    def test_sample_count_must_match_draws_plus_grid(self, expected):
        with pytest.raises(RuntimeError, match="checked 2882 samples"):
            bellman._fold(self.ROWS, expected)

    def test_failures_add_up(self):
        rows = [list(r) for r in self.ROWS]
        rows[0][8], rows[2][8] = 2, 1
        rep = bellman._fold(rows, 2882)
        assert rep.closed_form_failures == 3 and not _passes(rep)

    def test_samples_over_the_cap_raise_before_drawing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(bellman.MAX_PSD_SAMPLES)):
                verify_sliced_psd(samples=bellman.MAX_PSD_SAMPLES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestScan:
    def test_sweep_finds_witnesses(self):
        witnesses, summary = scan_unsliced()
        assert summary["region"] == "sweep"
        assert summary["checked"] == 506
        assert summary["witnesses"] == len(witnesses) == 11
        assert summary["argmin"] == [0.05, 0.0, 0.45]
        assert summary["min_value"] == pytest.approx(-0.004918626047445508, abs=1e-15)
        # sorted with the most negative first
        vals = [w[3] for w in witnesses]
        assert vals == sorted(vals)
        assert all(g < 0 for g in vals)

    def test_zero_tilt_region_is_clean(self):
        witnesses, summary = scan_unsliced(region="d-zero")
        assert witnesses == []
        assert summary["witnesses"] == 0
        assert summary["min_value"] >= -1e-12

    def test_d1_zero_region(self):
        witnesses, summary = scan_unsliced(region="d1-zero")
        assert summary["witnesses"] > 0
        assert all(w[1] == 0.0 for w in witnesses)

    def test_threshold(self):
        _, strict = scan_unsliced(threshold=-1.0)
        assert strict["witnesses"] == 0

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    @pytest.mark.parametrize("step", [0.05, 0.013, 0.1])
    def test_grid_walk_is_the_third_minor_bit_for_bit(self, region, step):
        # the walk reuses 2 cosh per spread and exp(-+d) per tilt, and every point keeps its
        # bits; the threshold makes every point a witness
        walked, summary = scan_unsliced(region=region, step=step, threshold=1e308)
        assert len(walked) == summary["checked"]
        for d, d1, d2, g in walked:
            assert g == unsliced_third_minor(d, d1, d2)

    @pytest.mark.parametrize("region, point", [("sweep", "d=0.0, d1=700.0, d2=700.0"),
                                               ("d-zero", "d=0.0, d1=700.0, d2=700.0"),
                                               ("d1-zero", "d=700.0, d1=0.0, d2=0.0")])
    def test_non_finite_minor_raises(self, region, point):
        with pytest.raises(ValueError, match=f"tilted minor at {point} is inf"):
            scan_unsliced(region=region, step=700.0, max_sum=700.0)

    @pytest.mark.parametrize("region, step, point", [
        ("sweep", 800.0, "d=0.0, d1=0.0, d2=800.0"),  # 2 cosh of the largest spread
        ("d-zero", 800.0, "d=0.0, d1=0.0, d2=800.0"),
        ("d1-zero", 800.0, "d=0.0, d1=0.0, d2=800.0"),
        ("sweep", 710.0, "d=710.0, d1=0.0, d2=0.0"),  # 2 cosh(710) is finite, exp(710) not
        ("d1-zero", 710.0, "d=710.0, d1=0.0, d2=0.0"),
    ])
    def test_overflowing_grid_raises(self, region, step, point):
        # used to escape as a bare OverflowError
        with pytest.raises(ValueError, match=f"2 cosh or exp overflows at {point}$"):
            scan_unsliced(region=region, step=step, max_sum=step)

    def test_overflowing_explicit_point_raises(self):
        with pytest.raises(ValueError, match="overflows at d=0.0, d1=-711.0, d2=0.5$"):
            unsliced_third_minor(0.0, -711.0, 0.5)

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            scan_unsliced(region="everywhere")

    def test_csv_roundtrip(self, tmp_path):
        witnesses, _ = scan_unsliced()
        path = tmp_path / "w.csv"
        path.write_bytes(witness_csv(witnesses).encode())
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["d", "d1", "d2", "G"]
        assert len(rows) == len(witnesses) + 1
        got = [tuple(float(x) for x in row) for row in rows[1:]]
        assert got == [tuple(map(float, w)) for w in witnesses]

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    @pytest.mark.parametrize("step, max_sum", [(0.05, 0.5), (0.1, 0.0), (0.03, 0.31), (1.0, 0.4)])
    def test_grid_count_matches_the_walk(self, monkeypatch, region, step, max_sum):
        # with the cap at the counted size the scan runs, one point less and it raises
        _, summary = scan_unsliced(region=region, step=step, max_sum=max_sum)
        monkeypatch.setattr(bellman, "MAX_SCAN_POINTS", summary["checked"])
        scan_unsliced(region=region, step=step, max_sum=max_sum)
        monkeypatch.setattr(bellman, "MAX_SCAN_POINTS", summary["checked"] - 1)
        with pytest.raises(ValueError, match=f"give {summary['checked']} grid points"):
            scan_unsliced(region=region, step=step, max_sum=max_sum)

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    @pytest.mark.parametrize("step, max_sum, spreads", [(0.3, 0.5, 2), (0.03, 0.31, 11),
                                                        (0.1, 0.3, 4)])
    def test_grid_stays_in_the_window(self, region, step, max_sum, spreads):
        # 0.5 / 0.3 used to round up to a third spread, d2 = 0.6; 0.3 / 0.1 reads
        # 2.9999999999999996 and keeps its fourth
        walked, summary = scan_unsliced(region=region, step=step, max_sum=max_sum,
                                        threshold=1e308)
        assert len(walked) == summary["checked"]
        assert len({d2 for _, _, d2, _ in walked}) == spreads
        assert max(d + max(d1, d2) for d, d1, d2, _ in walked) <= max_sum * (1 + 1e-12)

    def test_grid_is_walked_lazily(self):
        # 40,401 points on the zero-tilt slice, which has no witnesses; a list of
        # the grid's triples would hold about 4 MB
        tracemalloc.start()
        try:
            _, summary = scan_unsliced(region="d-zero", step=0.5 / 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["checked"] == 201 * 201 and summary["witnesses"] == 0
        assert peak < 1 << 20

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    @pytest.mark.parametrize("step, max_sum", [(5e-324, 1.0), (1e-300, 1e10)])
    def test_overflowing_grid_is_over_the_cap(self, region, step, max_sum):
        # max_sum / step is inf; the grid used to raise OverflowError converting it to an int
        with pytest.raises(ValueError, match=f"over the cap of {bellman.MAX_SCAN_POINTS}"):
            scan_unsliced(region=region, step=step, max_sum=max_sum)

    @pytest.mark.parametrize("region", ["sweep", "d-zero", "d1-zero"])
    def test_grid_over_the_cap_raises_before_building(self, region):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the cap"):
                scan_unsliced(region=region, step=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
