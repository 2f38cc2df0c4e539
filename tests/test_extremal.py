import hashlib
import math
import random
from fractions import Fraction

import pytest

from dyuch.bellman import (
    BoundProfile,
    exponential_profile,
    lower_bound_certificate,
    profile_residuals,
)
from dyuch.carleson import DiscreteMeasure
from dyuch import extremal
from dyuch.dyadic import DyadicInterval, unit_root
from dyuch.extremal import Configuration, search
from dyuch.martingale import DyadicAnalytic
from interval_masses import measure_of

E = math.e

# what search returns at each depth, whatever its budget and seed: (ratio, support,
# pinned digest, the sha256 of repr((ratio, u leaves, v leaves, masses in order)))
EXACT_PINS = {
    4: (1.3063235759751923, 7, "929b1b001c932491"),
    6: (1.3958806654260874, 15, "f7e98847053a6dc0"),
    8: (1.4638551074516786, 31, "eeafc61aa5f203f1"),
}


@pytest.fixture
def competitor():
    """The depth-two family, a closed-form check on Configuration.build."""

    def build(F, r, i, M):
        # splits the slack F - r*r - i*i evenly into conjugate jumps and loads
        # mass M on the root; the certified ratio is M (r*r + i*i) / F
        mod2 = r * r + i * i
        if F < mod2:
            raise ValueError("need F >= r*r + i*i")
        if not 0.0 <= M <= 1.0:
            raise ValueError("root mass must lie in [0, 1]")
        c = math.sqrt((F - mod2) / 2.0)
        u = [r - c, r + c, r - c, r + c]
        v = [i - c, i + c, i + c, i - c]
        f = DyadicAnalytic.from_leaves(u, v)
        mu = DiscreteMeasure(unit_root(), 2, [(0, 0)], [M])
        return Configuration.build(f, mu)

    return build


class TestCompetitor:
    def test_worked_example(self, competitor):
        cfg = competitor(3.0, 1.0, 0.0, 1.0)
        assert cfg.f.u.leaves == (0.0, 2.0, 0.0, 2.0)
        assert cfg.f.v.leaves == (-1.0, 1.0, 1.0, -1.0)
        assert cfg.mu.masses.get(unit_root(), cfg.mu.zero) == 1.0
        assert cfg.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ratio_formula(self, competitor):
        rng = random.Random(70)
        for _ in range(50):
            r, i = rng.uniform(-1, 1), rng.uniform(-1, 1)
            mod2 = r * r + i * i
            F = mod2 + rng.uniform(0.01, 2.0)
            M = rng.uniform(0.0, 1.0)
            cfg = competitor(F, r, i, M)
            assert cfg.ratio == pytest.approx(M * mod2 / F, rel=1e-9, abs=1e-12)

    def test_tight_second_moment(self, competitor):
        cfg = competitor(0.25, 0.5, 0.0, 0.8)
        # no slack to split: the pair is constant and the ratio is M itself
        assert cfg.f.u.leaves == (0.5,) * 4
        assert cfg.ratio == pytest.approx(0.8, abs=1e-12)

    def test_validation(self, competitor):
        with pytest.raises(ValueError, match="F"):
            competitor(0.5, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="mass"):
            competitor(3.0, 1.0, 0.0, 1.5)
        with pytest.raises(ValueError, match="mass"):
            competitor(3.0, 1.0, 0.0, -0.5)


class TestConfiguration:
    def test_rejects_unbalanced(self):
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        lop = measure_of({DyadicInterval(2, 0): Fraction(1, 4)})
        with pytest.raises(ValueError, match="balanced"):
            Configuration.build(f, lop)

    def test_rejects_overpacked(self):
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        heavy = measure_of({unit_root(): 2}, depth=2)
        with pytest.raises(ValueError, match="packing"):
            Configuration.build(f, heavy)

    def test_rejects_zero_pair(self):
        f = DyadicAnalytic.from_leaves([0] * 4, [0] * 4)
        mu = measure_of({unit_root(): 1}, depth=2)
        with pytest.raises(ValueError, match="zero pair"):
            Configuration.build(f, mu)

    def test_rejects_overflowing_pair(self):
        # norm2 and the embedding sum overflow to inf, so the slack and ratio are NaN
        f = DyadicAnalytic.from_leaves([1.5e154] * 4, [0.0] * 4)
        mu = measure_of({unit_root(): 1.0}, depth=2)
        assert float(f.norm2()) == math.inf
        with pytest.raises(ValueError, match="slack nan"):
            Configuration.build(f, mu)

    def test_accepts_admissible(self):
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        mu = measure_of({unit_root(): Fraction(1, 2)}, depth=2)
        cfg = Configuration.build(f, mu)
        assert cfg.ratio == pytest.approx(0.5, abs=1e-12)


class TestSearch:
    def test_deterministic(self):
        a = search(2, budget=60, seed=5)
        b = search(2, budget=60, seed=5)
        assert a.ratio == b.ratio
        assert a.f.u.leaves == b.f.u.leaves
        assert a.mu.masses == b.mu.masses

    def test_flat_floor(self):
        for depth in (2, 4):
            assert search(depth).ratio >= 1.0 - 1e-12

    def test_warm_start_invariant(self):
        assert search(4).ratio >= search(2).ratio - 1e-12

    def test_result_is_admissible(self):
        cfg = search(4)
        cfg.mu.require_balanced()
        assert float(cfg.mu.packing_intensity()) <= 1.0 + 1e-12
        assert cfg.ratio <= E + 1e-9

    def test_depth_validation(self):
        for bad in (0, 1, 3):
            with pytest.raises(ValueError):
                search(bad, budget=1)

    def test_knob_bounds(self):
        # budget and seed are ignored, so no value of theirs is out of range;
        # restarts is no longer a parameter
        want = search(2)
        for budget in (-1, 0, 10**9):
            for seed in (None, -3, 10**9):
                got = search(2, budget=budget, seed=seed)
                assert got.ratio == want.ratio
                assert got.f.u.leaves == want.f.u.leaves and got.mu.masses == want.mu.masses
        with pytest.raises(TypeError):
            search(2, budget=10, restarts=0)

    @pytest.mark.parametrize("depth, budget, seed, most", [
        (2, 1, 100_000, 2), (8, 1, 5000, 10),
        (4, 1, 1, 6), (4, 5, 0, 14), (6, 10, 7, 26), (8, 33, 1000, 74), (6, 800, 6, 1606),
    ])
    def test_budget_caps_the_states_scored(self, monkeypatch, depth, budget, seed, most):
        # most is the random search's cap, 2 * budget + depth states (budget + 1 at
        # depth 2); the recursion scores the one configuration it builds, whatever
        # the budget and seed
        scored = []
        real = extremal.embedding_sum
        monkeypatch.setattr(extremal, "embedding_sum",
                            lambda f, mu: scored.append(None) or real(f, mu))
        search(depth, budget=budget, seed=seed)
        assert len(scored) == 1 <= most

    @pytest.mark.parametrize("depth, budget, seed, restarts",
                             [(4, 200, 3, 4), (4, 800, 0, 6), (6, 800, 0, 6), (6, 300, 9, 2)])
    def test_never_below_its_warm_start(self, depth, budget, seed, restarts):
        # the best at depth - 2, where the random search started, is a floor at depth
        floor = search(depth - 2, budget // 2, seed + 1).ratio
        assert search(depth, budget, seed).ratio >= floor
        with pytest.raises(TypeError):
            search(depth, budget, seed, restarts)

    @pytest.mark.parametrize(
        "args, ratio, support, pinned",
        [
            ((4, 200, 3), 1.1153104308029502, 19, "af43ac8ff156a3a4"),
            ((6, 300, 0), 1.1095968198201451, 5, "4524e498cb8413bf"),
            # the benchmark's seed-1 calls, and the deepest search the CLI allowed
            ((6, 800, 1000), 1.143950571596901, 4, "ed21f9719224dea7"),
            ((6, 800, 1001), 1.124935475033036, 4, "be767daedfcbf316"),
            ((6, 800, 1002), 1.145322015294632, 3, "1fc9447dbab10902"),
            ((8, 800, 0), 1.088545530079711, 4, "d16e508283c820d8"),
        ],
    )
    def test_seeded_output_pinned(self, args, ratio, support, pinned):
        # ratio, support and pinned are what the seeded random search returned for
        # args; the recursion returns its depth's one configuration, which beats it
        cfg = search(*args)
        items = [(I.id, m) for I, m in cfg.mu.masses.items()]
        state = (cfg.ratio, cfg.f.u.leaves, cfg.f.v.leaves, items)
        digest = hashlib.sha256(repr(state).encode()).hexdigest()[:16]
        assert (cfg.ratio, len(cfg.mu), digest) == EXACT_PINS[args[0]]
        assert cfg.ratio > ratio and (len(cfg.mu), digest) != (support, pinned)


@pytest.fixture(scope="module")
def searched():
    return {depth: search(depth) for depth in range(2, 13, 2)}


class TestRecursion:
    def test_depth_two_closed_form(self, searched):
        assert abs(searched[2].ratio - (3 + math.sqrt(3)) / 4) <= 1e-12

    def test_built_ratio_is_the_recursion_constant(self, searched):
        ratios = []
        for depth, cfg in searched.items():
            constant = extremal._best_constant(depth // 2)[0]
            assert cfg.ratio == pytest.approx(constant, rel=1e-9)
            ratios.append(cfg.ratio)
        assert ratios == sorted(ratios)

    @pytest.mark.parametrize("depth, floor", [
        (4, 1.306323), (6, 1.395880), (8, 1.463855), (10, 1.517058),
    ])
    def test_ratio_floor(self, searched, depth, floor):
        assert searched[depth].ratio >= floor

    def test_exact_packing_and_balance(self, searched):
        for cfg in searched.values():
            assert cfg.mu.balance_residual() == 0.0
            assert cfg.mu.packing_intensity() == 1.0

    def test_budget_and_seed_change_nothing(self):
        a, b = search(6, 800, 1), search(6)
        assert a.ratio == b.ratio
        assert a.f.u.leaves == b.f.u.leaves and a.f.v.leaves == b.f.v.leaves
        assert a.mu.masses == b.mu.masses

    def test_bellman_function_bounds_every_height(self):
        # the paper's Bellman function e - e^(1 - M) caps g_h(M; e) at every height
        rows, _ = extremal._table(50, E)
        for row in rows:
            for k, value in enumerate(row):
                assert value <= E - math.exp(1 - k / extremal.TYPES)

    def test_below_the_constant_is_beaten(self):
        # the constant is the least float where the table holds
        for height in range(1, 7):
            constant = extremal._best_constant(height)[0]
            assert extremal._table(height, constant)[0][-1][extremal.TYPES] <= constant
            below = math.nextafter(constant, 0)
            table = extremal._table(height, below)
            assert table is None or table[0][-1][extremal.TYPES] > below, height


def bisected_constant(height):
    """The 56-halving bisection on [1, e] that _best_constant replaced, kept as
    its reference: (e - 1) / 2**56 is below one ulp, so it ends at adjacent floats."""
    lo, hi = 1.0, E
    table = extremal._table(height, hi)
    if table is None or table[0][-1][extremal.TYPES] > hi:
        raise ArithmeticError(f"the recursion beats e at height {height}")
    for _ in range(56):
        mid = (lo + hi) / 2
        trial = extremal._table(height, mid)
        if trial is None or trial[0][-1][extremal.TYPES] > mid:
            lo = mid
        else:
            hi, table = mid, trial
    return (hi, *table)


def counting_tables(monkeypatch, table):
    """Route extremal._table through table and count its calls."""
    calls = []
    monkeypatch.setattr(extremal, "_table", lambda h, c: calls.append(c) or table(h, c))
    return calls


def flat_table(g):
    """A stand-in for extremal._table whose g_height(TYPES; c) is g(c), None if beaten."""
    def table(height, c):
        value = g(c)
        return None if value is None else ([[value] * (extremal.TYPES + 1)], [])
    return table


class TestBestConstant:
    @pytest.mark.parametrize("types, depths", [(4, range(2, 41, 2)), (8, range(2, 21, 2))],
                             ids=["types-4", "types-8"])
    def test_matches_the_bisection(self, monkeypatch, types, depths):
        monkeypatch.setattr(extremal, "TYPES", types)
        for depth in depths:
            assert extremal._best_constant(depth // 2) == bisected_constant(depth // 2)

    def test_tables_per_solve(self, monkeypatch):
        # the bisection built 57 tables per solve whatever the depth
        calls = counting_tables(monkeypatch, extremal._table)
        for depth in range(2, 41, 2):
            calls.clear()
            extremal._best_constant(depth // 2)
            assert len(calls) <= 24, (depth, len(calls))

    @pytest.mark.parametrize("g, constant", [
        # beaten below 1.3, where the value blows up; the root is 1.5
        (lambda c: 1 + 0.1 / (c - 1.3) if c > 1.3 else None, 1.5),
        # beaten below 1.4 and flat above it: the root is the edge of the beaten region
        (lambda c: 1.1 if c >= 1.4 else None, 1.4),
        # phi is exactly 0 at a float, and the table already holds at g(e)
        (lambda c: 1.3, 1.3),
        (lambda c: 1.75, 1.75),
        (lambda c: E, E),
        # kinked: phi's slope jumps from -2 to -1.6 at 1.25, right of the root 1.2
        (lambda c: max(2.4 - c, 1.9 - 0.6 * c), 1.2),
        # kinked at the root: steep to the left, nearly flat to the right
        (lambda c: 1.6 + 1e6 * (1.6 - c) if c < 1.6 else 1.6 - 1e-6 * (c - 1.6), 1.6),
    ], ids=["beaten-below", "beaten-edge", "zero-1.3", "zero-1.75", "zero-e", "kink",
            "kink-at-root"])
    def test_least_float_on_synthetic_tables(self, monkeypatch, g, constant):
        calls = counting_tables(monkeypatch, flat_table(g))
        c, rows, policies = extremal._best_constant(1)
        # a kink at the root costs more tables than the bisection's 57 (133 for the
        # last case), but the halved stale end keeps it far from a one-ulp crawl
        assert len(calls) <= 200
        below = math.nextafter(c, 0)
        assert g(c) <= c and (g(below) is None or g(below) > below)
        assert c == pytest.approx(constant, rel=1e-15)
        assert (rows, policies) == ([[g(c)] * (extremal.TYPES + 1)], [])
        assert (c, rows, policies) == bisected_constant(1)

    @pytest.mark.parametrize("g", [lambda c: None, lambda c: 3.0, lambda c: math.nan],
                             ids=["none", "above-e", "nan"])
    def test_beaten_at_e_raises(self, monkeypatch, g):
        monkeypatch.setattr(extremal, "_table", flat_table(g))
        with pytest.raises(ArithmeticError, match="beats e at height 1"):
            extremal._best_constant(1)


class TestProfiles:
    def test_sharp_profile_certifies(self):
        prof = exponential_profile()
        assert prof.constant == E
        assert prof.grid[0] == 0.0 and prof.grid[-1] == 1.0
        res = profile_residuals(prof)
        assert res.max_residual() <= 1e-12

    def test_size_violation(self):
        prof = exponential_profile()
        small = BoundProfile(prof.grid, prof.values, 2.0)
        res = profile_residuals(small)
        assert res.size == pytest.approx(E - 2.0, abs=1e-12)

    def test_negative_value_counts_as_size(self):
        res = profile_residuals(BoundProfile([0.0, 0.5, 1.0], [1.0, -0.5, 1.0], E))
        assert res.size >= 0.5
        assert res.log_convexity == math.inf

    def test_derivative_violation(self):
        grid = [k / 10 for k in range(11)]
        rising = BoundProfile(grid, [math.exp(m - 1.0) for m in grid], E)
        res = profile_residuals(rising)
        assert res.derivative == pytest.approx(E - 1.0 / E, abs=1e-12)

    def test_log_convexity_violation(self):
        grid = [k / 10 for k in range(11)]
        concave = BoundProfile(grid, [math.exp(-m * m) for m in grid], E)
        res = profile_residuals(concave)
        assert res.log_convexity > 0.0

    @pytest.mark.parametrize("grid, values, constant, what", [
        ([0.0, 0.5, 1.0], [math.nan] * 3, E, "value 0"),
        ([0.0, 0.5, 1.0], [1.0, math.inf, 1.0], E, "value 1"),
        ([0.0, math.nan, 1.0], [1.0] * 3, E, "grid point 1"),
        ([0.0, 0.5, 1.0], [1.0] * 3, math.nan, "constant"),
        ([0.0, 0.5, 1.0], [1.0] * 3, -math.inf, "constant"),
    ])
    def test_non_finite_profile_raises(self, grid, values, constant, what):
        # the builtin max drops NaN, so an unchecked NaN profile would read all zeros
        with pytest.raises(ValueError, match=f"profile {what}"):
            profile_residuals(BoundProfile(grid, values, constant))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            profile_residuals(BoundProfile([0.0, 1.0], [1.0], E))
        with pytest.raises(ValueError):
            profile_residuals(BoundProfile([0.0], [1.0], E))
        with pytest.raises(ValueError):
            profile_residuals(BoundProfile([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], E))
        # a grid past [0, 1] used to overflow exp(m) with a bare OverflowError
        with pytest.raises(ValueError, match=r"lie in \[0, 1\], got 0.0 to 800.0"):
            profile_residuals(BoundProfile([0.0, 800.0], [1.0, 1.0], 3.0))
        with pytest.raises(ValueError, match=r"got -0.5 to 1.0"):
            profile_residuals(BoundProfile([-0.5, 1.0], [1.0, 1.0], E))


class TestLowerBound:
    def test_frozen_value(self):
        b = lower_bound_certificate(0.01)
        assert b == pytest.approx(2.3965582669362173, abs=1e-12)
        assert b == pytest.approx(2.3966, abs=5e-4)

    def test_improves_as_eps_shrinks(self):
        assert (
            lower_bound_certificate(0.1)
            < lower_bound_certificate(0.01)
            < lower_bound_certificate(0.001)
        )

    def test_stays_below_e(self):
        for eps in (0.2, 0.1, 0.01, 1e-4, 1e-8):
            b = lower_bound_certificate(eps)
            assert 0.0 < b < E

    def test_approaches_e(self):
        gap = E - lower_bound_certificate(1e-8)
        assert 1.0e-6 < gap < 1.2e-6

    def test_domain(self):
        for bad in (0.0, 0.25, -0.1, 0.5):
            with pytest.raises(ValueError):
                lower_bound_certificate(bad)
