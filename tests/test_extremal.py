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
from dyuch.carleson import DiscreteMeasure, embedding_sum
from dyuch import extremal
from dyuch.dyadic import DyadicInterval, unit_root
from dyuch.extremal import (
    MAX_SEARCH_BUDGET,
    Configuration,
    _embed_state,
    _evaluate_state,
    _flat_state,
    _gaussians,
    _jitter_state,
    _measure_from_state,
    _pair_from_state,
    _random_state,
    _search_state,
    search,
)
from dyuch.martingale import DyadicAnalytic
from interval_masses import measure_of

E = math.e


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
        a = search(2, budget=60, seed=5, restarts=3)
        b = search(2, budget=60, seed=5, restarts=3)
        assert a.ratio == b.ratio
        assert a.f.u.leaves == b.f.u.leaves
        assert a.mu.masses == b.mu.masses

    def test_flat_floor(self):
        for depth in (2, 4):
            cfg = search(depth, budget=1, seed=0, restarts=1)
            assert cfg.ratio >= 1.0 - 1e-12

    def test_warm_start_invariant(self):
        deep = search(4, budget=200, seed=3, restarts=4)
        shallow = search(2, budget=100, seed=4, restarts=4)
        assert deep.ratio >= shallow.ratio - 1e-12

    @pytest.mark.parametrize("depth, budget, seed, restarts",
                             [(4, 200, 3, 4), (4, 800, 0, 6), (6, 800, 0, 6), (6, 300, 9, 2)])
    def test_never_below_its_warm_start(self, depth, budget, seed, restarts):
        warm = _embed_state(_search_state(depth - 2, budget // 2, seed + 1, restarts))
        floor = Configuration.build(_pair_from_state(warm), _measure_from_state(warm)).ratio
        assert search(depth, budget, seed, restarts).ratio >= floor

    def test_result_is_admissible(self):
        cfg = search(4, budget=80, seed=7, restarts=2)
        cfg.mu.require_balanced()
        assert float(cfg.mu.packing_intensity()) <= 1.0 + 1e-12
        assert cfg.ratio <= E + 1e-9

    def test_depth_validation(self):
        for bad in (0, 1, 3):
            with pytest.raises(ValueError):
                search(bad, budget=1)

    def test_knob_bounds(self):
        for budget in (-1, 0, MAX_SEARCH_BUDGET + 1):
            with pytest.raises(ValueError, match="budget"):
                search(2, budget=budget)
        for restarts in (-3, MAX_SEARCH_BUDGET + 1):
            with pytest.raises(ValueError, match="restarts"):
                search(2, budget=10, restarts=restarts)
        assert search(2, budget=1, restarts=0).ratio >= 1.0 - 1e-12

    @pytest.mark.parametrize("depth, budget, restarts, most", [
        (2, 1, 100_000, 2),  # 100,001 states when restarts alone set the work
        (8, 1, 5000, 10),  # 20,007
        (4, 1, 1, 6), (4, 5, 0, 14), (6, 10, 7, 26), (8, 33, 1000, 74), (6, 800, 6, 1606),
    ])
    def test_budget_caps_the_states_scored(self, monkeypatch, depth, budget, restarts, most):
        # each level scores at most its budget plus its one or two seed states, so a search
        # at most 2 * budget + depth (budget + 1 at depth 2, which has one level)
        scored = []
        real = extremal._evaluate_state
        monkeypatch.setattr(extremal, "_evaluate_state", lambda s: scored.append(None) or real(s))
        search(depth, budget=budget, restarts=restarts)
        assert len(scored) <= most

    @pytest.mark.parametrize(
        "args, ratio, support, pinned",
        [
            ((4, 200, 3), 1.1153104308029502, 19, "af43ac8ff156a3a4"),
            ((6, 300, 0), 1.1095968198201451, 5, "4524e498cb8413bf"),
            # the benchmark's seed-1 calls, and the deepest search the CLI allows
            ((6, 800, 1000), 1.143950571596901, 4, "ed21f9719224dea7"),
            ((6, 800, 1001), 1.124935475033036, 4, "be767daedfcbf316"),
            ((6, 800, 1002), 1.145322015294632, 3, "1fc9447dbab10902"),
            ((8, 800, 0), 1.088545530079711, 4, "d16e508283c820d8"),
        ],
    )
    def test_seeded_output_pinned(self, args, ratio, support, pinned):
        # pinned digest: sha256 of repr((ratio, u leaves, v leaves, masses in order))
        cfg = search(*args)
        assert cfg.ratio == ratio
        assert len(cfg.mu) == support
        items = [(I.id, m) for I, m in cfg.mu.masses.items()]
        state = (cfg.ratio, cfg.f.u.leaves, cfg.f.v.leaves, items)
        assert hashlib.sha256(repr(state).encode()).hexdigest()[:16] == pinned


def _reference_ratio(state):
    # the evaluation through the validated objects that search returns
    f = _pair_from_state(state)
    norm2 = float(f.norm2())
    if norm2 < 1e-15:
        return -math.inf
    mu = _measure_from_state(state)
    return float(embedding_sum(f, mu)) / norm2


def _edge_states(depth):
    flat = _flat_state(depth)
    rooted = dict(flat, meas=[[(1.0, 0.3, 0.7)]] + flat["meas"][1:])
    zero = dict(flat, u0=0.0, v0=0.0, incs=[[(0.0, 0.0)] * len(row) for row in flat["incs"]])
    rng = random.Random(depth)
    clamped = []
    for ax, ay in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)):
        state = _random_state(rng, depth)
        state["meas"] = [[(own, ax, ay) for own, _, _ in row] for row in state["meas"]]
        clamped.append(state)
    return [flat, rooted, zero, *clamped]


class TestEvaluator:
    """The flat evaluator agrees bit for bit with the object path."""

    @pytest.mark.parametrize("depth, count", [(2, 4000), (4, 3000), (6, 2000), (8, 1000)])
    def test_matches_objects(self, depth, count):
        rng = random.Random(9000 + depth)
        states = _edge_states(depth)
        while len(states) < count:
            state = _random_state(rng, depth)
            if depth > 2 and rng.random() < 0.2:
                state = _embed_state(_random_state(rng, depth - 2))
            states.append(state)
            # jitter chains, wide enough to clamp some splits at 0 and 1
            for step in (0.15, 0.15, 0.6):
                state = _jitter_state(rng, state, step)
                states.append(state)
        for state in states:
            got, want = _evaluate_state(state), _reference_ratio(state)
            assert got == want or (got == want == -math.inf), state

    def test_edge_states(self):
        for depth in (2, 4, 6, 8):
            flat, rooted, zero, *clamped = _edge_states(depth)
            assert _evaluate_state(flat) == _reference_ratio(flat) == 1.0
            assert _evaluate_state(zero) == -math.inf
            assert _evaluate_state(rooted) == _reference_ratio(rooted)
            assert len(_measure_from_state(rooted)) == 1
            for state in clamped:
                assert _evaluate_state(state) == _reference_ratio(state)

    def test_jitter_draws(self):
        # the same draws in the same order as the jitter with a clamp helper
        def clamp(x):
            return min(1.0, max(0.0, x))

        for seed in range(20):
            state = _random_state(random.Random(seed), 6)
            rng, replay = random.Random(seed), random.Random(seed)
            step = 0.15 if seed % 2 else 0.8
            incs = [[(dx + replay.gauss(0.0, step), dy + replay.gauss(0.0, step))
                     for dx, dy in row] for row in state["incs"]]
            meas = [[tuple(clamp(p + replay.gauss(0.0, step)) for p in params)
                     for params in row] for row in state["meas"]]
            want = {"u0": state["u0"] + replay.gauss(0.0, step),
                    "v0": state["v0"] + replay.gauss(0.0, step), "incs": incs, "meas": meas}
            assert _jitter_state(rng, state, step) == want
            # getstate holds gauss_next, the cached sine half a later random() cannot see
            assert rng.getstate() == replay.getstate()


class TestGaussians:
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("count", range(10))
    def test_same_draws_and_state_as_gauss(self, count, cached):
        for seed in range(5):
            rng, replay = random.Random(seed), random.Random(seed)
            if cached:  # one gauss call leaves its sine half in gauss_next
                rng.gauss(0.0, 1.0), replay.gauss(0.0, 1.0)
            sigma = 0.15 if seed % 2 else 2.5
            want = [replay.gauss(0.0, sigma) for _ in range(count)]
            assert _gaussians(rng, count, sigma) == want
            assert rng.getstate() == replay.getstate()
            assert (rng.gauss_next is None) == (cached == (count % 2 == 1))


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
