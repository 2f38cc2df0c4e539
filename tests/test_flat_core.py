"""Differential tests of the flat exact core against the dict-based reference.

Pairs and measures keep level arrays of numerators over one denominator;
the functions below are the interval-keyed loops they replaced, run on the
same inputs: pyramids of pairwise averages, closure sums walked up parent by
parent in support order, per-call second moments, and the telescoping and
Bellman-chain loops over intervals.  Exact results must be Fraction-equal
and float results bit-identical (compared by repr).
"""
import math
import random
from fractions import Fraction

import pytest

from dyuch import bellman
from dyuch.carleson import (
    bellman_chain_slacks,
    embedding_slack,
    embedding_sum,
    random_balanced_measure,
    telescoped_weighted_slack,
    weighted_embedding_slack,
)
from dyuch.dyadic import PiecewiseConstant, dyadic_length, ratio, unit_root, window_root
from dyuch.martingale import DyadicAnalytic, random_analytic
from interval_masses import measure_of

ROOTS = {"unit": unit_root(), "window1": window_root(1), "window2": window_root(2)}


# ------------------------------------------------------------------ reference


def ref_pyramid(leaves):
    levels = [tuple(leaves)]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        levels.append(tuple((cur[2 * j] + cur[2 * j + 1]) / 2 for j in range(len(cur) // 2)))
    return levels[::-1]


class RefPair:
    """Averages, increments and second moments the way the dict path read them."""

    def __init__(self, f):
        self.f = f
        self.root, self.depth = f.root, f.depth
        self.ul, self.vl = f.u.leaves, f.v.leaves
        self.up, self.vp = ref_pyramid(self.ul), ref_pyramid(self.vl)

    def pos(self, I):
        r = I.level - self.root.level
        return r, I.index - (self.root.index << r)

    def average(self, I):
        r, j = self.pos(I)
        return self.up[r][j], self.vp[r][j]

    def increments(self, I):
        r, j = self.pos(I)
        row = self.up[r + 2]
        return (row[4 * j + 3] - row[4 * j + 2]) / 2, (row[4 * j + 1] - row[4 * j]) / 2

    def second_moment(self, I):
        r, j = self.pos(I)
        span = self.depth - r
        lo, hi = j << span, (j + 1) << span
        ul, vl = self.ul, self.vl
        total = sum(ul[t] * ul[t] + vl[t] * vl[t] for t in range(lo, hi))
        return total / (1 << span)

    def norm2(self):
        meas = dyadic_length(self.root.level + self.depth)
        return sum(v * v for v in self.ul) * meas + sum(v * v for v in self.vl) * meas


def ref_sums(mu):
    zero = mu.zero
    sums = {}
    for I, m in mu.masses.items():
        J = I
        while True:
            sums[J] = sums.get(J, zero) + m
            if J == mu.root:
                break
            J = J.ancestor_at(J.level - 2)
    return sums


def ref_halves(sums, I, zero):
    ym, yp, xm, xp = (I.descendant(2, q) for q in range(4))
    return sums.get(ym, zero) + sums.get(yp, zero), sums.get(xm, zero) + sums.get(xp, zero)


def ref_balance(mu):
    sums, worst = ref_sums(mu), mu.zero
    for I in sums:
        left, right = ref_halves(sums, I, mu.zero)
        res = abs(right - left) / (2 * I.length)
        if res > worst:
            worst = res
    return worst


def ref_packing(mu):
    worst = mu.zero
    for I, s in ref_sums(mu).items():
        val = s / I.length
        if val > worst:
            worst = val
    return worst


def ref_subtree(mu, sums, I):
    return sums.get(I, mu.zero)


def ref_embedding_sum(p, mu, zero):
    total = zero
    for I, m in mu.masses.items():
        a, b = p.average(I)
        total += m * (a * a + b * b)
    return total


def ref_weighted(p, mu):
    sums, total = ref_sums(mu), 0.0
    for I, m in mu.masses.items():
        w = math.exp(-float(ref_subtree(mu, sums, I) / I.length))
        a, b = (float(x) for x in p.average(I))
        total += float(m) * w * (a * a + b * b)
    return float(p.norm2()) - total


def ref_telescoped(p, mu):
    sums = ref_sums(mu)

    def m_at(I):
        return -float(ref_subtree(mu, sums, I) / I.length)

    node_terms = {}
    for r in range(0, p.depth - 1, 2):
        for j in range(1 << r):
            I = p.root.descendant(r, j)
            dx, dy = p.increments(I)
            ym, yp, xm, xp = (I.descendant(2, q) for q in range(4))
            u, v = p.average(I)
            gap = bellman.laplacian_step_gap(
                m_at(I), float(mu.masses.get(I, mu.zero) / I.length),
                (m_at(xm), m_at(xp), m_at(ym), m_at(yp)),
                float(u), float(v), float(dx), float(dy),
            )
            node_terms[I] = float(I.length) * gap
    r0, i0 = (float(x) for x in p.average(p.root))
    root_term = float(p.root.length) * math.exp(m_at(p.root)) * (r0 * r0 + i0 * i0)
    leaf_terms = {}
    leaf_len = dyadic_length(p.root.level + p.depth)
    for j in range(1 << p.depth):
        J = p.root.descendant(p.depth, j)
        a, b = float(p.ul[j]), float(p.vl[j])
        w = math.exp(m_at(J))
        own = float(mu.masses.get(J, mu.zero))
        leaf_terms[J] = (a * a + b * b) * (float(leaf_len) * (1.0 - w) - own * w)
    return node_terms, root_term, leaf_terms


def ref_chain(p, mu):
    packing = ref_packing(mu)
    scaled = mu.scale(1 / packing) if packing > 1 else mu
    sums = ref_sums(scaled)

    def m_at(I):
        return float(ref_subtree(scaled, sums, I) / I.length)

    gaps = {}
    for r in range(0, p.depth - 1, 2):
        for j in range(1 << r):
            I = p.root.descendant(r, j)
            ym, yp, xm, xp = (I.descendant(2, q) for q in range(4))
            dx, dy = p.increments(I)
            u, v = p.average(I)
            gaps[I] = bellman.dynamics_gap(
                float(p.second_moment(I)), float(u), float(v), m_at(I),
                float(dx), float(dy), (m_at(xp) - m_at(xm)) / 2, (m_at(yp) - m_at(ym)) / 2,
                float(scaled.masses.get(I, scaled.zero) / I.length),
                tuple(float(p.second_moment(c)) for c in (xm, xp, ym, yp)),
            )
    return gaps


# ---------------------------------------------------------------------- cases


def as_float_pair(f):
    u = PiecewiseConstant([float(x) for x in f.u.leaves], f.root)
    v = PiecewiseConstant([float(x) for x in f.v.leaves], f.root)
    return DyadicAnalytic(u, v, validate=False)


def as_float_measure(mu):
    return measure_of({I: float(m) for I, m in mu.masses.items()}, mu.root, mu.depth)


def cases():
    out = []
    for depth in range(2, 11, 2):
        for name, root in ROOTS.items():
            if depth == 10 and name != "unit":
                continue
            out.append(pytest.param(depth, name, id=f"{depth}-{name}"))
    return out


def configs(depth, root):
    rng = random.Random(700 + depth)
    f = random_analytic(rng, depth, root)
    mu = random_balanced_measure(rng, depth, root)
    # a rescale to packing 3**-9 is by a non-dyadic factor
    drawn = random_balanced_measure(rng, depth, root)
    capped = drawn.scale(Fraction(1, 3**9) / drawn.packing_intensity())
    assert capped.packing_intensity() == Fraction(1, 3**9)
    big = mu.scale(3 / mu.packing_intensity())  # packing above 1: the chain rescales
    assert big.packing_intensity() == 3
    shallow = random_balanced_measure(rng, depth - 2, root)
    return f, {"balanced": mu, "capped": capped, "big": big, "shallow": shallow}


def same(a, b):
    return repr(a) == repr(b)


def by_interval(f, results):
    """Per-node results keyed by (r, j) below f.root, rekeyed by interval in order."""
    return {f.root.descendant(r, j): value for (r, j), value in results.items()}


@pytest.mark.parametrize("depth,name", cases())
def test_flat_core_matches_reference(depth, name):
    f, measures = configs(depth, ROOTS[name])
    for kind, mu in measures.items():
        for g, nu in ((f, mu), (as_float_pair(f), as_float_measure(mu))):
            p = RefPair(g)
            assert g.exact == nu.exact == (g is f)
            # exact values Fraction-equal in exact mode, bit-identical floats otherwise
            assert same(nu.packing_intensity(), ref_packing(nu)), kind
            assert same(nu.balance_residual(), ref_balance(nu)), kind
            sums = ref_sums(nu)
            for I, s in sums.items():
                assert same(nu.subtree_mass(I), s)
            assert same(embedding_sum(g, nu), ref_embedding_sum(p, nu, nu.zero))
            assert same(weighted_embedding_slack(g, nu), ref_weighted(p, nu))
            want = g.exact and nu.exact
            assert isinstance(embedding_sum(g, nu), Fraction) == want
            assert same(
                embedding_slack(g, nu),
                math.e * float(ref_packing(nu)) * float(p.norm2())
                - float(ref_embedding_sum(p, nu, nu.zero)),
            )
            nodes = [g.root.descendant(r, j) for r in range(depth + 1) for j in range(1 << r)]
            sums, den = g.moment_sums()
            moments = [ratio(s, den << (depth - r), g.exact)
                       for r, row in enumerate(sums) for s in row]
            assert same(moments, [p.second_moment(I) for I in nodes])
            if kind != "shallow":
                deco = telescoped_weighted_slack(g, nu)
                node_terms, root_term, leaf_terms = ref_telescoped(p, nu)
                assert same(by_interval(g, deco.node_terms), node_terms)
                assert same(deco.root_term, root_term)
                assert same(by_interval(g, deco.leaf_terms), leaf_terms)
                assert same(deco.slack, ref_weighted(p, nu))
            assert same(by_interval(g, bellman_chain_slacks(g, nu)), ref_chain(p, nu)), kind


def test_reference_sees_a_changed_core():
    # the comparison is not vacuous: mass added below the root changes the
    # balance, the packing and the embedding sum, and the reference follows
    f, measures = configs(4, unit_root())
    mu = measures["balanced"]
    I = next(J for J in mu.masses if J.level == 2)
    masses = dict(mu.masses)
    masses[I] += Fraction(1, 2)
    nu = measure_of(masses, mu.root, mu.depth)
    assert nu.balance_residual() == ref_balance(nu) != mu.balance_residual()
    assert nu.packing_intensity() == ref_packing(nu) != mu.packing_intensity()
    assert embedding_sum(f, nu) == ref_embedding_sum(RefPair(f), nu, nu.zero)
    assert embedding_sum(f, nu) != embedding_sum(f, mu)


def test_measure_arrays_are_numerators_over_one_denominator():
    f, measures = configs(6, window_root(1))
    mu = measures["capped"]
    assert mu.exact and isinstance(mu.den, int)
    assert all(type(m) is int for m in mu.own.values())
    assert all(type(s) is int for level in mu.sums for s in level.values())
    for (r, j), m in mu.own.items():
        assert Fraction(m, mu.den) == mu.masses[mu.root.descendant(r, j)]
    assert all(type(n) is int for n in f.u.nums) and isinstance(f.u.den, int)
    assert all(type(p) is int for row in f.u.pyramid() for p in row)
    fl = as_float_measure(mu)
    assert fl.den == 1 and all(type(m) is float for m in fl.own.values())
