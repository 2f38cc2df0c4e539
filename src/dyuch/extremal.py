"""Sharpness side of the embedding bound.

Everything here chases the constant from below: admissible configurations
and the exact finite-depth recursion for the best ratio at a given depth,
with a builder that turns the recursion's choices into one configuration.
The closed-form certificate that the constant cannot be improved lives in
bellman, beside the value function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bellman import E
from .dyadic import DEFAULT_TOL, unit_root
from .martingale import DyadicAnalytic, _sliced_from_increments, s0
from .carleson import DiscreteMeasure, embedding_slack, embedding_sum

SLACK_TOL = 1e-9
TYPES = 4  # the recursion's subtree densities are k / TYPES for k = 0..TYPES


@dataclass
class Configuration:
    """Admissible measure and pair, with the ratio they certify.

    ratio is the embedding sum over the squared norm; with the packing
    intensity capped at one, the theorem pins it below e, and the search
    drives it upward.
    """

    f: DyadicAnalytic
    mu: DiscreteMeasure
    ratio: float

    @classmethod
    def build(cls, f: DyadicAnalytic, mu: DiscreteMeasure) -> "Configuration":
        mu.require_balanced()
        packing = float(mu.packing_intensity())
        if not packing <= 1.0 + DEFAULT_TOL:
            raise ValueError(f"packing intensity {packing:.6g} exceeds the unit cap")
        norm2 = float(f.norm2())
        if not norm2 > 0.0:
            raise ValueError("the zero pair certifies nothing")
        slack = embedding_slack(f, mu)
        if not slack >= -SLACK_TOL:
            raise ValueError(f"embedding bound violated (slack {slack:.3g})")
        ratio = float(embedding_sum(f, mu)) / norm2
        if not ratio <= E + DEFAULT_TOL:
            raise ValueError(f"ratio {ratio:.6g} exceeds e; configuration is invalid")
        return cls(f, mu, ratio)


# The recursion.  A node of type k has subtree density k / TYPES.  It keeps own
# density m / TYPES and gives its quarters 4j .. 4j + 3 the types
# (a - s, a + s, a - t, a + t), a = k - m, so each of its halves holds the same mass
# and no density passes one.  Its pair values are f + (-z, z, iz, -iz), z = dy + i dx.
# Fix c; the best of S - c * sum |J| |z_J|^2 over a subtree of height h with average
# f is |I| |f|^2 g_h(k), g_0(k) = k / TYPES, and with g the quarters' g_{h-1},
# G = g0 + g1 + g2 + g3, A = c - G / 4 and w = (g1 - g0) + i (g2 - g3):
#   g_h(k) = max over (m, s, t) of m / TYPES + G / 4 + |w|^2 / (16 A),
# reached at z = conj(w) f / (4 A).  An A <= 0 makes the sup infinite: c is beaten.
# g_h falls as c rises, so the table holds (g_h(TYPES) <= c) above C(2h) and not below.


def _quarters(g, a, s, t):
    """G and w = (wr, wi) of quarters of types (a - s, a + s, a - t, a + t) under g."""
    g0, g1, g2, g3 = g[a - s], g[a + s], g[a - t], g[a + t]
    return g0 + g1 + g2 + g3, g1 - g0, g2 - g3


def _step(g, c):
    """(g_h, policy) from g = g_{h-1} at c, policy[k] = (m, s, t); None if c is beaten."""
    best = []  # per a: the quarters' best value and its (s, t)
    for a in range(TYPES + 1):
        top = None
        for s in range(min(a, TYPES - a) + 1):
            for t in range(min(a, TYPES - a) + 1):
                G, wr, wi = _quarters(g, a, s, t)
                A = c - G / 4
                if not A > 0:
                    return None
                value = G / 4 + (wr * wr + wi * wi) / (16 * A)
                if top is None or value > top[0]:
                    top = (value, s, t)
        best.append(top)
    row, policy = [], []
    for k in range(TYPES + 1):
        value, m = max((m / TYPES + best[k - m][0], m) for m in range(k + 1))
        row.append(value)
        policy.append((m, *best[k - m][1:]))
    return row, policy


def _table(height: int, c: float):
    """(rows g_0 .. g_height, the policy of each step up) at c, or None if c is beaten."""
    rows, policies = [[k / TYPES for k in range(TYPES + 1)]], []
    for _ in range(height):
        step = _step(rows[-1], c)
        if step is None:
            return None
        rows.append(step[0])
        policies.append(step[1])
    return rows, policies


def _best_constant(height: int):
    """(c, rows, policies) at C = inf{c : g_height(TYPES; c) <= c}, the least float c
    where the table holds: Illinois regula falsi on phi(c) = g_height(TYPES; c) - c
    in [1, e], phi = inf where c is beaten, whose first trial is g_height(TYPES; e)."""
    table = _table(height, E)
    if table is None or not table[0][-1][TYPES] <= E:
        raise ArithmeticError(f"the recursion beats e at height {height}")
    lo, flo, hi, fhi, side = 1.0, math.inf, E, table[0][-1][TYPES] - E, 0
    c = E + fhi
    while math.nextafter(lo, hi) < hi:
        c = min(max(c, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        trial = _table(height, c)
        fc = math.inf if trial is None else trial[0][-1][TYPES] - c
        if fc <= 0:
            hi, fhi, table = c, fc, trial
            flo /= 2 if side < 0 else 1  # Illinois: halve the end kept twice
            side = -1
        else:
            lo, flo = c, fc
            fhi /= 2 if side > 0 else 1
            side = 1
        c = hi - fhi * (hi - lo) / (fhi - flo) if flo < math.inf else (lo + hi) / 2
    return (hi, *table)


def _build(depth: int, c: float, rows, policies) -> Configuration:
    """The configuration that follows the policies from a root of type TYPES and
    value f = 1, top down; Configuration.build validates it."""
    nodes, masses, incs = [], [], []
    level = [(1.0, 0.0, TYPES)]  # (u, v, type) of each node, left to right
    for r in range(0, depth, 2):
        below_height = (depth - r) // 2 - 1
        g, policy = rows[below_height], policies[below_height]
        row, below = [], []
        for j, (u, v, k) in enumerate(level):
            m, s, t = policy[k]
            a = k - m
            G, wr, wi = _quarters(g, a, s, t)
            A4 = 4 * (c - G / 4)
            zr, zi = (wr * u + wi * v) / A4, (wr * v - wi * u) / A4
            row.append((zi, zr))  # (dx, dy)
            below += ((u - zr, v - zi, a - s), (u + zr, v + zi, a + s),
                      (u - zi, v + zr, a - t), (u + zi, v - zr, a + t))
            nodes.append((r, j))
            masses.append(m / TYPES * 2.0 ** -r)
        incs.append(row)
        level = below
    for j, (_, _, k) in enumerate(level):  # bottom nodes keep their whole density
        nodes.append((depth, j))
        masses.append(k / TYPES * 2.0 ** -depth)
    u = _sliced_from_increments(1.0, incs)
    f = DyadicAnalytic(u, s0(u), validate=False)
    return Configuration.build(f, DiscreteMeasure(unit_root(), depth, nodes, masses))


def search(depth: int, budget=None, seed=None) -> Configuration:
    """The best configuration at the given depth with subtree densities k / TYPES.

    Its ratio is the recursion's constant C(depth), which rises with depth
    (1.1830, 1.3063, 1.3959 and 1.4639 at depths 2 to 8; (3 + sqrt 3) / 4 at
    depth 2) and stays below e.  budget and seed are accepted for older
    callers and ignored: every call at a depth returns the same
    configuration, bit for bit, and no float total goes through the builtin
    sum(), which compensates rounding from Python 3.12 on.
    """
    if depth < 2 or depth % 2:
        raise ValueError("depth must be an even number at least 2")
    return _build(depth, *_best_constant(depth // 2))
