"""Float mode against exact mode on the same dyadic inputs.

Exact mode is the oracle: every function with both paths must give, on a
float copy of seeded dyadic data, the float of the exact result to 1e-12
relative to the largest value of the quantity or 1, whichever is larger
(the data is of order one, so exact zeros compare against that scale).
"""
import math
import random

import pytest

from dyuch import kernel
from dyuch.carleson import embedding_sum, random_balanced_measure
from dyuch.dyadic import (
    PiecewiseConstant,
    ratio,
    unit_root,
    window_root,
)
from dyuch.martingale import (
    DyadicAnalytic,
    analytic_projection,
    cr_residual,
    random_analytic,
    s0,
)
from interval_masses import measure_of
from kernel_reference import haar_coefficient


def _haar(f, mu):
    nodes = _nodes(f.root, f.depth - 1)
    return [*(haar_coefficient(f.u, J) for J in nodes), f.u.l2_norm2()]


def _projection(f, mu):
    flipped = PiecewiseConstant(f.v.leaves[::-1], f.root)
    p = analytic_projection(f.u, flipped)
    q = analytic_projection(f.v)
    return [*p.u.leaves, *p.v.leaves, *q.u.leaves, *q.v.leaves]


def _nodes(root, depth):
    return [root.descendant(r, j) for r in range(depth + 1) for j in range(1 << r)]


def _moments(f, mu):
    sums, den = f.moment_sums()
    return [ratio(s, den << (f.depth - r), f.exact) for r, row in enumerate(sums) for s in row]


def _scan(f, mu):
    scan = kernel.testing_scan(mu)
    return [scan.testing_constant, scan.min_packing_slack, scan.nodes_checked]


QUANTITIES = {
    "packing": lambda f, mu: [mu.packing_intensity(), mu.subtree_mass(mu.root)],
    "balance": lambda f, mu: [
        mu.balance_residual(),
        measure_of(dict(list(mu.masses.items())[:-1]), mu.root, mu.depth).balance_residual(),
    ],
    "embedding_sum": lambda f, mu: [embedding_sum(f, mu)],
    "s0": lambda f, mu: [*s0(f.u).leaves, *s0(f.v).leaves],
    "cr_residual": lambda f, mu: [cr_residual(f.u, f.v), cr_residual(f.u, s0(f.v))],
    "projection": _projection,
    "second_moment": _moments,
    "haar": _haar,
    "testing_scan": _scan,
}

CASES = [
    (depth, name, seed)
    for depth in (2, 4, 6)
    for name in ("unit", "window")
    for seed in (0, 1)
]


def _float_copy(f, mu):
    g = DyadicAnalytic(
        PiecewiseConstant([float(x) for x in f.u.leaves], f.root),
        PiecewiseConstant([float(x) for x in f.v.leaves], f.root),
        validate=False,
    )
    nu = measure_of({I: float(m) for I, m in mu.masses.items()}, mu.root, mu.depth)
    return g, nu


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
@pytest.mark.parametrize("depth, name, seed", CASES)
def test_float_mode_matches_exact(depth, name, seed, quantity):
    root = unit_root() if name == "unit" else window_root(1)
    rng = random.Random(700 + 10 * depth + seed)
    f = random_analytic(rng, depth, root)
    mu = random_balanced_measure(rng, depth, root)
    assert f.exact and mu.exact
    g, nu = _float_copy(f, mu)
    assert not g.exact and not nu.exact

    want = [float(x) for x in QUANTITIES[quantity](f, mu)]
    got = QUANTITIES[quantity](g, nu)
    assert len(got) == len(want)
    scale = max([abs(x) for x in want] + [1.0])
    for k, (x, y) in enumerate(zip(got, want)):
        assert type(x) in (float, int), (quantity, k, x)
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 * scale), (quantity, k, x, y)
