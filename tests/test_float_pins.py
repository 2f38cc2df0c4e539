"""Float outputs on non-dyadic inputs, pinned by sha256.

The seeded generators draw dyadic data, on which every float operation is
exact, so pins taken there cannot see a change in rounding order.  These
inputs are not dyadic: pair leaves times 1/3 and times pi, masses divided by
pi, and pairs projected from random.uniform trees.  Each digest covers s0,
both projections, moment_sums, cr_residual, embedding_sum, the weighted
slack, the telescoping terms, the chain gaps, testing_scan and both
supermartingale pairings, all compared by repr (bit for bit).
"""
import hashlib
import math
import random

import pytest

from dyuch import kernel
from dyuch.carleson import (
    bellman_chain_slacks,
    embedding_sum,
    random_balanced_measure,
    telescoped_weighted_slack,
    weighted_embedding_slack,
)
from dyuch.dyadic import PiecewiseConstant, unit_root, window_root
from dyuch.martingale import (
    DyadicAnalytic,
    analytic_projection,
    cr_residual,
    random_analytic,
    s0,
)
from interval_masses import measure_of, pairing_rows

ROOTS = {"unit": unit_root(), "window": window_root(1)}


def _scaled_pair(f, c):
    u = PiecewiseConstant([float(x) * c for x in f.u.leaves], f.root)
    v = PiecewiseConstant([float(x) * c for x in f.v.leaves], f.root)
    return DyadicAnalytic(u, v)


def _uniform_pair(rng, depth, root):
    re, im = (PiecewiseConstant([rng.uniform(-2.0, 2.0) for _ in range(1 << depth)], root)
              for _ in range(2))
    return analytic_projection(re, im)


def inputs(kind, depth, root):
    """(pair, measure) of one non-dyadic kind, seeded by kind and depth."""
    rng = random.Random(f"{kind}-{depth}")
    f = random_analytic(rng, depth, root)
    mu = random_balanced_measure(rng, depth, root)
    over_pi = measure_of({I: float(m) / math.pi for I, m in mu.masses.items()}, root, depth)
    if kind == "third":  # float leaves against the exact measure
        return _scaled_pair(f, 1 / 3), mu
    if kind == "pi":
        return _scaled_pair(f, math.pi), over_pi
    return _uniform_pair(rng, depth, root), over_pi


def outputs(f, mu):
    flipped = PiecewiseConstant(f.v.leaves[::-1], f.root)
    one, two = analytic_projection(f.u), analytic_projection(f.u, flipped)
    deco = telescoped_weighted_slack(f, mu)
    scan = kernel.testing_scan(mu)
    at = f.root.descendant  # ids from the (r, j) keys and rows
    pairings = [sorted((at(2 * k, j).id, v) for k, row in enumerate(pairing_rows(mu, flip))
                       for j, v in enumerate(row))
                for flip in (1, -1)]
    return (
        s0(f.u).leaves, s0(f.v).leaves,
        one.u.leaves, one.v.leaves, two.u.leaves, two.v.leaves,
        f.moment_sums(), cr_residual(f.u, f.v),
        embedding_sum(f, mu), weighted_embedding_slack(f, mu),
        deco.slack, deco.root_term,
        [(at(*n).id, t) for n, t in deco.node_terms.items()],
        [(at(*n).id, t) for n, t in deco.leaf_terms.items()],
        [(at(*n).id, g) for n, g in bellman_chain_slacks(f, mu).items()],
        (scan.testing_constant, scan.worst_testing_node.id, scan.min_packing_slack,
         scan.worst_packing_node.id, scan.nodes_checked),
        pairings,
    )


def digest(kind, depth, name):
    f, mu = inputs(kind, depth, ROOTS[name])
    return hashlib.sha256(repr(outputs(f, mu)).encode()).hexdigest()[:16]


CASES = [(kind, depth, name) for kind in ("third", "pi", "uniform")
         for depth in (2, 4, 6, 8) for name in ROOTS]

# digest(kind, depth, name) for every case; a change here means some float
# result changed, most likely by a change in rounding order.
PINNED = {
    ('third', 2, 'unit'): "5293336466a50a98",
    ('third', 2, 'window'): "cdd74b25f1f7ad64",
    ('third', 4, 'unit'): "8ef7c5e354ab2750",
    ('third', 4, 'window'): "5d5fb209c770d002",
    ('third', 6, 'unit'): "89bb93ce9fc77085",
    ('third', 6, 'window'): "1c1bd778f69bf788",
    ('third', 8, 'unit'): "9368215a771264ee",
    ('third', 8, 'window'): "7436b736f6c6e6ac",
    ('pi', 2, 'unit'): "9f87114e16a2e7e8",
    ('pi', 2, 'window'): "6c85d94eb8ef5995",
    ('pi', 4, 'unit'): "b6b10edad5c51a4a",
    ('pi', 4, 'window'): "f49885366200ff79",
    ('pi', 6, 'unit'): "6bd4aed77fedf457",
    ('pi', 6, 'window'): "e2f66284b0e72213",
    ('pi', 8, 'unit'): "23b5d48182b199ab",
    ('pi', 8, 'window'): "f25035c65626fe61",
    ('uniform', 2, 'unit'): "675ab7b8d4d30417",
    ('uniform', 2, 'window'): "71d536e4d4c0f122",
    ('uniform', 4, 'unit'): "2451c9847cc6ff8f",
    ('uniform', 4, 'window'): "8d84f02edd6bdaad",
    ('uniform', 6, 'unit'): "abf3a7ed28c10289",
    ('uniform', 6, 'window'): "da49020590cff960",
    ('uniform', 8, 'unit'): "19f1368a1efd6a80",
    ('uniform', 8, 'window'): "16e97de5c0cf4f2b",
}


@pytest.mark.parametrize("kind, depth, name", CASES)
def test_non_dyadic_float_outputs_pinned(kind, depth, name):
    assert digest(kind, depth, name) == PINNED[(kind, depth, name)]


def test_inputs_are_not_dyadic():
    for kind in ("third", "pi", "uniform"):
        f, mu = inputs(kind, 4, unit_root())
        assert not f.exact
        dens = {float(x).as_integer_ratio()[1] for x in f.u.leaves}
        assert max(dens) > 1 << 20, kind
