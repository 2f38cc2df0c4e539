"""Reproducing kernels of the discrete Hardy space.

The kernel of a 4-adic interval I lives on the odd ancestors of I: one real
Haar coefficient per ancestor and one matching imaginary coefficient on the
ancestor's sibling, so the kernel is itself a conjugate pair.  Pairing a
conjugate pair against the kernel recovers its averaged value on I.  The
testing half of the module turns kernel evaluations into a measure quality
gauge: packing intensity never exceeds three times the worst kernel test.

Testing sums have a closed form.  Let I sit at level l, let r be the tree
root's level, write lim = 2**l / 3 and acc(a) = 1/2 * sum of 2**j over the
levels r < j < a with j - r odd.  A mass at K then contributes

* lim when K lies inside I;
* acc(k)**2 / lim when K is a strict ancestor of I at level k;
* when K leaves I's path at common-ancestor level a (so K sits below the
  sibling of I's ancestor at level a + 1): (acc(a)**2 + 4**a) / lim when
  a - r is even, (acc(a) - 2**(a - 1))**2 / lim when it is odd.

So the sum at I is one walk down its path over subtree masses, O(depth) per
node, and all N nodes of a measure tree take one top-down pass (at most
O(N * depth)) in which each node extends its parent's walk by one level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .dyadic import UNIT, DyadicInterval, haar_inner_indicator
from .martingale import DyadicAnalytic
from .bellman import E
from .carleson import DiscreteMeasure, embedding_sum


class KernelNorm(NamedTuple):
    value: Fraction
    limit: Fraction


@dataclass
class KernelRep:
    """Kernel of an interval, stored by Haar coefficients.

    real_coeffs sit on the odd ancestors of the interval, imag_coeffs on
    their siblings; the constant carries the mean term and is 1 on the unit
    base, 0 on a truncated window.
    """

    interval: DyadicInterval
    height: int
    real_coeffs: dict
    imag_coeffs: dict
    constant: float

    def evaluate(self, K: DyadicInterval) -> complex:
        """Averaged kernel value over K, as a complex number."""
        re = self.constant
        im = 0.0
        for J, c in self.real_coeffs.items():
            re += c * haar_inner_indicator(K, J)
        for J, c in self.imag_coeffs.items():
            im += c * haar_inner_indicator(K, J)
        return complex(re, im)


def reproducing_kernel(I: DyadicInterval, height: int) -> KernelRep:
    """Kernel of I using its nearest `height` odd ancestors."""
    if not I.is_four_adic:
        raise ValueError(f"{I.id} is not 4-adic; kernels attach to even levels")
    avail = (I.level - I.root_level) // 2
    if height < 0:
        raise ValueError("height must be nonnegative")
    if height > avail:
        raise ValueError(f"kernel height {height} needs more odd ancestors than the"
                         f" {avail} available above {I.id}")
    real, imag = {}, {}
    for k in range(height):
        J = I.ancestor_at(I.level - 1 - 2 * k)
        c = 0.5 * haar_inner_indicator(I, J)
        real[J] = c
        imag[J.sibling()] = J.sigma() * c
    constant = 1.0 if I.base == UNIT else 0.0
    return KernelRep(I, height, real, imag, constant)


def kernel_norm2(I: DyadicInterval, height: int) -> KernelNorm:
    """Squared norm of the mean-free kernel part, with its full-height limit.

    Exact geometric value (1 - 4**-height) / (3 |I|); the limit 1 / (3 |I|) of an
    untruncated ancestor tower exceeds it by the norm lost to the truncation.
    Pure arithmetic, no availability requirement; height must be nonnegative.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    limit = Fraction(1, 3) / I.length
    value = limit * (1 - Fraction(1, 4) ** height)
    return KernelNorm(value, limit)


@lru_cache(maxsize=None)
def _full_height_kernel(I: DyadicInterval) -> KernelRep:
    return replace(reproducing_kernel(I, (I.level - I.root_level) // 2), constant=0.0)


@lru_cache(maxsize=None)
def normalized_testing_value(I: DyadicInterval, K: DyadicInterval) -> float:
    """Squared modulus at K of the unit-norm mean-free kernel of I.

    The pairwise reference for the closed form of `testing_sum`, one kernel
    evaluation per pair.  Inside I the kernel is constant and
    self-reproducing, so the value is pinned to the exact limit 1 / (3 |I|);
    outside, the deepest available truncation is evaluated and normalized
    against the same limit.
    """
    if not I.is_four_adic or not K.is_four_adic:
        raise ValueError("testing values attach to 4-adic intervals")
    limit = Fraction(1, 3) / I.length
    if I.contains(K):
        return float(limit)
    z = _full_height_kernel(I).evaluate(K)
    return (z.real * z.real + z.imag * z.imag) / float(limit)


def _quarter_paths(mu: DiscreteMeasure, node):
    """The (k, index, subtree mass, path term) entries of the four quarters
    of node = (k, j, mass, path), node (2k, j) below the measure root; masses
    are numerators over mu.den.

    A node's path term is lim times the part of its testing sum that comes
    from masses outside it.  A quarter's term is the node's term plus the
    masses of the node itself, of its far half and of the quarter's sibling,
    each times its closed-form weight at the node's level a (acc(a) =
    (2**a - 2**r) / 3).
    """
    k, j, _, path = node
    below = mu.sums[k + 1] if k + 1 < len(mu.sums) else {}
    step = 2.0 ** (mu.root.level + 2 * k)
    acc = (step - 2.0 ** mu.root.root_level) / 3
    s = [below.get(4 * j + q, 0) for q in range(4)]
    path += mu.own.get((2 * k, j), 0) / mu.den * acc * acc
    far, near = acc * acc + step * step, (acc - step) ** 2
    return [
        (k + 1, 4 * j + q, s[q],
         path + (s[q ^ 2] + s[q ^ 3]) / mu.den * far + s[q ^ 1] / mu.den * near)
        for q in range(4)
    ]


def _testing_value(level: int, mass: float, path: float) -> float:
    lim = 2.0 ** level / 3
    return lim * mass + path / lim


def testing_sum(mu: DiscreteMeasure, I: DyadicInterval) -> float:
    """Measure mass seen through the normalized kernel of I.

    Closed form of the module docstring, in one walk from the measure root
    down to I: at each 4-adic ancestor A on the way, A's own mass, the mass
    of A's far half and the mass of the sibling of I's ancestor two levels
    down enter with their weights.  No mass sits above the measure root, so
    the walk starts there; I must be that root or lie below it.
    """
    root = mu.root
    if not I.is_four_adic or not root.contains(I):
        raise ValueError(f"{I.id} is not a 4-adic node below the measure root {root.id}")
    node = (0, 0, mu.sums[0].get(0, 0), 0.0)
    for a in range(root.level, I.level, 2):
        node = _quarter_paths(mu, node)[(I.index >> (I.level - a - 2)) & 3]
    return _testing_value(I.level, node[2] / mu.den, node[3])


class TestingReport(NamedTuple):
    testing_sum: float
    subtree_packing: float
    packing_bound: float
    slack: float


def testing_to_packing(mu: DiscreteMeasure, I: DyadicInterval) -> TestingReport:
    """Packing control at one node: S(I)/|I| is at most three kernel tests.

    The kernel of I is flat at height 1/(3|I|) on its own subtree, so the
    subtree mass alone already contributes a third of the packing ratio.
    """
    packing, t = float(mu.subtree_mass(I) / I.length), testing_sum(mu, I)
    return TestingReport(t, packing, 3.0 * t, 3.0 * t - packing)


class TestingScan(NamedTuple):
    """Worst kernel test and worst packing slack over a measure tree."""

    testing_constant: float
    worst_testing_node: DyadicInterval
    min_packing_slack: float
    worst_packing_node: DyadicInterval
    nodes_checked: int


def testing_scan(mu: DiscreteMeasure) -> TestingScan:
    """Kernel tests and packing slacks of all 4-adic nodes in one pass.

    Goes down the tree level by level on (k, j) rows, so each node extends
    its parent's path term once, and builds intervals only for the two
    reported nodes.  Ties go to the first node in order level by level,
    index ascending; a NaN wins its reduction and sticks, so it can never
    hide behind a finite value.  The scan is kept on the measure, like its
    packing and balance.
    """
    if "testing" in mu._cache:
        return mu._cache["testing"]
    worst_t, worst_s = -math.inf, math.inf
    node_t = node_s = None
    n = 0
    nodes = [(0, 0, mu.sums[0].get(0, 0), 0.0)]
    for k in range(mu.depth // 2 + 1):
        if k:
            nodes = [q for node in nodes for q in _quarter_paths(mu, node)]
        level = mu.root.level + 2 * k
        for _, j, mass, path in nodes:
            t = _testing_value(level, mass / mu.den, path)
            slack = 3.0 * t - mu.float_density(mass, level)
            if worst_t == worst_t and not t <= worst_t:
                worst_t, node_t = t, (2 * k, j)
            if worst_s == worst_s and not slack >= worst_s:
                worst_s, node_s = slack, (2 * k, j)
        n += len(nodes)
    at = mu.root.descendant
    scan = mu._cache["testing"] = TestingScan(worst_t, at(*node_t), worst_s, at(*node_s), n)
    return scan


def testing_constant(mu: DiscreteMeasure) -> float:
    """Worst kernel test over all 4-adic nodes of the measure tree."""
    return testing_scan(mu).testing_constant


def testing_embedding_slack(f: DyadicAnalytic, mu: DiscreteMeasure) -> float:
    """Slack of the embedding bound run with 3e times the testing constant."""
    bound = 3.0 * E * testing_constant(mu) * float(f.norm2())
    return bound - float(embedding_sum(f, mu))
