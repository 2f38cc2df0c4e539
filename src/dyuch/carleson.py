"""Balanced discrete measures and their paired supermartingales.

A measure here is a nonnegative mass per 4-adic node.  It is *balanced* when
the two halves of every 4-adic interval carry equal subtree mass; balanced
measures are exactly the ones whose normalized subtree mass S(I)/|I| runs as
a sliced super- or submartingale along 4-adic generations, and that pairing
is the engine behind the weighted embedding bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (
    DEFAULT_TOL,
    DyadicInterval,
    as_numbers,
    dyadic_length,
    interval_from_id,
    json_number,
    root_from_json,
    root_to_json,
    unit_root,
    zero,
)
from .martingale import DyadicAnalytic
from . import bellman

E = math.e

SUPERMARTINGALE_NONNEG = "supermartingale_nonneg"
SUBMARTINGALE_NONPOS = "submartingale_nonpos"


class DiscreteMeasure:
    """Sparse nonnegative masses on the 4-adic nodes below a 4-adic root.

    Integer and Fraction masses keep every derived quantity (subtree sums,
    balance residual, packing intensity) exact; a float mass switches the
    measure to doubles.  Zero masses are dropped on construction.
    """

    __slots__ = ("masses", "root", "depth", "exact", "zero", "_sums")

    def __init__(self, masses, root: DyadicInterval | None = None, depth: int | None = None):
        root = root if root is not None else unit_root()
        if not root.is_four_adic:
            raise ValueError("measure root must be 4-adic")
        vals = dict(masses)
        numbers, exact = as_numbers(vals.values(), "mass")
        clean = {}
        max_rel = 0
        for I, m in zip(vals, numbers):
            if not isinstance(I, DyadicInterval):
                raise ValueError(f"measure keys must be intervals, got {I!r}")
            if not I.is_four_adic:
                raise ValueError(f"{I.id} is not 4-adic")
            if not root.contains(I):
                raise ValueError(f"{I.id} lies outside the measure root {root.id}")
            if m < 0:
                raise ValueError(f"mass {float(m):.6g} at {I.id} is negative")
            if m == 0:
                continue
            clean[I] = m
            max_rel = max(max_rel, I.level - root.level)
        if depth is None:
            depth = max_rel
        else:
            if depth % 2 or depth < max_rel:
                raise ValueError(f"depth {depth} cannot hold support down to {max_rel}")
        self.masses = clean
        self.root = root
        self.depth = depth
        self.exact = exact
        self.zero = zero(exact)
        self._sums = None

    def items(self):
        """Support nodes with masses, sorted by (level, index)."""
        return sorted(self.masses.items(), key=lambda kv: (kv[0].level, kv[0].index))

    def __len__(self):
        return len(self.masses)

    def mass(self, I: DyadicInterval):
        return self.masses.get(I, self.zero)

    def total_mass(self):
        return sum(self.masses.values(), self.zero)

    def _closure_sums(self):
        # subtree mass at every 4-adic ancestor of the support
        if self._sums is None:
            sums = {}
            for I, m in self.masses.items():
                J = I
                while True:
                    sums[J] = sums.get(J, self.zero) + m
                    if J == self.root:
                        break
                    J = J.parent().parent()
            self._sums = sums
        return self._sums

    def subtree_mass(self, I: DyadicInterval):
        """Total mass on 4-adic nodes inside I (I itself included)."""
        if not I.is_four_adic:
            raise ValueError(f"{I.id} is not 4-adic")
        s = self._closure_sums().get(I)
        if s is not None:
            return s
        if I.level < self.root.level and I.contains(self.root):
            return self.total_mass()
        return self.zero

    def half_subtree_masses(self, I: DyadicInterval):
        """Masses strictly inside the left and right halves of a 4-adic I."""
        sums = self._closure_sums()
        ym, yp, xm, xp = I.grandchildren()
        z = self.zero
        return (
            sums.get(ym, z) + sums.get(yp, z),
            sums.get(xm, z) + sums.get(xp, z),
        )

    def balance_residual(self):
        """Worst half-mass mismatch |S(right) - S(left)| / (2|I|) over all nodes."""
        worst = self.zero
        for I in self._closure_sums():
            left, right = self.half_subtree_masses(I)
            res = abs(right - left) / (2 * I.length)
            if res > worst:
                worst = res
        return worst

    def is_balanced(self, tol=DEFAULT_TOL) -> bool:
        return self.balance_residual() <= tol

    def packing_intensity(self):
        """Largest normalized subtree mass S(I)/|I| over the support closure."""
        worst = self.zero
        for I, s in self._closure_sums().items():
            val = s / I.length
            if val > worst:
                worst = val
        return worst

    def scale(self, c) -> "DiscreteMeasure":
        return DiscreteMeasure(
            {I: c * m for I, m in self.masses.items()}, self.root, self.depth
        )

    def __repr__(self):
        return (
            f"DiscreteMeasure(support={len(self.masses)}, depth={self.depth},"
            f" root={self.root.id})"
        )


def measure_to_json(mu: DiscreteMeasure) -> dict:
    masses = {I.id: json_number(m) for I, m in mu.items()}
    return root_to_json(mu.root, depth=mu.depth, masses=masses)


def measure_from_json(obj: dict) -> DiscreteMeasure:
    if not isinstance(obj, dict) or "masses" not in obj:
        raise ValueError("measure object must carry a masses table")
    root, depth = root_from_json(obj)
    if not isinstance(obj["masses"], dict):
        raise ValueError("masses must be an object of node ids")
    masses = {
        interval_from_id(key, root.base, root.ancestor_levels): m
        for key, m in obj["masses"].items()
    }
    return DiscreteMeasure(masses, root, depth)


class SlicedSuperMartingale:
    """Normalized subtree masses of a balanced measure, run as a process.

    Carries one value per 4-adic node down to the stated depth, with
    implicit zero values below; as_numbers sets the mode and rejects NaN,
    infinite and non-numeric values.  Validation enforces the sign convention,
    the equal-pair-sum property inherited from balance, and the one-sided
    drift (nonincreasing means for the nonnegative branch, nondecreasing
    for the nonpositive one).
    """

    __slots__ = ("values", "root", "depth", "sign", "exact")

    def __init__(self, values, root, depth, sign, validate=True, tol=DEFAULT_TOL):
        if sign not in (SUPERMARTINGALE_NONNEG, SUBMARTINGALE_NONPOS):
            raise ValueError(f"unknown sign convention {sign!r}")
        if depth % 2:
            raise ValueError("depth must be even")
        vals = dict(values)
        numbers, exact = as_numbers(vals.values(), "value")
        vals = dict(zip(vals, numbers))
        for r in range(0, depth + 1, 2):
            for j in range(1 << r):
                node = root.descendant(r, j)
                if node not in vals:
                    raise ValueError(f"missing value at {node.id}")
        self.values = vals
        self.root = root
        self.depth = depth
        self.sign = sign
        self.exact = exact
        if validate:
            self._check(tol if not exact else 0)

    def _check(self, tol):
        flip = 1 if self.sign == SUPERMARTINGALE_NONNEG else -1
        for r in range(0, self.depth + 1, 2):
            for j in range(1 << r):
                I = self.root.descendant(r, j)
                if flip * self.values[I] < -tol:
                    raise ValueError(f"value at {I.id} breaks the sign convention")
                if r + 2 > self.depth:
                    continue
                ym, yp, xm, xp = (self.values[c] for c in I.grandchildren())
                if abs((xm + xp) - (ym + yp)) > 2 * tol:
                    raise ValueError(f"half subtree pair sums differ below {I.id}")
                defect = flip * (self.values[I] - (ym + yp + xm + xp) / 4)
                if defect < -tol:
                    raise ValueError(f"drift at {I.id} points the wrong way")

    def value(self, I: DyadicInterval):
        if not I.is_four_adic:
            raise ValueError(f"{I.id} is not 4-adic")
        r = I.level - self.root.level
        if r > self.depth:
            return zero(self.exact)
        try:
            return self.values[I]
        except KeyError:
            raise ValueError(f"{I.id} lies outside the process tree") from None

    def defect(self, I: DyadicInterval):
        """Value minus the mean of the four grandchild values."""
        kids = [self.value(c) for c in I.grandchildren()]
        return self.value(I) - sum(kids) / 4

    def sup_norm(self):
        return max(abs(v) for v in self.values.values())


def pair_supermartingale(
    mu: DiscreteMeasure, sign: str, tol=DEFAULT_TOL
) -> SlicedSuperMartingale:
    """Process paired with a balanced measure: +-S(I)/|I| on every node."""
    if not mu.is_balanced(tol):
        raise ValueError(
            f"measure is not balanced (residual {float(mu.balance_residual()):.6g});"
            " the pairing needs equal half masses"
        )
    if sign not in (SUPERMARTINGALE_NONNEG, SUBMARTINGALE_NONPOS):
        raise ValueError(f"unknown sign convention {sign!r}")
    flip = 1 if sign == SUPERMARTINGALE_NONNEG else -1
    values = {}
    for r in range(0, mu.depth + 1, 2):
        for j in range(1 << r):
            I = mu.root.descendant(r, j)
            values[I] = flip * mu.subtree_mass(I) / I.length
    return SlicedSuperMartingale(values, mu.root, mu.depth, sign, validate=False)


def measure_from_supermartingale(
    M: SlicedSuperMartingale, tol=DEFAULT_TOL
) -> DiscreteMeasure:
    """Invert the pairing: masses are the per-node drift defects times |I|."""
    flip = 1 if M.sign == SUPERMARTINGALE_NONNEG else -1
    masses = {}
    for I, v in M.values.items():
        s_here = flip * v * I.length
        r = I.level - M.root.level
        if r + 2 <= M.depth:
            s_below = sum(flip * M.values[c] * c.length for c in I.grandchildren())
        else:
            s_below = 0
        m = s_here - s_below
        if m < (-tol if not M.exact else 0):
            raise ValueError(f"negative implied mass at {I.id}")
        if m > 0:
            masses[I] = m
    return DiscreteMeasure(masses, M.root, M.depth)


def _require_compatible(f: DyadicAnalytic, mu: DiscreteMeasure):
    if f.root != mu.root:
        raise ValueError("function and measure live on different roots")
    if mu.depth > f.depth:
        raise ValueError(
            f"measure depth {mu.depth} exceeds function depth {f.depth}"
        )


def embedding_sum(f: DyadicAnalytic, mu: DiscreteMeasure):
    """Sum of mu_I times the squared modulus of the averaged pair at I."""
    _require_compatible(f, mu)
    total = zero(f.exact and mu.exact)
    for I, m in mu.masses.items():
        a, b = f.u.average(I), f.v.average(I)
        total += m * (a * a + b * b)
    return total


def embedding_slack(f: DyadicAnalytic, mu: DiscreteMeasure, constant: float = E):
    """Certified bound minus the embedding sum; nonnegative when the bound holds."""
    return (
        constant * float(mu.packing_intensity()) * float(f.norm2())
        - float(embedding_sum(f, mu))
    )


def weighted_embedding_slack(f: DyadicAnalytic, mu: DiscreteMeasure) -> float:
    """Slack of the exponentially weighted bound, no packing cap required.

    Weights each mass by exp(-S(I)/|I|); the weighted sum never exceeds the
    squared norm of the pair, however large the measure is.
    """
    _require_compatible(f, mu)
    total = 0.0
    for I, m in mu.masses.items():
        w = math.exp(-float(mu.subtree_mass(I) / I.length))
        a, b = float(f.u.average(I)), float(f.v.average(I))
        total += float(m) * w * (a * a + b * b)
    return float(f.norm2()) - total


@dataclass
class WeightedSlackDecomposition:
    """Exact split of the weighted slack into one nonnegative term per node."""

    slack: float
    node_terms: dict
    root_term: float
    leaf_terms: dict

    def total(self) -> float:
        return self.root_term + sum(self.node_terms.values()) + sum(
            self.leaf_terms.values()
        )

    def min_term(self) -> float:
        terms = [self.root_term]
        terms.extend(self.node_terms.values())
        terms.extend(self.leaf_terms.values())
        return min(terms)


def telescoped_weighted_slack(
    f: DyadicAnalytic, mu: DiscreteMeasure
) -> WeightedSlackDecomposition:
    """Telescoping certificate for the weighted bound.

    Splits norm2(f) minus the weighted sum into one drift-and-convexity gap
    per internal node, a root boundary term, and one surplus per leaf cell.
    The measure must reach exactly as deep as the function so the leaf
    accounting closes.
    """
    _require_compatible(f, mu)
    if mu.depth != f.depth:
        raise ValueError(
            f"telescoping needs matching depths, got measure {mu.depth}"
            f" and function {f.depth}"
        )
    if not mu.is_balanced():
        raise ValueError("telescoping needs a balanced measure")

    def m_at(I):
        return -float(mu.subtree_mass(I) / I.length)

    node_terms = {}
    for r in range(0, f.depth - 1, 2):
        for j in range(1 << r):
            I = f.root.descendant(r, j)
            dx, dy = f.u.increments(I)
            ym, yp, xm, xp = I.grandchildren()
            gap = bellman.laplacian_step_gap(
                m_at(I),
                float(mu.mass(I) / I.length),
                (m_at(xm), m_at(xp), m_at(ym), m_at(yp)),
                float(f.u.average(I)),
                float(f.v.average(I)),
                float(dx),
                float(dy),
            )
            node_terms[I] = float(I.length) * gap

    r0 = float(f.u.root_average)
    i0 = float(f.v.root_average)
    root_term = float(f.root.length) * math.exp(m_at(f.root)) * (r0 * r0 + i0 * i0)

    leaf_terms = {}
    leaf_len = dyadic_length(f.root.level + f.depth)
    for j in range(1 << f.depth):
        J = f.root.descendant(f.depth, j)
        a, b = float(f.u.leaves[j]), float(f.v.leaves[j])
        w = math.exp(m_at(J))
        leaf_terms[J] = (a * a + b * b) * (
            float(leaf_len) * (1.0 - w) - float(mu.mass(J)) * w
        )

    return WeightedSlackDecomposition(
        slack=weighted_embedding_slack(f, mu),
        node_terms=node_terms,
        root_term=root_term,
        leaf_terms=leaf_terms,
    )


def bellman_chain_slacks(f: DyadicAnalytic, mu: DiscreteMeasure) -> dict:
    """Per-node dynamics surpluses of the value-function certificate.

    Rescales the measure so its packing intensity is at most one, pairs it
    with the nonnegative process, and reports the dynamics gap of the value
    function at every internal node.  All gaps nonnegative certifies the
    embedding bound with constant e for this pair.
    """
    _require_compatible(f, mu)
    if not mu.is_balanced():
        raise ValueError("the chain needs a balanced measure")
    packing = mu.packing_intensity()
    scaled = mu.scale(1 / packing) if packing > 1 else mu

    def m_at(I):
        return float(scaled.subtree_mass(I) / I.length)

    gaps = {}
    for r in range(0, f.depth - 1, 2):
        for j in range(1 << r):
            I = f.root.descendant(r, j)
            ym, yp, xm, xp = I.grandchildren()
            m_i = m_at(I)
            dens = float(scaled.mass(I) / I.length)
            mean = m_i - dens
            d1 = (m_at(xp) - m_at(xm)) / 2
            d2 = (m_at(yp) - m_at(ym)) / 2
            dx, dy = f.u.increments(I)
            point = bellman.BellmanPoint(
                F=float(f.second_moment(I)),
                r=float(f.u.average(I)),
                i=float(f.v.average(I)),
                M=m_i,
            )
            split = bellman.SplitSpec(
                dxr=float(dx),
                dyr=float(dy),
                d1=d1,
                d2=d2,
                mu=dens,
                F_parts=(
                    float(f.second_moment(xm)),
                    float(f.second_moment(xp)),
                    float(f.second_moment(ym)),
                    float(f.second_moment(yp)),
                ),
            )
            gaps[I] = bellman.dynamics_gap(point, split)
    return gaps


def _split_measure(root: DyadicInterval, depth: int, total, split) -> DiscreteMeasure:
    """Balanced measure spread top down from a total mass at the root.

    split(r, j) gives (own, ax, ay) for the node at relative level r, index
    j: the node keeps own of its mass, and each half gets an equal share of
    the rest, split ax : 1 - ax between x- and x+ and ay : 1 - ay between
    y- and y+.  Bottom nodes keep all they get.  split is called only for
    nodes with positive mass, depth first in x-, x+, y-, y+ order, which is
    also the insertion order of the masses.
    """
    masses = {}

    def spread(r, j, mass):
        if mass <= 0:
            return
        if r == depth:
            masses[root.descendant(r, j)] = mass
            return
        own, ax, ay = split(r, j)
        take = own * mass
        if take > 0:
            masses[root.descendant(r, j)] = take
        half = (mass - take) / 2
        spread(r + 2, 4 * j + 2, ax * half)
        spread(r + 2, 4 * j + 3, (1 - ax) * half)
        spread(r + 2, 4 * j, ay * half)
        spread(r + 2, 4 * j + 1, (1 - ay) * half)

    spread(0, 0, total)
    return DiscreteMeasure(masses, root, depth)


def random_balanced_measure(
    rng,
    depth: int,
    root: DyadicInterval | None = None,
    max_intensity=1,
    denom_bits: int = 8,
) -> DiscreteMeasure:
    """Random balanced measure with exact rational masses.

    Splits mass top down, always giving the two halves of a node equal
    subtree mass, so the balance residual is exactly zero by construction.
    The result is rescaled to keep the packing intensity at or below the
    cap, again exactly.
    """
    root = root if root is not None else unit_root()
    if depth % 2:
        raise ValueError("depth must be even")
    unit = Fraction(1, 1 << denom_bits)

    def frac():
        return rng.getrandbits(denom_bits) * unit

    total = (rng.getrandbits(denom_bits) + 1) * unit
    mu = _split_measure(root, depth, total, lambda r, j: (frac(), frac(), frac()))
    packing = mu.packing_intensity()
    cap = max_intensity if isinstance(max_intensity, Fraction) else Fraction(max_intensity)
    if packing > cap:
        mu = mu.scale(cap / packing)
    return mu
