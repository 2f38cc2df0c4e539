"""Balanced discrete measures and the certificates built on them.

A measure here is a nonnegative mass per 4-adic node.  It is *balanced* when
the two halves of every 4-adic interval carry equal subtree mass; balanced
measures are exactly the ones whose normalized subtree mass S(I)/|I| runs as
a sliced supermartingale along 4-adic generations, and that process is the
engine behind the weighted embedding bound.  Every measure is built by one
constructor from (relative level, index) rows and their masses: the JSON
parser, the generators and scale all call it.  The per-node certificate
terms are keyed by (r, j) below the measure's root.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .dyadic import (
    MAX_FLOAT_LEVEL,
    DyadicInterval,
    as_numerators,
    json_number,
    left_sum,
    mode_tol,
    nan_min,
    node_from_id,
    ratio,
    root_from_json,
    root_to_json,
    unit_root,
    zero,
)
from .martingale import DyadicAnalytic, _jump_rows
from . import bellman
from .bellman import E


def _scaled(num, den, level):
    """(numerator, denominator) of num / den divided by the length 2**-level."""
    return (num * (1 << level), den) if level >= 0 else (num, den << -level)


def _subtree_sums(own, depth):
    """Per level k, {j: subtree mass of node (2k, j)}, summed over own's ((r, j), m) in order."""
    sums = [{} for _ in range(depth // 2 + 1)]
    for (r, j), m in own:
        k = r >> 1
        while k >= 0:  # node (r, j), then its 4-adic ancestors up to the root
            level = sums[k]
            level[j] = level.get(j, 0) + m
            j >>= 2
            k -= 1
    return sums


class DiscreteMeasure:
    """Sparse nonnegative masses on the 4-adic nodes below a 4-adic root.

    Kept by (relative level, index): own[(r, j)] is the mass of node (r, j),
    in support (insertion) order, and sums[k][j] the subtree mass of node
    (2k, j), added up in support order; both are numerators over one
    denominator den (ints when exact, floats over 1; see as_numerators).
    Packing, balance and float densities are computed once.  Built from
    rows: node (r, j), with r even and 0 <= j < 2**r, carries mass
    values[t] / den; depth defaults to the deepest positive mass.  Zero
    masses are dropped.  Masses whose total overflows a float are rejected,
    so every sum is finite, and so is a depth whose bottom level l makes
    2.0 ** l overflow, since per-level lengths are floats.
    """

    __slots__ = ("own", "sums", "den", "root", "depth", "exact", "zero", "_masses", "_cache")

    def __init__(self, root: DyadicInterval, depth: int | None, nodes, values, den=1,
                 check_depth=None):
        # check_depth, when given, sees the depth before the level rows are built
        if not root.is_four_adic:
            raise ValueError("measure root must be 4-adic")
        nums, den, exact = as_numerators(values, "mass", den)
        own = {}
        for (r, j), m in zip(nodes, nums):
            if r % 2 or r < 0 or j < 0 or j >> r:
                raise ValueError(f"node ({r}, {j}) is not a 4-adic node below the root")
            if m < 0:
                m = float(ratio(m, den, exact))
                raise ValueError(f"mass {m:.6g} at {root.descendant(r, j).id} is negative")
            if m:
                own[r, j] = m
        max_rel = max((r for r, _ in own), default=0)
        if depth is None:
            depth = max_rel
        elif depth % 2 or depth < max_rel:
            raise ValueError(f"depth {depth} cannot hold support down to {max_rel}")
        if check_depth is not None:
            check_depth(depth)
        if root.level + depth > MAX_FLOAT_LEVEL:
            raise ValueError(f"depth {depth} reaches level {root.level + depth},"
                             " where 2.0 ** level is no float")
        sums = _subtree_sums(own.items(), depth)
        if not sums[0].get(0, 0) < math.inf:
            raise ValueError("the masses add up past the float range")
        self.own, self.sums, self.den, self.root, self.depth = own, sums, den, root, depth
        self.exact, self.zero, self._masses, self._cache = exact, zero(exact), None, {}

    def _value(self, num, level=0):
        """A numerator as a value, divided by the length 2**-level."""
        return ratio(*_scaled(num, self.den, level), self.exact)

    def float_density(self, num, level: int) -> float:
        """A numerator over the length 2**-level, as a correctly rounded float."""
        num, den = _scaled(num, self.den, level)
        return num / den

    @property
    def masses(self):
        """Support nodes with their masses, in insertion order."""
        if self._masses is None:
            own, at = self.own.items(), self.root.descendant
            den, exact = self.den, self.exact
            self._masses = {at(r, j): ratio(m, den, exact) for (r, j), m in own}
        return self._masses

    def items(self):
        """Support nodes with masses, sorted by (level, index)."""
        den, exact, at = self.den, self.exact, self.root.descendant
        return [(at(*n), ratio(self.own[n], den, exact)) for n in sorted(self.own)]

    def __len__(self):
        return len(self.own)

    def subtree_mass(self, I: DyadicInterval):
        """Total mass on 4-adic nodes inside I (I itself included); I must
        lie in the measure's tree."""
        if not I.is_four_adic:
            raise ValueError(f"{I.id} is not 4-adic")
        root = self.root
        root._same_tree(I)
        r = I.level - root.level
        if r < 0:
            return self._value(self.sums[0].get(0, 0)) if I.contains(root) else self.zero
        j = I.index - (root.index << r)
        if j < 0 or j >> r or r > self.depth:
            return self.zero
        return self._value(self.sums[r // 2].get(j, 0))

    def _halves(self, k, j):
        # subtree masses strictly inside the left and right halves of node (2k, j)
        below = self.sums[k + 1] if k + 1 < len(self.sums) else {}
        left = below.get(4 * j, 0) + below.get(4 * j + 1, 0)
        return left, below.get(4 * j + 2, 0) + below.get(4 * j + 3, 0)

    def _worst(self, key, level_max, shift):
        # largest level_max(k) / (2**shift |I|) over the levels k, cached
        if key not in self._cache:
            vals = [self._value(level_max(k), self.root.level + 2 * k + shift)
                    for k in range(len(self.sums))]
            self._cache[key] = max(vals, default=self.zero)
        return self._cache[key]

    def balance_residual(self):
        """Worst half-mass mismatch |S(right) - S(left)| / (2|I|) over all nodes."""
        def level_max(k):
            halves = (self._halves(k, j) for j in self.sums[k])
            return max((abs(right - left) for left, right in halves), default=0)
        return self._worst("balance", level_max, -1)

    def require_balanced(self) -> None:
        """The balance rule: raise ValueError unless the residual is within
        the mode's structural slack (none when exact); a NaN fails."""
        res = self.balance_residual()
        if not res <= mode_tol(self.exact):
            raise ValueError(f"measure is not balanced (residual {float(res):.6g}); this check"
                             " needs equal half masses")

    def packing_intensity(self):
        """Largest normalized subtree mass S(I)/|I| over the support closure."""
        return self._worst("packing", lambda k: max(self.sums[k].values(), default=0), 0)

    def float_densities(self):
        """Dense rows, one per 4-adic level k, of S(I)/|I| for the nodes (2k, j)."""
        if "densities" not in self._cache:
            rows = self._cache["densities"] = []
            for k, sums in enumerate(self.sums):
                rows.append([0.0] * (1 << 2 * k))
                for j, s in sums.items():
                    rows[k][j] = self.float_density(s, self.root.level + 2 * k)
        return self._cache["densities"]

    def scale(self, c) -> "DiscreteMeasure":
        (a,), b, _ = as_numerators([c], "scale factor")
        nums = [a * m for m in self.own.values()]
        return DiscreteMeasure(self.root, self.depth, self.own, nums, self.den * b)

    def __repr__(self):
        return f"DiscreteMeasure(support={len(self)}, depth={self.depth}, root={self.root.id})"


def measure_to_json(mu: DiscreteMeasure) -> dict:
    masses = {I.id: json_number(m) for I, m in mu.items()}
    return root_to_json(mu.root, depth=mu.depth, masses=masses)


def measure_from_json(obj: dict, check_depth=None) -> DiscreteMeasure:
    """Parse the canonical measure form straight to (r, j) rows, with no
    interval per mass; check_depth, when given, is called with the measure's
    depth (declared, or its deepest mass) before its level rows are built."""
    if not isinstance(obj, dict) or "masses" not in obj:
        raise ValueError("measure object must carry a masses table")
    root, depth = root_from_json(obj)
    masses = obj["masses"]
    if not isinstance(masses, dict):
        raise ValueError("masses must be an object of node ids")
    rows = [node_from_id(key, root.base, root.ancestor_levels) for key in masses]
    odd = next((key for key, (level, _) in zip(masses, rows) if level % 2), None)
    if odd is not None:
        raise ValueError(f"{odd} is not 4-adic")
    top = root.level  # a base root has index 0, so a node's index is its j
    nodes = [(level - top, index) for level, index in rows]
    return DiscreteMeasure(root, depth, nodes, masses.values(), check_depth=check_depth)


def _require_compatible(f: DyadicAnalytic, mu: DiscreteMeasure):
    if f.root != mu.root:
        raise ValueError("function and measure live on different roots")
    if mu.depth > f.depth:
        raise ValueError(f"measure depth {mu.depth} exceeds function depth {f.depth}")


def _steps(f: DyadicAnalytic, mu: DiscreteMeasure):
    """Per internal 4-adic node (r, j) of f, top down, as floats: (r, j,
    S/|I|, own mass/|I|, the quarters' S/|I| in (x-, x+, y-, y+) order, the
    averages of u and v, and the half jumps dx, dy of u)."""
    dens = mu.float_densities()
    dens = dens + [[0.0] * (1 << 2 * k) for k in range(len(dens), f.depth // 2 + 1)]
    uf, vf = f.u.float_pyramid(), f.v.float_pyramid()
    rows, den = _jump_rows(f.u)
    for k, row in enumerate(rows):
        r, here, below = 2 * k, dens[k], dens[k + 1]
        for j, (dx, dy) in enumerate(row):
            own = mu.float_density(mu.own.get((r, j), 0), f.root.level + r)
            kids = tuple(below[4 * j + q] for q in (2, 3, 0, 1))
            yield r, j, here[j], own, kids, uf[r][j], vf[r][j], dx / den, dy / den


def _memo(fn):
    """fn(f, mu) kept in a one-entry memo in mu._cache: a call with the same
    f (matched with `is`) returns the first result, another f replaces it."""
    key = fn.__name__

    @functools.wraps(fn)
    def memo(f, mu):
        hit = mu._cache.get(key)
        if hit is not None and hit[0] is f:
            return hit[1]
        value = fn(f, mu)
        mu._cache[key] = f, value
        return value

    return memo


@_memo
def embedding_sum(f: DyadicAnalytic, mu: DiscreteMeasure):
    """Sum of mu_I times the squared modulus of the averaged pair at I."""
    _require_compatible(f, mu)
    upyr, vpyr = f.u.pyramid(), f.v.pyramid()
    dus, dvs = ([pc.den_at(r) for r in range(f.depth + 1)] for pc in (f.u, f.v))
    total = 0
    for (r, j), m in mu.own.items():
        a, b, du, dv = upyr[r][j], vpyr[r][j], dus[r], dvs[r]
        # a**2 / du**2 + b**2 / dv**2 over the root rows' denominator (du0 dv0)**2
        lift = (dus[0] // du * (dvs[0] // dv)) ** 2
        total += m * (a * a * (dv * dv) + b * b * (du * du)) * lift
    return ratio(total, mu.den * (dus[0] * dvs[0]) ** 2, f.exact and mu.exact)


def embedding_bound(f: DyadicAnalytic, mu: DiscreteMeasure) -> float:
    """Certified bound e * packing intensity * squared norm, as a float."""
    return E * float(mu.packing_intensity()) * float(f.norm2())


def embedding_slack(f: DyadicAnalytic, mu: DiscreteMeasure):
    """Certified bound minus the embedding sum; nonnegative when the bound holds."""
    return embedding_bound(f, mu) - float(embedding_sum(f, mu))


@_memo
def weighted_embedding_slack(f: DyadicAnalytic, mu: DiscreteMeasure) -> float:
    """Slack of the exponentially weighted bound, no packing cap required.

    Weights each mass by exp(-S(I)/|I|); the weighted sum never exceeds the
    squared norm of the pair, however large the measure is.
    """
    _require_compatible(f, mu)
    dens = mu.float_densities()
    uf, vf = f.u.float_pyramid(), f.v.float_pyramid()
    total = 0.0
    for (r, j), m in mu.own.items():
        w = math.exp(-dens[r // 2][j])
        a, b = uf[r][j], vf[r][j]
        total += m / mu.den * w * (a * a + b * b)
    return float(f.norm2()) - total


@dataclass
class WeightedSlackDecomposition:
    """Exact split of the weighted slack into one nonnegative term per node,
    node_terms and leaf_terms keyed by (r, j) below the pair's root."""

    slack: float
    node_terms: dict
    root_term: float
    leaf_terms: dict

    def total(self) -> float:
        return (self.root_term + left_sum(self.node_terms.values())
                + left_sum(self.leaf_terms.values()))

    def min_term(self) -> float:
        """Smallest term; a NaN term wins and sticks."""
        terms = [self.root_term, *self.node_terms.values(), *self.leaf_terms.values()]
        return nan_min(terms)


def telescoped_weighted_slack(f: DyadicAnalytic,
                              mu: DiscreteMeasure) -> WeightedSlackDecomposition:
    """Telescoping certificate for the weighted bound.

    Splits norm2(f) minus the weighted sum into one drift-and-convexity gap
    per internal node, a root boundary term, and one surplus per leaf cell,
    both keyed by (r, j) top down, index ascending.  The measure must reach
    exactly as deep as the function so the leaf accounting closes.
    """
    _require_compatible(f, mu)
    if mu.depth != f.depth:
        raise ValueError(f"telescoping needs matching depths, got measure {mu.depth}"
                         f" and function {f.depth}")
    mu.require_balanced()

    node_terms = {}
    for r, j, m, own, kids, u, v, dx, dy in _steps(f, mu):
        gap = bellman.laplacian_step_gap(-m, own, tuple(-k for k in kids), u, v, dx, dy)
        node_terms[r, j] = 2.0 ** -(f.root.level + r) * gap

    dens, uf, vf = mu.float_densities(), f.u.float_pyramid(), f.v.float_pyramid()
    r0, i0 = uf[0][0], vf[0][0]
    root_term = float(f.root.length) * math.exp(-dens[0][0]) * (r0 * r0 + i0 * i0)

    leaf_terms = {}
    leaf_len = 2.0 ** -(f.root.level + f.depth)
    for j, (a, b, s) in enumerate(zip(uf[-1], vf[-1], dens[-1])):
        w, own = math.exp(-s), mu.own.get((f.depth, j), 0) / mu.den
        term = (a * a + b * b) * (leaf_len * (1.0 - w) - own * w)
        leaf_terms[f.depth, j] = term
    return WeightedSlackDecomposition(
        weighted_embedding_slack(f, mu), node_terms, root_term, leaf_terms
    )


def bellman_chain_slacks(f: DyadicAnalytic, mu: DiscreteMeasure) -> dict:
    """Per-node dynamics surpluses of the value-function certificate, keyed by
    the internal nodes' (r, j) top down, index ascending.

    Rescales the measure so its packing intensity is at most one, pairs it
    with the nonnegative process, and reports the dynamics gap of the value
    function at every internal node.  All gaps nonnegative certifies the
    embedding bound with constant e for this pair.
    """
    _require_compatible(f, mu)
    mu.require_balanced()
    packing = mu.packing_intensity()
    scaled = mu.scale(1 / packing) if packing > 1 else mu
    sums, den = f.moment_sums()
    gaps, gap = {}, bellman.dynamics_gap
    for r, j, m, own, (xm, xp, ym, yp), u, v, dx, dy in _steps(f, scaled):
        F = sums[r][j] / (den << f.depth - r)
        below, qden, q = sums[r + 2], den << f.depth - r - 2, 4 * j
        quarters = (below[q + 2] / qden, below[q + 3] / qden, below[q] / qden, below[q + 1] / qden)
        gaps[r, j] = gap(F, u, v, m, dx, dy, (xp - xm) / 2, (yp - ym) / 2, own, quarters)
    return gaps


def _spread(depth: int, mass, split):
    """(nodes, masses) rows of a balanced measure spread top down from mass at the root.

    split(r, j, m) gives (own, x-, x+, y-, y+): what internal node (r, j)
    keeps of the m it gets, and what its quarters 4j + 2, 4j + 3, 4j and
    4j + 1 one level down get.  It is called only on internal nodes with
    positive mass, depth first in x-, x+, y-, y+ order, which is also the
    support order of the rows; quarters that get nothing are skipped, and
    bottom nodes keep all they get.
    """
    nodes, masses, stack = [], [], [(0, 0, mass)]
    while stack:
        r, j, m = stack.pop()
        if m <= 0:  # a node that gets nothing
            continue
        take = m  # bottom nodes keep all they get
        if r < depth:
            take, xm, xp, ym, yp = split(r, j, m)
            q, k = r + 2, 4 * j
            # pushed last to first, so x- is walked first
            stack += (q, k + 1, yp), (q, k, ym), (q, k + 3, xp), (q, k + 2, xm)
        if take > 0:
            nodes.append((r, j))
            masses.append(take)
    return nodes, masses


def random_balanced_measure(rng, depth: int, root: DyadicInterval | None = None) -> DiscreteMeasure:
    """Random balanced measure with exact rational masses.

    Spreads mass with _spread: a node keeps own/256 of what it gets, and each
    half of the rest goes ax : 256 - ax (or ay : 256 - ay) to its quarters,
    so the balance residual is exactly zero.  Masses are integer numerators
    over one power-of-two denominator, so every split is an exact shift.  A
    node gets its subtree mass, so the split sees the packing intensity; the
    rescale capping it at one is folded into the denominator.
    """
    root = root if root is not None else unit_root()
    if depth < 0 or depth % 2:
        raise ValueError(f"depth must be even and nonnegative, got {depth}")
    draw, shift = rng.getrandbits, 17 * (depth // 2)  # each level splits off 17 bits
    peak = 0  # the largest subtree numerator times 2**r

    def split(r, j, n):  # draws own, ax and ay in turn
        nonlocal peak
        peak = max(peak, n << r)
        take = draw(8) * n >> 8
        half = n - take >> 1
        x, y = draw(8) * half >> 8, draw(8) * half >> 8
        return take, x, half - x, y, half - y

    nodes, nums = _spread(depth, draw(8) + 1 << shift, split)
    peak = max([peak] + [n << depth for (r, _), n in zip(nodes, nums) if r == depth])
    den = 1 << 8 + shift
    top, bottom = _scaled(peak, den, root.level)  # the packing intensity top / bottom
    if top > bottom:  # each mass m / den becomes m * bottom / (den * top); bottom / den is an int
        nums, den = [m * (bottom // den) for m in nums], top
    return DiscreteMeasure(root, depth, nodes, nums, den)
