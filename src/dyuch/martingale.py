"""Sliced martingales and their conjugates.

A martingale on the dyadic tree is *sliced* when, at every 4-adic node, the
averages over the two half intervals agree: all jumps happen between even
generations.  Sliced martingales carry a quarter-turn rotation s0 that swaps
the roles of the two half directions; a pair (u, v) with v built from u by
that rotation (up to an additive constant) behaves like boundary values of
an analytic function, and the discrete Cauchy-Riemann equations below make
that precise.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .dyadic import (
    DyadicInterval,
    PiecewiseConstant,
    left_sum,
    level_step,
    mode_tol,
    ratio,
    tree_from_json,
    tree_to_json,
    zero,
)


class SlicingViolation(ValueError):
    """Raised when a claimed sliced martingale jumps inside an odd generation."""

    def __init__(self, interval: DyadicInterval, residual):
        self.interval, self.residual = interval, residual
        super().__init__(f"half averages differ by {float(residual):.6g} at {interval.id}")


def _first_violation(pc: PiecewiseConstant):
    """(node, gap) at the first 4-adic node, top down, whose half averages
    differ by more than the mode's slack, or None; the gap is the difference
    of the half sums over their denominator."""
    tol, pyr = mode_tol(pc.exact), pc.pyramid()
    for k in range(0, pc.depth, 2):
        row, den = pyr[k + 1], pc.den_at(k + 1)
        for j in range(1 << k):
            diff = abs(row[2 * j + 1] - row[2 * j])
            if diff > tol * den:
                return pc.root.descendant(k, j), ratio(diff, den, pc.exact)
    return None


class SlicedMartingale(PiecewiseConstant):
    """Piecewise constant tree whose jumps avoid the odd generations.

    Construction validates top down and reports the shallowest offending
    node, so error messages point at the coarsest structural break.  The
    checked tree's numerators and cached pyramid are taken over as they are.
    """

    __slots__ = ()

    def __init__(self, pc: PiecewiseConstant, validate: bool = True):
        if validate:
            hit = _first_violation(pc)
            if hit is not None:
                raise SlicingViolation(*hit)
        for name in PiecewiseConstant.__slots__:
            setattr(self, name, getattr(pc, name))

    @classmethod
    def from_leaves(cls, leaves, root: DyadicInterval | None = None, **kw):
        return cls(PiecewiseConstant(leaves, root), **kw)

    # names the benchmark scripts read
    pc = property(lambda self: self)
    norm2 = PiecewiseConstant.l2_norm2
    shifted = PiecewiseConstant.shift
    scaled = PiecewiseConstant.scale


def _jump_rows(pc: PiecewiseConstant):
    """(rows, den): _jumps of pc's pyramid, over den = pc.den_at(0)."""
    return _jumps(pc.pyramid(), pc.exact), pc.den_at(0)


def _jumps(pyr, exact: bool):
    """The half jumps (dx, dy) of every 4-adic level of a sum pyramid, nodes
    left to right, over the root row's denominator: dx is half the step
    across the right pair of grandchildren, dy across the left."""
    half, grow = level_step(exact)
    rows = []
    for k in range(0, len(pyr) - 1, 2):
        row, c = pyr[k + 2], half * grow ** (k + 1)
        rows.append([((row[q + 3] - row[q + 2]) * c, (row[q + 1] - row[q]) * c)
                     for q in range(0, len(row), 4)])
    return rows


def _sliced_leaves(w0, rows):
    """Leaf row from a root value w0 and (dx, dy) rows: each 4-adic generation
    sends a node value w to (w - dy, w + dy, w - dx, w + dx), left to right."""
    cur = [w0]
    for row in rows:
        cur = [x for w, (dx, dy) in zip(cur, row) for x in (w - dy, w + dy, w - dx, w + dx)]
    return cur


def _rotated_leaves(pyr, exact: bool):
    """s0's leaves for the tree with sum pyramid pyr: jumps (dx, dy) as (-dy, dx)."""
    rows = [[(-dy, dx) for dx, dy in row] for row in _jumps(pyr, exact)]
    return _sliced_leaves(0 * level_step(exact)[0], rows)  # 0, or 0.0 for floats


def _sliced_from_increments(w0, rows, den=1, root: DyadicInterval | None = None):
    """Sliced martingale with leaves _sliced_leaves(w0, rows) / den (den 1 for value rows)."""
    return SlicedMartingale.from_numerators(_sliced_leaves(w0, rows), den, root)


def s0(u) -> SlicedMartingale:
    """Quarter-turn rotation of a sliced martingale.

    Acts on jumps by sending the step across a right half to the equal step
    across the matching left half and negating the reverse direction; kills
    the mean.  Applying it twice negates a mean-zero input.  In jump terms
    (dx, dy) becomes (-dy, dx).
    """
    if not isinstance(u, SlicedMartingale):
        u = SlicedMartingale(u)  # rejects non-sliced input
    leaves = _rotated_leaves(u.pyramid(), u.exact)
    return SlicedMartingale.from_numerators(leaves, u.den_at(0), u.root)


def cr_residual(u, v):
    """Largest failure of the discrete Cauchy-Riemann system.

    At every 4-adic node the pair must satisfy dx(u) = dy(v) and
    dy(u) = -dx(v); the residual is the worst absolute mismatch, NaN sticking.
    """
    u._require_same_grid(v)
    (urows, uden), (vrows, vden) = _jump_rows(u), _jump_rows(v)
    den = math.lcm(uden, vden)
    a, b = den // uden, den // vden
    worst = 0
    for urow, vrow in zip(urows, vrows):
        for (dxu, dyu), (dxv, dyv) in zip(urow, vrow):
            for bad in (abs(dxu * a - dyv * b), abs(dyu * a + dxv * b)):
                if worst == worst and not bad <= worst:
                    worst = bad
    return ratio(worst, den, u.exact and v.exact)


class DyadicAnalytic:
    """Conjugate pair (u, v) of sliced martingales.

    v must match the quarter-turn rotation of u up to an additive constant,
    equivalently the pair solves the discrete Cauchy-Riemann system at every
    4-adic node.  Read the pair as u + iv.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v, validate: bool = True):
        u = u if isinstance(u, SlicedMartingale) else SlicedMartingale(u, validate)
        v = v if isinstance(v, SlicedMartingale) else SlicedMartingale(v, validate)
        u._require_same_grid(v)
        if validate:
            bad = cr_residual(u, v)
            if not bad <= mode_tol(u.exact and v.exact):
                raise ValueError(f"pair is not conjugate: Cauchy-Riemann residual {float(bad):.6g}")
        self.u, self.v = u, v

    @classmethod
    def from_leaves(cls, u_leaves, v_leaves, root=None, **kw):
        return cls(PiecewiseConstant(u_leaves, root), PiecewiseConstant(v_leaves, root), **kw)

    @property
    def depth(self) -> int:
        return self.u.depth

    @property
    def root(self) -> DyadicInterval:
        return self.u.root

    @property
    def exact(self) -> bool:
        return self.u.exact and self.v.exact

    def average(self, I: DyadicInterval) -> complex:
        return complex(float(self.u.average(I)), float(self.v.average(I)))

    def norm2(self):
        """Integral of u**2 + v**2 over the tree root."""
        return self.u.l2_norm2() + self.v.l2_norm2()

    def moment_sums(self):
        """(sums, den): sums[r][j] / den is the sum of u**2 + v**2 over the
        leaves below node (r, j), each leaf summed once, left to right.
        Computed on each call; the Bellman chain calls it once per pair."""
        up, vp = self.u, self.v
        den = math.lcm(up.den, vp.den)
        a, b = den // up.den, den // vp.den
        sq = [(x * a) * (x * a) + (y * b) * (y * b) for x, y in zip(up.nums, vp.nums)]
        return [
            [left_sum(sq[j << span:(j + 1) << span]) for j in range(1 << r)]
            for r, span in zip(range(self.depth + 1), range(self.depth, -1, -1))
        ], den * den

    def __repr__(self):
        return f"DyadicAnalytic(depth={self.depth}, root={self.root.id})"


def conjugate(u) -> DyadicAnalytic:
    """Canonical conjugate pair (u, s0(u)); the conjugate part has mean zero."""
    um = u if isinstance(u, SlicedMartingale) else SlicedMartingale(u)
    return DyadicAnalytic(um, s0(um), validate=False)


def analytic_projection(re, im=None) -> DyadicAnalytic:
    """Nearest conjugate pair to an arbitrary pair of trees.

    Orthogonally projects (in the L2 pair metric) onto the space of conjugate
    pairs: keeps both means, averages the sliced parts of the input with the
    rotation-compatible combination, and discards everything else.  Already
    conjugate pairs are fixed points, and the map is idempotent.
    """
    if im is None:
        im = PiecewiseConstant.constant(zero(re.exact), re.depth, re.root)
    re._require_same_grid(im)
    # the mean-zero sliced parts keep only the jumps entering even generations
    a_odd, b_odd = (_sliced_from_increments(0, *_jump_rows(pc), pc.root) for pc in (re, im))
    half = Fraction(1, 2)
    u = (a_odd - s0(b_odd)).scale(half).shift(re.root_average)
    v = (b_odd + s0(a_odd)).scale(half).shift(im.root_average)
    return DyadicAnalytic(u, v, validate=False)


# random draws: signed numerators over 2**_DENOM_BITS, u's scaled by _AMPLITUDE
_DENOM_BITS, _AMPLITUDE = 6, 4


def random_sliced(rng, depth: int, root: DyadicInterval | None = None) -> SlicedMartingale:
    """Random sliced martingale with exact dyadic rational leaves.

    Jumps are drawn only across 4-adic splits, so the slicing constraint
    holds by construction and all residual checks downstream are exact.
    """
    if depth < 0 or depth % 2:
        raise ValueError(f"depth must be even and nonnegative, got {depth}")

    def draw():  # a numerator over 2**_DENOM_BITS
        return (rng.getrandbits(_DENOM_BITS + 1) - (1 << _DENOM_BITS)) * _AMPLITUDE

    w0 = draw()
    rows = [[(draw(), draw()) for _ in range(1 << k)] for k in range(0, depth, 2)]
    return _sliced_from_increments(w0, rows, 1 << _DENOM_BITS, root)


def random_analytic(rng, depth: int, root: DyadicInterval | None = None) -> DyadicAnalytic:
    """Random conjugate pair; the conjugate part gets an independent mean."""
    u = random_sliced(rng, depth, root)
    v0 = Fraction(rng.getrandbits(_DENOM_BITS + 1) - (1 << _DENOM_BITS), 1 << _DENOM_BITS)
    v = s0(u).shift(v0)
    return DyadicAnalytic(u, v, validate=False)


def analytic_to_json(f: DyadicAnalytic) -> dict:
    return {"u": tree_to_json(f.u), "v": tree_to_json(f.v)}


def analytic_from_json(obj: dict) -> DyadicAnalytic:
    if not isinstance(obj, dict) or "u" not in obj or "v" not in obj:
        raise ValueError("conjugate pair object must carry u and v trees")
    return DyadicAnalytic(tree_from_json(obj["u"]), tree_from_json(obj["v"]))
