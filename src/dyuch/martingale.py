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
    DEFAULT_TOL,
    DyadicInterval,
    PiecewiseConstant,
    tree_from_json,
    tree_to_json,
    unit_root,
    zero,
)


class SlicingViolation(ValueError):
    """Raised when a claimed sliced martingale jumps inside an odd generation."""

    def __init__(self, interval: DyadicInterval, residual):
        self.interval = interval
        self.residual = residual
        super().__init__(
            f"half averages differ by {float(residual):.6g} at {interval.id}"
        )


def _half_gaps(pc: PiecewiseConstant):
    """(k, j, |difference of the half averages|) at every 4-adic node, top down."""
    pyr = pc.pyramid()
    for k in range(0, pc.depth, 2):
        row = pyr[k + 1]
        for j in range(1 << k):
            yield k, j, abs(row[2 * j + 1] - row[2 * j])


def _first_violation(pc: PiecewiseConstant, tol):
    for k, j, diff in _half_gaps(pc):
        if diff > tol:
            return pc.root.descendant(k, j), diff
    return None


def slicing_residual(pc: PiecewiseConstant):
    """Largest disagreement between half averages over all 4-adic nodes."""
    worst = zero(pc.exact)
    for _, _, diff in _half_gaps(pc):
        if diff > worst:
            worst = diff
    return worst


class SlicedMartingale:
    """Piecewise constant tree whose jumps avoid the odd generations.

    Construction validates top down and reports the shallowest offending
    node, so error messages point at the coarsest structural break.
    """

    __slots__ = ("pc",)

    def __init__(self, pc: PiecewiseConstant, validate: bool = True, tol=DEFAULT_TOL):
        if validate:
            hit = _first_violation(pc, tol if not pc.exact else 0)
            if hit is not None:
                raise SlicingViolation(*hit)
        self.pc = pc

    @classmethod
    def from_leaves(cls, leaves, root: DyadicInterval | None = None, **kw):
        return cls(PiecewiseConstant(leaves, root), **kw)

    @property
    def leaves(self):
        return self.pc.leaves

    @property
    def depth(self) -> int:
        return self.pc.depth

    @property
    def root(self) -> DyadicInterval:
        return self.pc.root

    @property
    def exact(self) -> bool:
        return self.pc.exact

    @property
    def root_average(self):
        return self.pc.root_average

    def average(self, I: DyadicInterval):
        return self.pc.average(I)

    def norm2(self):
        return self.pc.l2_norm2()

    def increments(self, I: DyadicInterval):
        """Half jumps (dx, dy) of the two sibling pairs below a 4-adic node.

        dx is half the step across the right half of I, dy across the left.
        """
        r, j = self.pc.rel_position(I)
        if r % 2 or r + 2 > self.depth:
            raise ValueError(f"{I.id} has no grandchildren inside this tree")
        return _half_jumps(self.pc.pyramid()[r + 2], j)

    def shifted(self, c) -> "SlicedMartingale":
        return SlicedMartingale(self.pc.shift(c), validate=False)

    def scaled(self, c) -> "SlicedMartingale":
        return SlicedMartingale(self.pc.scale(c), validate=False)

    def __eq__(self, other):
        if not isinstance(other, SlicedMartingale):
            return NotImplemented
        return self.pc == other.pc

    def __repr__(self):
        return f"SlicedMartingale(depth={self.depth}, root={self.root.id})"


def _as_pc(u) -> PiecewiseConstant:
    return u.pc if isinstance(u, SlicedMartingale) else u


def _half_jumps(row, j):
    """(dx, dy) below node j of a 4-adic level, read from the grandchild row."""
    return (row[4 * j + 3] - row[4 * j + 2]) / 2, (row[4 * j + 1] - row[4 * j]) / 2


def _increment_rows(pc: PiecewiseConstant):
    """One list of half jumps (dx, dy) per 4-adic level, nodes left to right."""
    pyr = pc.pyramid()
    return [
        [_half_jumps(pyr[k + 2], j) for j in range(1 << k)]
        for k in range(0, pc.depth, 2)
    ]


def _sliced_from_increments(w0, rows, root: DyadicInterval) -> "SlicedMartingale":
    """Sliced martingale with root value w0 and the given (dx, dy) rows.

    Each 4-adic generation sends a node value w to its grandchildren
    (w - dy, w + dy, w - dx, w + dx), left to right.
    """
    cur = [w0]
    for row in rows:
        nxt = []
        for w, (dx, dy) in zip(cur, row):
            nxt.extend((w - dy, w + dy, w - dx, w + dx))
        cur = nxt
    return SlicedMartingale(PiecewiseConstant(cur, root), validate=False)


def s0(u) -> SlicedMartingale:
    """Quarter-turn rotation of a sliced martingale.

    Acts on jumps by sending the step across a right half to the equal step
    across the matching left half and negating the reverse direction; kills
    the mean.  Applying it twice negates a mean-zero input.  In jump terms
    (dx, dy) becomes (-dy, dx).
    """
    pc = _as_pc(u)
    if not isinstance(u, SlicedMartingale):
        SlicedMartingale(pc)  # rejects non-sliced input
    rotated = [[(-dy, dx) for dx, dy in row] for row in _increment_rows(pc)]
    return _sliced_from_increments(zero(pc.exact), rotated, pc.root)


def cr_residual(u, v):
    """Largest failure of the discrete Cauchy-Riemann system.

    At every 4-adic node the pair must satisfy dx(u) = dy(v) and
    dy(u) = -dx(v); the residual is the worst absolute mismatch.
    """
    up, vp = _as_pc(u), _as_pc(v)
    up._require_same_grid(vp)
    worst = zero(up.exact and vp.exact)
    for urow, vrow in zip(_increment_rows(up), _increment_rows(vp)):
        for (dxu, dyu), (dxv, dyv) in zip(urow, vrow):
            bad = max(abs(dxu - dyv), abs(dyu + dxv))
            if bad > worst:
                worst = bad
    return worst


class DyadicAnalytic:
    """Conjugate pair (u, v) of sliced martingales.

    v must match the quarter-turn rotation of u up to an additive constant,
    equivalently the pair solves the discrete Cauchy-Riemann system at every
    4-adic node.  Read the pair as u + iv.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v, validate: bool = True, tol=DEFAULT_TOL):
        u = u if isinstance(u, SlicedMartingale) else SlicedMartingale(u, validate, tol)
        v = v if isinstance(v, SlicedMartingale) else SlicedMartingale(v, validate, tol)
        u.pc._require_same_grid(v.pc)
        if validate:
            bad = cr_residual(u, v)
            if bad > (0 if (u.exact and v.exact) else tol):
                raise ValueError(
                    f"pair is not conjugate: Cauchy-Riemann residual {float(bad):.6g}"
                )
        self.u = u
        self.v = v

    @classmethod
    def from_leaves(cls, u_leaves, v_leaves, root=None, **kw):
        return cls(
            PiecewiseConstant(u_leaves, root), PiecewiseConstant(v_leaves, root), **kw
        )

    @property
    def depth(self) -> int:
        return self.u.depth

    @property
    def root(self) -> DyadicInterval:
        return self.u.root

    @property
    def exact(self) -> bool:
        return self.u.exact and self.v.exact

    @property
    def is_normalized(self) -> bool:
        """True when the conjugate part has mean zero."""
        return self.v.root_average == 0

    def average(self, I: DyadicInterval) -> complex:
        return complex(float(self.u.average(I)), float(self.v.average(I)))

    def norm2(self):
        """Integral of u**2 + v**2 over the tree root."""
        return self.u.norm2() + self.v.norm2()

    def second_moment(self, I: DyadicInterval):
        """Average of u**2 + v**2 over a tree interval."""
        r, j = self.u.pc.rel_position(I)
        span = self.depth - r
        lo, hi = j << span, (j + 1) << span
        ul, vl = self.u.leaves, self.v.leaves
        total = sum(ul[t] * ul[t] + vl[t] * vl[t] for t in range(lo, hi))
        return total / (1 << span)

    def rotated(self, theta: float) -> "DyadicAnalytic":
        """Multiply u + iv by exp(i * theta)."""
        c, s = math.cos(theta), math.sin(theta)
        ul = [c * float(a) - s * float(b) for a, b in zip(self.u.leaves, self.v.leaves)]
        vl = [s * float(a) + c * float(b) for a, b in zip(self.u.leaves, self.v.leaves)]
        return DyadicAnalytic.from_leaves(ul, vl, self.root, validate=False)

    def __repr__(self):
        return f"DyadicAnalytic(depth={self.depth}, root={self.root.id})"


def conjugate(u) -> DyadicAnalytic:
    """Canonical conjugate pair (u, s0(u)); the conjugate part has mean zero."""
    um = u if isinstance(u, SlicedMartingale) else SlicedMartingale(_as_pc(u))
    return DyadicAnalytic(um, s0(um), validate=False)


def _odd_generation_part(pc: PiecewiseConstant) -> PiecewiseConstant:
    """Mean-zero sliced component: keep only jumps entering even generations.

    Equivalently drop the root average and every jump across a 4-adic split,
    keeping the jumps whose parent sits at odd relative level 1, 3, ...
    """
    pyr = pc.pyramid()
    cur = [zero(pc.exact)]
    for m in range(pc.depth):
        row = pyr[m + 1]
        keep = m % 2 == 1
        nxt = []
        for j, w in enumerate(cur):
            if keep:
                half = (row[2 * j + 1] - row[2 * j]) / 2
                nxt.extend((w - half, w + half))
            else:
                nxt.extend((w, w))
        cur = nxt
    return PiecewiseConstant(cur, pc.root)


def analytic_projection(re, im=None) -> DyadicAnalytic:
    """Nearest conjugate pair to an arbitrary pair of trees.

    Orthogonally projects (in the L2 pair metric) onto the space of conjugate
    pairs: keeps both means, averages the sliced parts of the input with the
    rotation-compatible combination, and discards everything else.  Already
    conjugate pairs are fixed points, and the map is idempotent.
    """
    a = _as_pc(re)
    if im is None:
        b = PiecewiseConstant.constant(zero(a.exact), a.depth, a.root)
    else:
        b = _as_pc(im)
        a._require_same_grid(b)
    a0, b0 = a.root_average, b.root_average
    a_odd = SlicedMartingale(_odd_generation_part(a), validate=False)
    b_odd = SlicedMartingale(_odd_generation_part(b), validate=False)
    rot_a = s0(a_odd)
    rot_b = s0(b_odd)
    u_leaves = [a0 + (ao - rb) / 2 for ao, rb in zip(a_odd.leaves, rot_b.leaves)]
    v_leaves = [b0 + (bo + ra) / 2 for bo, ra in zip(b_odd.leaves, rot_a.leaves)]
    return DyadicAnalytic.from_leaves(u_leaves, v_leaves, a.root, validate=False)


def random_sliced(
    rng,
    depth: int,
    root: DyadicInterval | None = None,
    denom_bits: int = 6,
    amplitude: int = 4,
) -> SlicedMartingale:
    """Random sliced martingale with exact dyadic rational leaves.

    Jumps are drawn only across 4-adic splits, so the slicing constraint
    holds by construction and all residual checks downstream are exact.
    """
    root = root if root is not None else unit_root()
    if depth % 2:
        raise ValueError("depth must be even")
    scale = Fraction(amplitude, 1 << denom_bits)

    def draw():
        return (rng.getrandbits(denom_bits + 1) - (1 << denom_bits)) * scale

    w0 = draw()
    rows = [[(draw(), draw()) for _ in range(1 << k)] for k in range(0, depth, 2)]
    return _sliced_from_increments(w0, rows, root)


def random_analytic(
    rng,
    depth: int,
    root: DyadicInterval | None = None,
    denom_bits: int = 6,
    amplitude: int = 4,
) -> DyadicAnalytic:
    """Random conjugate pair; the conjugate part gets an independent mean."""
    u = random_sliced(rng, depth, root, denom_bits, amplitude)
    v0 = Fraction(rng.getrandbits(denom_bits + 1) - (1 << denom_bits), 1 << denom_bits)
    v = s0(u).shifted(v0)
    return DyadicAnalytic(u, v, validate=False)


def analytic_to_json(f: DyadicAnalytic) -> dict:
    return {"u": tree_to_json(f.u.pc), "v": tree_to_json(f.v.pc)}


def analytic_from_json(obj: dict, tol=DEFAULT_TOL) -> DyadicAnalytic:
    if not isinstance(obj, dict) or "u" not in obj or "v" not in obj:
        raise ValueError("conjugate pair object must carry u and v trees")
    return DyadicAnalytic(tree_from_json(obj["u"]), tree_from_json(obj["v"]), tol=tol)
