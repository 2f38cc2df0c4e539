"""Exact dyadic interval trees, piecewise constant functions, and Haar analysis.

Intervals are integer (level, index) pairs, never floating endpoints: the
interval at level l, index n is [n * 2**-l, (n + 1) * 2**-l).  Level parity
splits the grid into even (4-adic) and odd generations; every structural
quantity (averages, pair means, Haar data of dyadic-rational inputs) is
computed in exact rational arithmetic, with doubles only where square roots
or exponentials force them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

UNIT = "unit"
REAL_LINE = "real_line"

DEFAULT_TOL = 1e-12


def is_exact(value) -> bool:
    """True for values that participate in exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def dyadic_length(level: int) -> Fraction:
    """Exact length 2**-level of an interval at the given level."""
    if level >= 0:
        return Fraction(1, 1 << level)
    return Fraction(1 << (-level))


class Root2:
    """Exact element a + b*sqrt(2) of the quadratic field Q[sqrt(2)].

    Haar leaf values are +-2**(level/2); carrying the sqrt(2) part separately
    keeps orthonormality, Plancherel, and coefficient checks exact whenever
    the input data is dyadic rational.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @classmethod
    def half_power(cls, k: int) -> "Root2":
        """2**(k/2) as an exact value, for any integer k."""
        if k % 2 == 0:
            return cls(Fraction(2) ** (k // 2), 0)
        return cls(0, Fraction(2) ** ((k - 1) // 2))

    def _coerce(self, other):
        if isinstance(other, Root2):
            return other
        if is_exact(other):
            return Root2(other, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Root2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Root2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Root2(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Root2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __repr__(self):
        return f"Root2({self.a!s}, {self.b!s})"


@dataclass(frozen=True)
class DyadicInterval:
    """Dyadic interval [index * 2**-level, (index + 1) * 2**-level).

    On the unit base the tree is rooted at [0, 1); on the real-line base the
    tree is a truncated window of 4**ancestor_levels unit cells whose root
    sits at level -2 * ancestor_levels.  Operations reject intervals that
    leave the window.
    """

    level: int
    index: int
    base: str = UNIT
    ancestor_levels: int = 0

    def __post_init__(self):
        if self.base == UNIT:
            if self.ancestor_levels:
                raise ValueError("unit base carries no ancestor levels")
            if self.level < 0:
                raise ValueError("unit base requires level >= 0")
        elif self.base == REAL_LINE:
            if self.ancestor_levels < 0:
                raise ValueError("ancestor_levels must be nonnegative")
            if self.level < self.root_level:
                raise ValueError(
                    f"level {self.level} above the window root {self.root_level}"
                )
        else:
            raise ValueError(f"unknown base {self.base!r}")
        span = self.level - self.root_level
        if not 0 <= self.index < (1 << span):
            raise ValueError(
                f"index {self.index} outside the window at level {self.level}"
            )

    @property
    def root_level(self) -> int:
        return 0 if self.base == UNIT else -2 * self.ancestor_levels

    @property
    def is_root(self) -> bool:
        return self.level == self.root_level

    @property
    def length(self) -> Fraction:
        return dyadic_length(self.level)

    @property
    def left(self) -> Fraction:
        return self.index * self.length

    @property
    def right(self) -> Fraction:
        return (self.index + 1) * self.length

    @property
    def parity(self) -> int:
        return self.level % 2

    @property
    def is_four_adic(self) -> bool:
        return self.parity == 0

    @property
    def id(self) -> str:
        return f"L{self.level}N{self.index}"

    def _make(self, level: int, index: int) -> "DyadicInterval":
        return DyadicInterval(level, index, self.base, self.ancestor_levels)

    def halves(self):
        """Left and right halves (I_minus, I_plus); for 4-adic I the y and x halves."""
        return (
            self._make(self.level + 1, 2 * self.index),
            self._make(self.level + 1, 2 * self.index + 1),
        )

    def grandchildren(self):
        """The four 4-adic grandchildren (y-, y+, x-, x+), left to right."""
        if not self.is_four_adic:
            raise ValueError(f"{self.id} has odd parity; grandchildren need a 4-adic node")
        base4 = 4 * self.index
        lev = self.level + 2
        return tuple(self._make(lev, base4 + j) for j in range(4))

    def parent(self) -> "DyadicInterval":
        if self.is_root:
            raise ValueError(f"{self.id} is the tree root and has no parent")
        return self._make(self.level - 1, self.index // 2)

    def sibling(self) -> "DyadicInterval":
        if self.is_root:
            raise ValueError(f"{self.id} is the tree root and has no sibling")
        return self._make(self.level, self.index ^ 1)

    def sigma(self) -> int:
        """+1 for a right (plus) child, -1 for a left (minus) child."""
        if self.is_root:
            raise ValueError(f"{self.id} is the tree root and has no parent side")
        return 1 if self.index & 1 else -1

    def child(self, side: int) -> "DyadicInterval":
        return self.halves()[1 if side > 0 else 0]

    def descendant(self, rel_level: int, offset: int) -> "DyadicInterval":
        """Descendant rel_level generations down, offset cells from the left edge."""
        return self._make(self.level + rel_level, (self.index << rel_level) + offset)

    def ancestor_at(self, level: int) -> "DyadicInterval":
        if level > self.level or level < self.root_level:
            raise ValueError(f"no ancestor of {self.id} at level {level}")
        return self._make(level, self.index >> (self.level - level))

    def _same_tree(self, other: "DyadicInterval") -> None:
        if self.base != other.base or self.ancestor_levels != other.ancestor_levels:
            raise ValueError("intervals belong to different trees")

    def contains(self, other: "DyadicInterval") -> bool:
        self._same_tree(other)
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def disjoint(self, other: "DyadicInterval") -> bool:
        return not self.contains(other) and not other.contains(self)

    def __str__(self):
        return f"[{self.left}, {self.right})"


def unit_root() -> DyadicInterval:
    return DyadicInterval(0, 0)


def window_root(ancestor_levels: int) -> DyadicInterval:
    """Root of the truncated real-line window with the given ancestor budget."""
    return DyadicInterval(-2 * ancestor_levels, 0, REAL_LINE, ancestor_levels)


def interval_from_id(text: str, base: str = UNIT, ancestor_levels: int = 0) -> DyadicInterval:
    """Parse the canonical id string L{level}N{index}."""
    if not text.startswith("L") or "N" not in text:
        raise ValueError(f"malformed interval id {text!r}")
    lev, _, idx = text[1:].partition("N")
    try:
        return DyadicInterval(int(lev), int(idx), base, ancestor_levels)
    except ValueError as exc:
        raise ValueError(f"malformed interval id {text!r}: {exc}") from exc


def four_adic_nodes(root: DyadicInterval, max_rel_level: int):
    """All 4-adic descendants of root at relative levels 0, 2, ..., max_rel_level."""
    for k in range(0, max_rel_level + 1, 2):
        for j in range(1 << k):
            yield root.descendant(k, j)


def haar_inner_indicator(I: DyadicInterval, J: DyadicInterval) -> float:
    """Average of the Haar function h_J over I.

    Equals +-|J|**-1/2 when J strictly contains I (positive exactly when I
    sits in the right half of J) and 0 otherwise, h_J having mean zero.
    """
    sign = haar_sign_on(I, J)
    if sign == 0:
        return 0.0
    return sign * math.sqrt(2.0 ** J.level)


def haar_sign_on(I: DyadicInterval, J: DyadicInterval) -> int:
    """Sign of h_J on I (+1, -1) when J strictly contains I, else 0."""
    if not J.contains(I) or J == I:
        return 0
    anc = I.ancestor_at(J.level + 1)
    return 1 if anc.index & 1 else -1


class PiecewiseConstant:
    """Function constant on the 2**depth leaf cells below a 4-adic root interval.

    Leaves are stored left to right.  Integer and Fraction leaves put the
    function in exact mode; any float leaf switches the whole tree to doubles,
    and every double must be finite.
    """

    __slots__ = ("leaves", "depth", "root", "exact", "_pyramid")

    def __init__(self, leaves, root: DyadicInterval | None = None):
        root = root if root is not None else unit_root()
        if not root.is_four_adic:
            raise ValueError("tree root must be 4-adic")
        vals = list(leaves)
        n = len(vals)
        depth = n.bit_length() - 1
        if n == 0 or (1 << depth) != n:
            raise ValueError(f"leaf count {n} is not a power of two")
        if depth % 2:
            raise ValueError(f"depth {depth} is odd; trees must have even depth")
        if all(is_exact(v) for v in vals):
            vals = [v if isinstance(v, Fraction) else Fraction(v) for v in vals]
            exact = True
        else:
            vals = [float(v) for v in vals]
            if not all(map(math.isfinite, vals)):
                bad = next(t for t, v in enumerate(vals) if not math.isfinite(v))
                raise ValueError(f"leaf {bad} is {vals[bad]!r}; leaves must be finite")
            exact = False
        self.leaves = tuple(vals)
        self.depth = depth
        self.root = root
        self.exact = exact
        self._pyramid = None

    @classmethod
    def constant(cls, value, depth: int, root: DyadicInterval | None = None):
        return cls([value] * (1 << depth), root)

    @property
    def leaf_level(self) -> int:
        return self.root.level + self.depth

    def pyramid(self):
        """Averages at every relative level 0..depth, finest last."""
        if self._pyramid is None:
            levels = [self.leaves]
            cur = self.leaves
            while len(cur) > 1:
                cur = tuple((cur[2 * j] + cur[2 * j + 1]) / 2 for j in range(len(cur) // 2))
                levels.append(cur)
            levels.reverse()
            self._pyramid = levels
        return self._pyramid

    def rel_position(self, I: DyadicInterval):
        self.root._same_tree(I)
        r = I.level - self.root.level
        if not 0 <= r <= self.depth:
            raise ValueError(f"{I.id} outside the tree levels of this function")
        j = I.index - (self.root.index << r)
        if not 0 <= j < (1 << r):
            raise ValueError(f"{I.id} lies outside the tree root {self.root.id}")
        return r, j

    def average(self, I: DyadicInterval):
        """Mean of the function over a tree interval, exact for rational data."""
        r, j = self.rel_position(I)
        return self.pyramid()[r][j]

    @property
    def root_average(self):
        return self.pyramid()[0][0]

    def l2_norm2(self):
        """Integral of the square over the tree root."""
        meas = dyadic_length(self.leaf_level)
        return sum(v * v for v in self.leaves) * meas

    def inner(self, other: "PiecewiseConstant"):
        self._require_same_grid(other)
        meas = dyadic_length(self.leaf_level)
        return sum(a * b for a, b in zip(self.leaves, other.leaves)) * meas

    def _require_same_grid(self, other):
        if self.root != other.root or self.depth != other.depth:
            raise ValueError("functions live on different grids")

    def __add__(self, other):
        self._require_same_grid(other)
        return PiecewiseConstant([a + b for a, b in zip(self.leaves, other.leaves)], self.root)

    def __sub__(self, other):
        self._require_same_grid(other)
        return PiecewiseConstant([a - b for a, b in zip(self.leaves, other.leaves)], self.root)

    def scale(self, c):
        return PiecewiseConstant([c * v for v in self.leaves], self.root)

    def shift(self, c):
        return PiecewiseConstant([v + c for v in self.leaves], self.root)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseConstant):
            return NotImplemented
        return self.root == other.root and self.leaves == other.leaves

    def __repr__(self):
        return f"PiecewiseConstant(depth={self.depth}, root={self.root.id})"


@dataclass
class HaarCoefficients:
    """Haar transform of a piecewise constant tree: root average plus one
    coefficient per interval strictly above the leaf level.

    Exact-mode coefficients are Root2 values (each is rational times a half
    power of two); float mode stores doubles.
    """

    root: DyadicInterval
    depth: int
    root_average: object
    coeffs: dict
    exact: bool


def haar_coefficient(pc: PiecewiseConstant, J: DyadicInterval) -> float:
    """Single Haar coefficient <f, h_J> as a double."""
    minus, plus = J.halves()
    half_diff = (float(pc.average(plus)) - float(pc.average(minus))) / 2.0
    return half_diff * math.sqrt(2.0 ** (-J.level))


def haar_coefficients(pc: PiecewiseConstant) -> HaarCoefficients:
    """Full Haar transform; exact over Q[sqrt(2)] for rational leaves."""
    pyr = pc.pyramid()
    coeffs = {}
    for m in range(pc.depth):
        abs_level = pc.root.level + m
        if pc.exact:
            size = Root2.half_power(-abs_level)
        else:
            size = math.sqrt(2.0 ** (-abs_level))
        row = pyr[m + 1]
        for j in range(1 << m):
            half_diff = (row[2 * j + 1] - row[2 * j]) / 2
            coeffs[pc.root.descendant(m, j)] = size * half_diff
    return HaarCoefficients(pc.root, pc.depth, pyr[0][0], coeffs, pc.exact)


def reconstruct_from_haar(hc: HaarCoefficients) -> PiecewiseConstant:
    """Invert haar_coefficients exactly."""
    cur = [hc.root_average]
    for m in range(hc.depth):
        abs_level = hc.root.level + m
        nxt = []
        for j, v in enumerate(cur):
            c = hc.coeffs[hc.root.descendant(m, j)]
            if hc.exact:
                half_diff = (Root2.half_power(abs_level) * c)
                if not half_diff.is_rational:
                    raise ValueError("coefficient is not rational times |J|**-1/2")
                half_diff = half_diff.a
            else:
                half_diff = c * math.sqrt(2.0 ** abs_level)
            nxt.append(v - half_diff)
            nxt.append(v + half_diff)
        cur = nxt
    return PiecewiseConstant(cur, hc.root)


def plancherel_norm2(hc: HaarCoefficients):
    """Squared L2 norm from the transform: root term plus coefficient squares."""
    root_meas = dyadic_length(hc.root.level)
    total = hc.root_average * hc.root_average * root_meas
    for c in hc.coeffs.values():
        if isinstance(c, Root2):
            sq = c * c
            if not sq.is_rational:
                raise ValueError("coefficient square left the rationals")
            total += sq.a
        else:
            total += c * c
    return total


def tree_to_json(pc: PiecewiseConstant) -> dict:
    """Canonical JSON form of a tree rooted at the base root."""
    if not pc.root.is_root:
        raise ValueError("only trees rooted at the base root are serialized")
    leaves = []
    for v in pc.leaves:
        if pc.exact and v.denominator == 1:
            leaves.append(int(v))
        else:
            leaves.append(float(v))
    out = {"base": pc.root.base, "depth": pc.depth, "leaves": leaves}
    if pc.root.base == REAL_LINE:
        out["ancestor_levels"] = pc.root.ancestor_levels
    return out


def tree_from_json(obj: dict) -> PiecewiseConstant:
    """Parse the canonical tree form, validating shape and parity."""
    if not isinstance(obj, dict) or "leaves" not in obj:
        raise ValueError("tree object must carry a leaves array")
    base = obj.get("base", UNIT)
    if base == REAL_LINE:
        root = window_root(int(obj.get("ancestor_levels", 0)))
    elif base == UNIT:
        root = unit_root()
    else:
        raise ValueError(f"unknown base {base!r}")
    leaves = obj["leaves"]
    if not isinstance(leaves, list) or not leaves:
        raise ValueError("leaves must be a nonempty array")
    pc = PiecewiseConstant(leaves, root)
    declared = obj.get("depth")
    if declared is not None and declared != pc.depth:
        raise ValueError(f"declared depth {declared} does not match {pc.depth} leaves")
    return pc
