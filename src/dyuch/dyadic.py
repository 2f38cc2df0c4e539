"""Exact dyadic interval trees, piecewise constant functions, and Haar values.

Intervals are integer (level, index) pairs, never floating endpoints: the
interval at level l, index n is [n * 2**-l, (n + 1) * 2**-l).  Level parity
splits the grid into even (4-adic) and odd generations; every structural
quantity (averages, pair means) is computed in exact rational arithmetic,
with doubles only where square roots or exponentials force them.

Haar data is one value, no transform: haar_inner_indicator is the average
of h_J over an interval, as a double.

The number policy lives here for every module: as_numerators decides a
tree's or measure's mode (all int/Fraction data is exact and kept as int
numerators over one denominator, anything else is finite floats), ratio
turns a numerator back into a value, zero, mode_tol and level_step give
each mode's zero, structural slack and pyramid step, and json_number,
root_to_json and root_from_json are the one JSON codec for trees and
measures.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

UNIT = "unit"
REAL_LINE = "real_line"

DEFAULT_TOL = 1e-12
MAX_FLOAT_LEVEL = sys.float_info.max_exp - 1  # the deepest level l whose 2.0 ** l is a float


def is_exact(value) -> bool:
    """True for values that participate in exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _number_fault(value):
    if isinstance(value, (str, bool)):
        return "not a number"
    try:
        return None if math.isfinite(float(value)) else "not finite"
    except (TypeError, ValueError):
        return "not a number"


def as_numerators(values, what: str, den=1):
    """The number policy: (numerators, den, exact) for the data values[t] / den.

    All int and Fraction input is exact: int numerators over one denominator,
    den times the lcm of the values' own.  Any other input makes every value
    a finite float over 1.  Strings, bools, other non-numbers and non-finite
    values raise ValueError naming the first offending index; a value too
    large for a float raises OverflowError.
    """
    vals = list(values)
    if set(map(type, vals)) <= {int, Fraction} or all(map(is_exact, vals)):
        lcm = math.lcm(*[v.denominator for v in vals])
        return [v.numerator * (lcm // v.denominator) for v in vals], den * lcm, True
    if not any(issubclass(k, (str, bool)) for k in set(map(type, vals))):
        try:
            out = [float(v) / den for v in vals]
        except (TypeError, ValueError):
            out = None
        if out is not None and all(map(math.isfinite, out)):
            return out, 1, False
    for t, v in enumerate(vals):
        fault = _number_fault(v)
        if fault:
            raise ValueError(f"{what} {t} is {v!r}, which is {fault}")


def ratio(num, den, exact: bool):
    """The value num / den of a mode: a Fraction when exact, else a float."""
    return Fraction(num, den) if exact else num / den


def zero(exact: bool):
    """The zero of a numeric mode: Fraction(0) when exact, else 0.0."""
    return Fraction(0) if exact else 0.0


def mode_tol(exact: bool):
    """The structural slack of a numeric mode: none when exact, else DEFAULT_TOL."""
    return 0 if exact else DEFAULT_TOL


def level_step(exact: bool):
    """(half, grow): how a sum pyramid moves up one tree level.  Exact sums stay
    integers (half 1) over a denominator that doubles (grow 2); float sums are
    halved and stay averages over 1, so they overflow only where averages do."""
    return (1, 2) if exact else (0.5, 1)


def left_sum(values):
    """sum(values) as a plain left fold from 0, the same bits on every Python:
    from 3.12 on, the builtin sum rounds a float total with compensation."""
    total = 0
    for v in values:
        total += v
    return total


def nan_min(values):
    """Smallest value (inf for none); a NaN wins and sticks, where the
    builtin min drops a NaN that is not first."""
    least = math.inf
    for v in values:
        if least == least and not v >= least:
            least = v
    return least


def _sum_pyramid(nums, exact: bool):
    """Leaf row nums and its pair sums times level_step's half, root row first."""
    half = level_step(exact)[0]
    levels = [nums]
    while len(levels[-1]) > 1:
        pairs = iter(levels[-1])
        levels.append(tuple([(a + b) * half for a, b in zip(pairs, pairs)]))
    return levels[::-1]


def dyadic_length(level: int) -> Fraction:
    """Exact length 2**-level of an interval at the given level."""
    if level >= 0:
        return Fraction(1, 1 << level)
    return Fraction(1 << (-level))


def check_node(level: int, index: int, base: str = UNIT, ancestor_levels: int = 0) -> None:
    """Raise ValueError unless (level, index) is an interval of the base's tree.

    The unit tree is rooted at level 0; a real_line window of ancestor_levels
    at level -2 * ancestor_levels.  The index range is checked with a shift,
    so no power of two as wide as the window is ever built.
    """
    if base == UNIT:
        if ancestor_levels:
            raise ValueError("unit base carries no ancestor levels")
        if level < 0:
            raise ValueError("unit base requires level >= 0")
        span = level
    elif base == REAL_LINE:
        if ancestor_levels < 0:
            raise ValueError("ancestor_levels must be nonnegative")
        span = level + 2 * ancestor_levels
        if span < 0:
            raise ValueError(f"level {level} above the window root {-2 * ancestor_levels}")
    else:
        raise ValueError(f"unknown base {base!r}")
    if index < 0 or index >> span:
        raise ValueError(f"index {index} outside the window at level {level}")


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
        check_node(self.level, self.index, self.base, self.ancestor_levels)

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
    def is_four_adic(self) -> bool:
        return self.level % 2 == 0

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

    def sibling(self) -> "DyadicInterval":
        if self.is_root:
            raise ValueError(f"{self.id} is the tree root and has no sibling")
        return self._make(self.level, self.index ^ 1)

    def sigma(self) -> int:
        """+1 for a right (plus) child, -1 for a left (minus) child."""
        if self.is_root:
            raise ValueError(f"{self.id} is the tree root and has no parent side")
        return 1 if self.index & 1 else -1

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


def unit_root() -> DyadicInterval:
    return DyadicInterval(0, 0)


def window_root(ancestor_levels: int) -> DyadicInterval:
    """Root of the truncated real-line window with the given ancestor budget."""
    return DyadicInterval(-2 * ancestor_levels, 0, REAL_LINE, ancestor_levels)


def node_from_id(text: str, base: str = UNIT, ancestor_levels: int = 0):
    """(level, index) of the canonical id string L{level}N{index}, checked by
    check_node against the base's tree, without building an interval."""
    if not text.startswith("L") or "N" not in text:
        raise ValueError(f"malformed interval id {text!r}")
    lev, _, idx = text[1:].partition("N")
    try:
        level, index = int(lev), int(idx)
        check_node(level, index, base, ancestor_levels)
    except ValueError as exc:
        raise ValueError(f"malformed interval id {text!r}: {exc}") from exc
    canonical = f"L{level}N{index}"
    if canonical != text:
        raise ValueError(f"interval id {text!r} is not canonical (write {canonical})")
    return level, index


def interval_from_id(text: str, base: str = UNIT, ancestor_levels: int = 0) -> DyadicInterval:
    """Parse the canonical id string L{level}N{index}."""
    return DyadicInterval(*node_from_id(text, base, ancestor_levels), base, ancestor_levels)


def haar_inner_indicator(I: DyadicInterval, J: DyadicInterval) -> float:
    """Average of the Haar function h_J over I.

    Equals +-|J|**-1/2 when J strictly contains I (positive exactly when I
    sits in the right half of J) and 0 otherwise, h_J having mean zero.
    """
    if not J.contains(I) or J == I:
        return 0.0
    sign = 1 if I.ancestor_at(J.level + 1).index & 1 else -1
    return sign * math.sqrt(2.0 ** J.level)


class PiecewiseConstant:
    """Function constant on the 2**depth leaf cells below a 4-adic root interval.

    Leaves are stored left to right as numerators nums over one denominator
    den, as as_numerators reads them: integer and Fraction leaves put the
    function in exact mode (int numerators), any other leaf switches the
    whole tree to finite doubles over 1.  Values leave as Fractions or floats.
    """

    __slots__ = ("nums", "den", "depth", "root", "exact", "_leaves", "_pyramid", "_floats",
                 "_norm2")

    def __init__(self, leaves, root: DyadicInterval | None = None):
        self._set(leaves, 1, root)

    @classmethod
    def from_numerators(cls, nums, den, root: DyadicInterval | None = None):
        """The tree with leaves nums[t] / den, read by as_numerators."""
        pc = cls.__new__(cls)
        pc._set(nums, den, root)
        return pc

    def _set(self, values, den, root):
        root = root if root is not None else unit_root()
        if not root.is_four_adic:
            raise ValueError("tree root must be 4-adic")
        nums, den, exact = as_numerators(values, "leaf", den)
        n = len(nums)
        depth = n.bit_length() - 1
        if n == 0 or (1 << depth) != n:
            raise ValueError(f"leaf count {n} is not a power of two")
        if depth % 2:
            raise ValueError(f"depth {depth} is odd; trees must have even depth")
        self.nums, self.den, self.depth = tuple(nums), den, depth
        self.root, self.exact = root, exact
        self._leaves = self._pyramid = self._floats = self._norm2 = None

    @classmethod
    def constant(cls, value, depth: int, root: DyadicInterval | None = None):
        return cls([value] * (1 << depth), root)

    @property
    def leaves(self):
        """Leaf values left to right: Fractions when exact, else floats."""
        if self._leaves is None:
            self._leaves = tuple(ratio(n, self.den, self.exact) for n in self.nums)
        return self._leaves

    @property
    def leaf_level(self) -> int:
        return self.root.level + self.depth

    def pyramid(self):
        """Sums at every relative level 0..depth, finest last: the average over
        node (r, j) is pyramid()[r][j] / den_at(r).  Exact trees keep integer
        subtree sums, float trees the averages themselves (see level_step)."""
        if self._pyramid is None:
            self._pyramid = _sum_pyramid(self.nums, self.exact)
        return self._pyramid

    def den_at(self, r: int):
        """Denominator of the pyramid row at relative level r."""
        return self.den * level_step(self.exact)[1] ** (self.depth - r)

    def float_pyramid(self):
        """The averages of pyramid() as correctly rounded floats."""
        if self._floats is None:
            dens = map(self.den_at, range(self.depth + 1))
            self._floats = [[p / d for p in row] for row, d in zip(self.pyramid(), dens)]
        return self._floats

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
        return ratio(self.pyramid()[r][j], self.den_at(r), self.exact)

    @property
    def root_average(self):
        return ratio(self.pyramid()[0][0], self.den_at(0), self.exact)

    def l2_norm2(self):
        """Integral of the square over the tree root, computed once."""
        if self._norm2 is None:
            self._norm2 = self.inner(self)
        return self._norm2

    def inner(self, other: "PiecewiseConstant"):
        self._require_same_grid(other)
        total = 0  # a left fold; see left_sum
        for a, b in zip(self.nums, other.nums):
            total += a * b
        exact = self.exact and other.exact
        return ratio(total, self.den * other.den, exact) * dyadic_length(self.leaf_level)

    def _require_same_grid(self, other):
        if self.root != other.root or self.depth != other.depth:
            raise ValueError("functions live on different grids")

    def _combine(self, other, sign):
        # self + sign * other, on one denominator
        self._require_same_grid(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        nums = [x * a + y * b for x, y in zip(self.nums, other.nums)]
        return self.from_numerators(nums, den, self.root)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        (a,), b, _ = as_numerators([c], "scale factor")
        return self.from_numerators([a * n for n in self.nums], self.den * b, self.root)

    def shift(self, c):
        (a,), b, _ = as_numerators([c], "shift")
        den = math.lcm(self.den, b)
        s, add = den // self.den, a * (den // b)
        return self.from_numerators([n * s + add for n in self.nums], den, self.root)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseConstant):
            return NotImplemented
        return self.root == other.root and self.leaves == other.leaves

    def __repr__(self):
        return f"{type(self).__name__}(depth={self.depth}, root={self.root.id})"


def json_number(value):
    """A value as written to JSON: integral Fractions as ints, all else as floats."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return float(value)


def root_to_json(root: DyadicInterval, **fields) -> dict:
    """JSON object for data on a base root: base, the fields, then a window's
    ancestor_levels, in that key order."""
    if not root.is_root:
        raise ValueError("only data rooted at the base root is serialized")
    out = {"base": root.base, **fields}
    if root.base == REAL_LINE:
        out["ancestor_levels"] = root.ancestor_levels
    return out


def _json_int(obj: dict, key: str, default):
    value = obj.get(key, default)
    if value is not default and type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def root_from_json(obj: dict):
    """(root, declared depth or None) from a tree or measure object.

    base defaults to unit; a real_line window reads an integer
    ancestor_levels (default 0), and a declared depth must be an integer.
    """
    base = obj.get("base", UNIT)
    if base == UNIT:
        root = unit_root()
    elif base == REAL_LINE:
        root = window_root(_json_int(obj, "ancestor_levels", 0))
    else:
        raise ValueError(f"unknown base {base!r}")
    return root, _json_int(obj, "depth", None)


def tree_to_json(pc: PiecewiseConstant) -> dict:
    """Canonical JSON form of a tree rooted at the base root."""
    return root_to_json(pc.root, depth=pc.depth, leaves=[json_number(v) for v in pc.leaves])


def tree_from_json(obj: dict) -> PiecewiseConstant:
    """Parse the canonical tree form, validating shape and parity."""
    if not isinstance(obj, dict) or "leaves" not in obj:
        raise ValueError("tree object must carry a leaves array")
    root, declared = root_from_json(obj)
    leaves = obj["leaves"]
    if not isinstance(leaves, list) or not leaves:
        raise ValueError("leaves must be a nonempty array")
    pc = PiecewiseConstant(leaves, root)
    if declared is not None and declared != pc.depth:
        raise ValueError(f"declared depth {declared} does not match {pc.depth} leaves")
    return pc
