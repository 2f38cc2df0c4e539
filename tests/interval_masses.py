"""Test helpers: measures written as interval-keyed mass tables {I: m}, and
the process a balanced measure pairs with, both ways.

DiscreteMeasure is built from (r, j) rows; measure_of maps a table to rows
and validates nothing itself, so every check is the constructor's.
"""
from fractions import Fraction

from dyuch.carleson import DiscreteMeasure
from dyuch.dyadic import unit_root


def measure_of(masses, root=None, depth=None):
    """The measure of {I: m} below root (the unit interval by default), each
    I passed as its (relative level, index) below root."""
    root = root if root is not None else unit_root()
    nodes = []
    for I in masses:
        r = I.level - root.level
        nodes.append((r, I.index - (root.index << r)))
    return DiscreteMeasure(root, depth, nodes, list(masses.values()))


def pairing_rows(mu, flip=1):
    """The process paired with a balanced measure, as rows: rows[k][j] is
    flip * S(I)/|I| at node (2k, j), in the measure's mode; flip 1 gives the
    nonnegative supermartingale, -1 the nonpositive submartingale."""
    mu.require_balanced()
    top = mu.root.level
    return [[flip * mu._value(sums.get(j, 0), top + 2 * k) for j in range(1 << 2 * k)]
            for k, sums in enumerate(mu.sums)]


def measure_from_rows(rows, flip=1, root=None):
    """The inverse of pairing_rows, unchecked: the mass at node (2k, j) below
    root (the unit interval by default) is its drift, flip times its value
    less the mean of its quarters' values (none below the bottom), times |I|."""
    root = root if root is not None else unit_root()
    nodes, masses = [], []
    for k, row in enumerate(rows):
        below = rows[k + 1] if k + 1 < len(rows) else None
        for j, v in enumerate(row):
            drift = v - (sum(below[4 * j:4 * j + 4]) / 4 if below is not None else 0)
            nodes.append((2 * k, j))
            masses.append(flip * drift * Fraction(2) ** -(root.level + 2 * k))
    return DiscreteMeasure(root, 2 * (len(rows) - 1), nodes, masses)
