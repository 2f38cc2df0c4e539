"""Test helper: measures written as interval-keyed mass tables {I: m}.

DiscreteMeasure is built from (r, j) rows; measure_of maps a table to rows
and validates nothing itself, so every check is the constructor's.
"""
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
