import math
import random
from fractions import Fraction

import pytest

from dyuch.dyadic import (
    REAL_LINE,
    DyadicInterval,
    PiecewiseConstant,
    dyadic_length,
    haar_inner_indicator,
    interval_from_id,
    left_sum,
    tree_from_json,
    tree_to_json,
    unit_root,
    window_root,
)
from kernel_reference import haar_coefficient


def haar_leaves(J, depth, root):
    # h_J sampled on the leaf cells of the tree, brute force
    size = math.sqrt(1.0 / float(J.length))
    out = []
    for j in range(1 << depth):
        cell = root.descendant(depth, j)
        if not J.contains(cell) or J == cell:
            if J.contains(cell):
                raise AssertionError("sample cells must be strictly finer")
            out.append(0.0)
        else:
            side = cell.ancestor_at(J.level + 1).index & 1
            out.append(size if side else -size)
    return out


class TestInterval:
    def test_geometry(self):
        I = DyadicInterval(3, 5)
        assert I.length == Fraction(1, 8)
        assert not I.is_four_adic
        assert DyadicInterval(2, 1).is_four_adic
        assert I.id == "L3N5"

    def test_unit_validation(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)
        with pytest.raises(ValueError):
            DyadicInterval(2, 4)
        with pytest.raises(ValueError):
            DyadicInterval(2, -1)
        with pytest.raises(ValueError):
            DyadicInterval(0, 0, ancestor_levels=1)
        with pytest.raises(ValueError):
            DyadicInterval(0, 0, base="nonsense")

    def test_window_validation(self):
        root = window_root(2)
        assert root.level == -4 and root.index == 0
        assert root.is_root and root.is_four_adic
        assert DyadicInterval(0, 15, REAL_LINE, 2).length == 1
        with pytest.raises(ValueError):
            DyadicInterval(-5, 0, REAL_LINE, 2)
        with pytest.raises(ValueError):
            DyadicInterval(0, 16, REAL_LINE, 2)

    def test_halves_and_grandchildren(self):
        I = DyadicInterval(2, 3)
        lo, hi = I.halves()
        assert (lo.level, lo.index) == (3, 6)
        assert (hi.level, hi.index) == (3, 7)
        gc = [I.descendant(2, q) for q in range(4)]
        assert [g.index for g in gc] == [12, 13, 14, 15]
        assert all(g.level == 4 for g in gc)
        # left pair under the left half, right pair under the right
        assert lo.contains(gc[0]) and lo.contains(gc[1])
        assert hi.contains(gc[2]) and hi.contains(gc[3])

    def test_parent_sibling_sigma(self):
        I = DyadicInterval(3, 5)
        assert I.ancestor_at(I.level - 1) == DyadicInterval(2, 2)
        assert I.sibling() == DyadicInterval(3, 4)
        assert I.sigma() == 1
        assert I.sibling().sigma() == -1
        root = unit_root()
        for fn in (lambda: root.ancestor_at(root.level - 1), root.sibling, root.sigma):
            with pytest.raises(ValueError):
                fn()

    def test_descendant_ancestor_roundtrip(self):
        rng = random.Random(0)
        for _ in range(50):
            lev = rng.randrange(0, 6)
            I = DyadicInterval(lev, rng.randrange(1 << lev))
            k = rng.randrange(0, 4)
            J = I.descendant(k, rng.randrange(1 << k))
            assert J.ancestor_at(I.level) == I
            assert I.contains(J)
            assert not J.contains(I) or k == 0

    def test_contains_disjoint(self):
        a = DyadicInterval(1, 0)
        b = DyadicInterval(2, 1)
        c = DyadicInterval(2, 2)
        assert a.contains(b)
        assert not a.contains(c)
        with pytest.raises(ValueError):
            a.contains(DyadicInterval(1, 0, REAL_LINE, 1))

    def test_id_parse(self):
        I = DyadicInterval(4, 9)
        assert interval_from_id(I.id) == I
        W = DyadicInterval(-1, 3, REAL_LINE, 2)
        assert interval_from_id("L-1N3", REAL_LINE, 2) == W
        for bad in ("x", "L2", "L2Nx", "LN1", "L2N9"):
            with pytest.raises(ValueError):
                interval_from_id(bad)

    @pytest.mark.parametrize(
        "text", ["L02N0", "L+2N0", "L2N00", "L2N+0", "L2N0 ", "L2_0N0", "L-0N0"]
    )
    def test_id_parse_rejects_non_canonical(self, text):
        with pytest.raises(ValueError, match="not canonical"):
            interval_from_id(text)
        assert interval_from_id("L0N0") == unit_root()
        assert interval_from_id("L-1N1", REAL_LINE, 1) == DyadicInterval(-1, 1, REAL_LINE, 1)

    def test_four_adic_enumeration(self):
        # the 4-adic nodes below a root are its descendants (2k, j), j < 4**k
        nodes = [unit_root().descendant(r, j) for r in (0, 2, 4) for j in range(1 << r)]
        assert len(nodes) == 1 + 4 + 16
        assert all(n.is_four_adic for n in nodes)
        assert len(set(nodes)) == len(nodes)

    def test_dyadic_length(self):
        assert dyadic_length(3) == Fraction(1, 8)
        assert dyadic_length(-2) == 4


class TestPiecewiseConstant:
    def test_inner_is_a_plain_left_fold(self):
        # 1e16 + 1.0 rounds back to 1e16: a left fold from 0 loses the 1.0 that a
        # compensated sum (the builtin sum from Python 3.12 on) would keep
        leaves = [1e16, 1.0, -1e16, 1.0, 0.1, -3e15, 2.0, 3e15,
                  0.5, 5e15, 1.0, -5e15, 1e-3, 7.0, -0.25, 1.0]
        fold = 0
        for x in leaves:
            fold += x
        assert fold != math.fsum(leaves)
        f = PiecewiseConstant(leaves, unit_root())
        ones = PiecewiseConstant([1.0] * len(leaves), unit_root())
        assert f.inner(ones) == ones.inner(f) == fold / len(leaves)
        assert left_sum(leaves) == fold

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant([])
        with pytest.raises(ValueError):
            PiecewiseConstant([1, 2, 3])
        with pytest.raises(ValueError):
            PiecewiseConstant([1, 2])  # odd depth
        with pytest.raises(ValueError):
            PiecewiseConstant([1] * 4, root=DyadicInterval(1, 0))

    def test_modes(self):
        exact = PiecewiseConstant([1, Fraction(1, 2), 0, 3])
        assert exact.exact and all(isinstance(v, Fraction) for v in exact.leaves)
        mixed = PiecewiseConstant([1, 0.5, 0, 3])
        assert not mixed.exact and all(isinstance(v, float) for v in mixed.leaves)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_leaves_rejected(self, bad):
        with pytest.raises(ValueError, match="leaf 2 is .*finite"):
            PiecewiseConstant([1, 0.5, bad, 3])
        with pytest.raises(ValueError):
            PiecewiseConstant([1.0, 2.0, 3.0, 4.0]).shift(bad)

    @pytest.mark.parametrize("bad", ["1", "nan", True, None, [1]])
    def test_non_number_leaves_rejected(self, bad):
        for rest in ([1, 0.5, 3], [1, 2, 3]):
            with pytest.raises(ValueError, match="leaf 2 is .*not a number"):
                PiecewiseConstant(rest[:2] + [bad] + rest[2:])

    def test_averages_brute_force(self):
        rng = random.Random(1)
        leaves = [Fraction(rng.randrange(-20, 20), 8) for _ in range(16)]
        pc = PiecewiseConstant(leaves)
        for lev in range(5):
            for idx in range(1 << lev):
                I = DyadicInterval(lev, idx)
                span = 4 - lev
                chunk = leaves[idx << span : (idx + 1) << span]
                assert pc.average(I) == sum(chunk) / len(chunk)
        assert pc.root_average == sum(leaves) / 16

    def test_norm_inner_brute_force(self):
        leaves = [Fraction(k * k - 3, 4) for k in range(16)]
        pc = PiecewiseConstant(leaves)
        assert pc.l2_norm2() == sum(v * v for v in leaves) / 16
        other = PiecewiseConstant([Fraction(1, 2)] * 16)
        assert pc.inner(other) == sum(leaves) / 32

    def test_window_measure(self):
        # leaf cells of a window tree are longer than on the unit base
        root = window_root(1)
        pc = PiecewiseConstant([1] * 4, root)  # leaves at level 0, length 1
        assert pc.l2_norm2() == 4

    def test_algebra(self):
        a = PiecewiseConstant([1, 2, 3, 4])
        b = PiecewiseConstant([1, 1, 1, 1])
        assert (a + b).leaves == (2, 3, 4, 5)
        assert (a - b).leaves == (0, 1, 2, 3)
        assert a.scale(2).leaves == (2, 4, 6, 8)
        assert a.shift(-1).leaves == (0, 1, 2, 3)
        with pytest.raises(ValueError):
            a + PiecewiseConstant([1] * 16)

    def test_rel_position_bounds(self):
        pc = PiecewiseConstant([1] * 4)
        with pytest.raises(ValueError):
            pc.average(DyadicInterval(3, 0))


class TestHaar:
    def test_sign_and_indicator(self):
        # I = [0, 1/4) sits in the left half of [0, 1/2): value -sqrt(2)
        I = DyadicInterval(2, 0)
        J = DyadicInterval(1, 0)
        assert haar_inner_indicator(I, J) < 0
        assert haar_inner_indicator(I, J) == pytest.approx(-math.sqrt(2))
        # right half of the root carries +1
        assert haar_inner_indicator(DyadicInterval(1, 1), unit_root()) == 1.0
        # no strict containment, no value
        assert haar_inner_indicator(I, I) == 0.0
        assert haar_inner_indicator(J, I) == 0.0
        assert haar_inner_indicator(DyadicInterval(2, 3), J) == 0.0

    def test_indicator_brute_force(self):
        rng = random.Random(2)
        root = unit_root()
        for _ in range(40):
            jl = rng.randrange(0, 3)
            J = DyadicInterval(jl, rng.randrange(1 << jl))
            il = rng.randrange(0, 5)
            I = DyadicInterval(il, rng.randrange(1 << il))
            h = haar_leaves(J, 6, root)
            span = 6 - il
            chunk = h[I.index << span : (I.index + 1) << span]
            want = sum(chunk) / len(chunk)
            assert haar_inner_indicator(I, J) == pytest.approx(want, abs=1e-12)

    def test_indicator_square_is_inverse_length(self):
        for lev, idx in ((0, 0), (1, 1), (2, 2), (3, 5)):
            J = DyadicInterval(lev, idx)
            I = J.descendant(2, 1)
            val = haar_inner_indicator(I, J)
            assert val * val == pytest.approx(1.0 / float(J.length), rel=1e-12)

    def test_single_coefficient_brute_force(self):
        rng = random.Random(4)
        leaves = [rng.uniform(-2, 2) for _ in range(16)]
        for root in (unit_root(), window_root(1)):
            pc = PiecewiseConstant(leaves, root)
            cell = float(dyadic_length(root.level + 4))
            for lev, idx in ((0, 0), (1, 1), (2, 3), (3, 6)):
                J = root.descendant(lev, idx)
                h = haar_leaves(J, 4, root)
                want = sum(a * b for a, b in zip(leaves, h)) * cell
                assert haar_coefficient(pc, J) == pytest.approx(want, abs=1e-12)

    def test_exact_matches_float(self):
        pc = PiecewiseConstant([Fraction(3, 2), 1, 0, -2])
        copy = PiecewiseConstant([1.5, 1.0, 0.0, -2.0])
        assert pc.exact and not copy.exact
        for J in (unit_root(), DyadicInterval(1, 0), DyadicInterval(1, 1)):
            assert haar_coefficient(pc, J) == haar_coefficient(copy, J)

    def test_exact_haar_step(self):
        # |J|**(1/2) h_J is +-1 on the halves of J, so its coefficient at J is
        # |J|**(1/2) and every other coefficient is zero
        root = unit_root()
        for lev, idx in ((0, 0), (1, 1), (2, 2), (3, 5)):
            J = DyadicInterval(lev, idx)
            pc = PiecewiseConstant([round(v * math.sqrt(float(J.length))) for v in
                                    haar_leaves(J, 4, root)])
            for K in (root.descendant(m, j) for m in range(4) for j in range(1 << m)):
                want = math.sqrt(float(J.length)) if K == J else 0.0
                assert haar_coefficient(pc, K) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestTreeJson:
    def test_roundtrip_unit(self):
        pc = PiecewiseConstant([1, Fraction(1, 2), 0, 3])
        obj = tree_to_json(pc)
        assert obj == {"base": "unit", "depth": 2, "leaves": [1, 0.5, 0, 3]}
        back = tree_from_json(obj)
        assert back.root == pc.root
        assert [float(v) for v in back.leaves] == [1.0, 0.5, 0.0, 3.0]

    def test_roundtrip_window(self):
        pc = PiecewiseConstant([1, 2, 3, 4], window_root(1))
        obj = tree_to_json(pc)
        assert obj["ancestor_levels"] == 1
        assert tree_from_json(obj).root == window_root(1)

    def test_writer_key_order(self):
        # readers of dyuch files may not sort keys, so the order is pinned
        unit = tree_to_json(PiecewiseConstant([1, 2.5, 0, 3]))
        assert list(unit) == ["base", "depth", "leaves"]
        assert unit["leaves"] == [1.0, 2.5, 0.0, 3.0]
        window = tree_to_json(PiecewiseConstant([1, 2, 3, 4], window_root(2)))
        assert list(window) == ["base", "depth", "leaves", "ancestor_levels"]
        assert window["ancestor_levels"] == 2
        assert all(type(v) is int for v in window["leaves"])

    @pytest.mark.parametrize(
        "header",
        [
            {"base": "bogus"},
            {"base": "real_line", "ancestor_levels": 1.7},
            {"base": "real_line", "ancestor_levels": "1"},
            {"base": "real_line", "ancestor_levels": True},
            {"base": "real_line", "ancestor_levels": -1},
            {"depth": "2"},
            {"depth": 2.0},
            {"depth": False},
        ],
    )
    def test_rejects_malformed_headers(self, header):
        with pytest.raises(ValueError):
            tree_from_json({"leaves": [0, 0, 0, 0], **header})

    def test_rejects(self):
        with pytest.raises(ValueError):
            tree_from_json({"leaves": []})
        with pytest.raises(ValueError):
            tree_from_json({"leaves": [1, 2, 3]})
        with pytest.raises(ValueError):
            tree_from_json({"leaves": [1, 2, 3, 4], "depth": 4})
        with pytest.raises(ValueError):
            tree_from_json({"leaves": [1] * 4, "base": "bogus"})
        with pytest.raises(ValueError):
            tree_from_json([1, 2])
        with pytest.raises(ValueError):
            tree_to_json(PiecewiseConstant([1] * 4, DyadicInterval(2, 1)))
