import hashlib
import json
import random
from fractions import Fraction

import pytest

from dyuch.dyadic import DyadicInterval, PiecewiseConstant, ratio, unit_root, window_root
from dyuch.martingale import (
    DyadicAnalytic,
    SlicedMartingale,
    SlicingViolation,
    _jump_rows,
    analytic_from_json,
    analytic_projection,
    analytic_to_json,
    conjugate,
    cr_residual,
    random_analytic,
    random_sliced,
    s0,
)


def haar_pattern(J, depth, root):
    """Unnormalized Haar step on J: -1 on the left half, +1 on the right."""
    leaves = []
    for j in range(1 << depth):
        cell = root.descendant(depth, j)
        if not J.contains(cell):
            leaves.append(Fraction(0))
        else:
            side = cell.ancestor_at(J.level + 1).index & 1
            leaves.append(Fraction(1) if side else Fraction(-1))
    return PiecewiseConstant(leaves, root)


class TestSlicing:
    def test_violation_reported_at_top(self):
        with pytest.raises(SlicingViolation) as exc:
            SlicedMartingale.from_leaves([0, 2, 1, 3])
        assert exc.value.interval == unit_root()
        assert exc.value.residual == 1

    def test_topmost_of_several(self):
        # violations at the root and inside the left grandchild; report the root
        leaves = [0, 2, 0, 0, 1, 1, 1, 1] + [1] * 8
        with pytest.raises(SlicingViolation) as exc:
            SlicedMartingale.from_leaves(leaves)
        assert exc.value.interval == unit_root()

    def test_deep_violation_located(self):
        # sliced at the root, broken inside cell [0, 1/4)
        leaves = [0, 0, 2, 2, 1, 1, 1, 1] + [1] * 8
        with pytest.raises(SlicingViolation) as exc:
            SlicedMartingale.from_leaves(leaves)
        assert exc.value.interval == DyadicInterval(2, 0)
        assert exc.value.residual == 2

    def test_float_tolerance(self):
        leaves = [1.0, 3.0, 0.0, 4.0 + 1e-15]
        u = SlicedMartingale.from_leaves(leaves)  # within DEFAULT_TOL
        assert u.depth == 2
        with pytest.raises(SlicingViolation):  # half averages 5e-12 apart
            SlicedMartingale.from_leaves([1.0, 3.0, 0.0, 4.0 + 1e-11])


class TestSlicedMartingale:
    def test_basic_shape(self):
        u = SlicedMartingale.from_leaves([1, 3, 0, 4])
        assert u.depth == 2
        assert u.root == unit_root()
        assert u.exact
        assert u.root_average == 2
        assert u.norm2() == Fraction(1 + 9 + 0 + 16, 4)

    def test_takes_over_the_checked_tree(self):
        pc = PiecewiseConstant([1, 3, 0, 4])
        u = SlicedMartingale(pc)
        assert isinstance(u, PiecewiseConstant) and u.pc is u
        assert u.nums is pc.nums and u.pyramid() is pc.pyramid()
        assert repr(u) == "SlicedMartingale(depth=2, root=L0N0)"

    def test_increments(self):
        leaves = [1, 3, 0, 4]
        rows, den = _jump_rows(SlicedMartingale.from_leaves(leaves))
        # dx is half the step across the right half, dy across the left
        want = (Fraction(leaves[3] - leaves[2], 2), Fraction(leaves[1] - leaves[0], 2))
        assert [[tuple(Fraction(d, den) for d in incs) for incs in row] for row in rows] == [[want]]
        assert want == (2, 1)

    def test_increments_reconstruct_children(self):
        rng = random.Random(11)
        u = random_sliced(rng, 4)
        rows, den = _jump_rows(u)
        assert [len(row) for row in rows] == [1, 4]
        for k, row in enumerate(rows):
            for idx, incs in enumerate(row):
                I = DyadicInterval(2 * k, idx)
                w = u.average(I)
                dx, dy = (Fraction(d, den) for d in incs)
                gc = [I.descendant(2, q) for q in range(4)]
                got = [u.average(g) for g in gc]
                assert got == [w - dy, w + dy, w - dx, w + dx]

    def test_shift_scale_eq(self):
        u = SlicedMartingale.from_leaves([1, 3, 0, 4])
        assert u.shifted(1).leaves == (2, 4, 1, 5)
        assert u.scaled(2).leaves == (2, 6, 0, 8)
        assert u == SlicedMartingale.from_leaves([1, 3, 0, 4])
        assert u != u.shifted(1)


class TestConjugation:
    def test_worked_example(self):
        u = SlicedMartingale.from_leaves([0, 2, 1, 1])
        v = s0(u)
        assert v.leaves == (0, 0, 1, -1)
        again = s0(v)
        assert again.leaves == (1, -1, 0, 0)

    def test_square_negates_fluctuation(self):
        rng = random.Random(5)
        for depth in (2, 4, 6):
            u = random_sliced(rng, depth)
            twice = s0(s0(u))
            centered = u.shift(-u.root_average)
            assert twice.leaves == centered.scale(-1).leaves

    def test_isometry_on_fluctuation(self):
        rng = random.Random(6)
        for depth in (2, 4, 6):
            u = random_sliced(rng, depth)
            centered = u.shift(-u.root_average)
            assert s0(u).norm2() == centered.norm2()

    def test_kills_mean(self):
        u = SlicedMartingale.from_leaves([5, 5, 5, 5])
        assert s0(u).leaves == (0, 0, 0, 0)
        rng = random.Random(7)
        w = random_sliced(rng, 4)
        assert s0(w).root_average == 0

    def test_haar_step_mapping(self):
        # on a single odd-level step the conjugation swaps the step to the
        # sibling and multiplies by the sibling-position sign of the source
        root = unit_root()
        for lev, idx in ((1, 0), (1, 1), (3, 2), (3, 5), (3, 7)):
            J = DyadicInterval(lev, idx)
            u = SlicedMartingale(haar_pattern(J, 4, root))
            want = haar_pattern(J.sibling(), 4, root).scale(J.sigma())
            assert s0(u).leaves == want.leaves

    def test_rejects_non_sliced(self):
        with pytest.raises(SlicingViolation):
            s0(PiecewiseConstant([0, 2, 1, 3]))

    def test_window_tree(self):
        rng = random.Random(8)
        u = random_sliced(rng, 4, window_root(1))
        v = s0(u)
        assert v.root == window_root(1)
        assert cr_residual(u, v) == 0


class TestCauchyRiemann:
    def test_zero_for_conjugates(self):
        rng = random.Random(9)
        for depth in (2, 4):
            u = random_sliced(rng, depth)
            assert cr_residual(u, s0(u)) == 0

    def test_detects_perturbation(self):
        rng = random.Random(10)
        u = random_sliced(rng, 4)
        v = s0(u)
        t = Fraction(3, 16)
        bump = haar_pattern(DyadicInterval(1, 0), 4, unit_root()).scale(t)
        v_bad = SlicedMartingale(v + bump)
        assert cr_residual(u, v_bad) == t

    def test_shape_mismatch(self):
        u = SlicedMartingale.from_leaves([1, 3, 0, 4])
        w = random_sliced(random.Random(1), 4)
        with pytest.raises(ValueError):
            cr_residual(u, w)


class TestDyadicAnalytic:
    def test_construction_validates(self):
        u = SlicedMartingale.from_leaves([0, 2, 1, 1])
        with pytest.raises(ValueError):
            DyadicAnalytic(u, u)  # fails the increment coupling
        f = DyadicAnalytic(u, s0(u))
        assert f.exact and f.v.root_average == 0

    def test_norm_and_average(self):
        u = SlicedMartingale.from_leaves([0, 2, 1, 1])
        f = conjugate(u)
        assert f.norm2() == u.l2_norm2() + f.v.l2_norm2()
        z = f.average(DyadicInterval(2, 3))
        assert z == complex(1.0, -1.0)

    def test_second_moment_brute_force(self):
        rng = random.Random(12)
        f = random_analytic(rng, 4)
        ul, vl = f.u.leaves, f.v.leaves
        sums, den = f.moment_sums()
        assert [len(row) for row in sums] == [1 << lev for lev in range(5)]
        for lev in (0, 2, 4):
            for idx in (0, (1 << lev) - 1):
                span = 4 - lev
                lo, hi = idx << span, (idx + 1) << span
                want = sum(ul[t] ** 2 + vl[t] ** 2 for t in range(lo, hi))
                assert Fraction(sums[lev][idx], den) == want


class TestProjection:
    def test_fixed_point_exact(self):
        rng = random.Random(15)
        f = random_analytic(rng, 4)
        g = analytic_projection(f.u, f.v)
        assert g.u.leaves == f.u.leaves
        assert g.v.leaves == f.v.leaves

    def test_idempotent_exact(self):
        rng = random.Random(16)
        a = PiecewiseConstant([Fraction(rng.randrange(-30, 30), 8) for _ in range(16)])
        b = PiecewiseConstant([Fraction(rng.randrange(-30, 30), 8) for _ in range(16)])
        f = analytic_projection(a, b)
        g = analytic_projection(f.u, f.v)
        assert g.u.leaves == f.u.leaves and g.v.leaves == f.v.leaves

    def test_residual_orthogonal_to_conjugates(self):
        rng = random.Random(17)
        a = PiecewiseConstant([Fraction(rng.randrange(-30, 30), 8) for _ in range(16)])
        b = PiecewiseConstant([Fraction(rng.randrange(-30, 30), 8) for _ in range(16)])
        f = analytic_projection(a, b)
        ra, rb = a - f.u, b - f.v
        for seed in range(4):
            g = random_analytic(random.Random(40 + seed), 4)
            assert ra.inner(g.u) + rb.inner(g.v) == 0

    def test_real_part_only(self):
        a = PiecewiseConstant([Fraction(v) for v in (0, 2, 1, 1)])
        f = analytic_projection(a)
        # projecting (a, 0) halves the fluctuation and grows a conjugate part
        h = Fraction(1, 2)
        assert f.u.leaves == (h, 1 + h, 1, 1)
        assert f.v.leaves == (0, 0, h, -h)

    def test_keeps_means(self):
        rng = random.Random(18)
        a = PiecewiseConstant([Fraction(rng.randrange(-30, 30), 8) for _ in range(16)])
        b = PiecewiseConstant([Fraction(rng.randrange(-30, 30), 8) for _ in range(16)])
        f = analytic_projection(a, b)
        assert f.u.root_average == a.root_average
        assert f.v.root_average == b.root_average


class TestRandomGenerators:
    def test_deterministic(self):
        u1 = random_sliced(random.Random(21), 4)
        u2 = random_sliced(random.Random(21), 4)
        assert u1.leaves == u2.leaves
        f1 = random_analytic(random.Random(22), 4)
        f2 = random_analytic(random.Random(22), 4)
        assert f1.u.leaves == f2.u.leaves and f1.v.leaves == f2.v.leaves

    def test_exact_and_sliced(self):
        for seed in range(5):
            u = random_sliced(random.Random(seed), 4)
            assert u.exact
            assert SlicedMartingale(u) == u  # exact: every half-average gap is 0

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            random_sliced(random.Random(0), 3)

    @pytest.mark.parametrize("generator", [random_sliced, random_analytic])
    def test_negative_depth_is_rejected(self, generator):
        with pytest.raises(ValueError, match="^depth must be even and nonnegative, got -2$"):
            generator(random.Random(0), -2)

    @pytest.mark.parametrize("root", [unit_root(), window_root(1)], ids=["unit", "window"])
    @pytest.mark.parametrize("depth", [0, 2, 4, 6, 8])
    def test_increment_rows_round_trip(self, depth, root):
        from dyuch.martingale import _sliced_from_increments

        u = random_sliced(random.Random(300 + depth), depth, root) if depth else (
            SlicedMartingale.from_leaves([Fraction(3, 4)], root)
        )
        rows, den = _jump_rows(u)
        assert [len(row) for row in rows] == [1 << k for k in range(0, depth, 2)]
        for k, row in enumerate(rows):
            for j, incs in enumerate(row):
                assert all(type(d) is int for d in incs)
                got = tuple(Fraction(d, den) for d in incs)
                a = [u.average(root.descendant(2 * k + 2, 4 * j + q)) for q in range(4)]
                assert got == ((a[3] - a[2]) / 2, (a[1] - a[0]) / 2)
        assert _sliced_from_increments(u.root_average * den, rows, den, u.root) == u
        values = [[tuple(Fraction(d, den) for d in incs) for incs in row] for row in rows]
        assert _sliced_from_increments(u.root_average, values, 1, u.root) == u

    # sha256 prefixes of repr((u.leaves, v.leaves)) for
    # random_analytic(Random(400 + depth), depth, root); the leaves do not
    # depend on the root.  A change here means the draw order moved.
    PINNED = {
        2: "152579229e4f6ee6",
        4: "2bd66deba13bc0a4",
        6: "77e804ab22c968c1",
        8: "2d6723f49775df34",
    }

    # sha256 prefixes of the float-mode outputs on the same pairs: the
    # projection of (u, reversed v), every node's second moment, and the
    # exact and float writer output, as pinned_float_outputs builds them.
    PINNED_FLOAT = {
        (2, "unit"): "5b354109d208aaab",
        (2, "window"): "6147d148652c9b67",
        (4, "unit"): "683559194dc113f5",
        (4, "window"): "46a657a64185ccc4",
        (6, "unit"): "f9fce2a6a6bdf419",
        (6, "window"): "1f71a92ce3aff444",
        (8, "unit"): "88deeb88cad47aa4",
        (8, "window"): "e4e5f1750571d038",
    }

    @staticmethod
    def pinned_float_outputs(f):
        root = f.root
        u = PiecewiseConstant([float(x) for x in f.u.leaves], root)
        v = PiecewiseConstant([float(x) for x in f.v.leaves], root)
        g = DyadicAnalytic(u, v, validate=False)
        p = analytic_projection(u, PiecewiseConstant(v.leaves[::-1], root))
        sums, den = g.moment_sums()
        moments = [ratio(s, den << (f.depth - r), False) for r, row in enumerate(sums) for s in row]
        writers = json.dumps(analytic_to_json(f)) + json.dumps(analytic_to_json(g))
        return (p.u.leaves, p.v.leaves, moments, writers)

    @pytest.mark.parametrize("root", [unit_root(), window_root(1)], ids=["unit", "window"])
    @pytest.mark.parametrize("depth", [2, 4, 6, 8])
    def test_seeded_output_pinned(self, depth, root):
        f = random_analytic(random.Random(400 + depth), depth, root)
        assert f.root == root
        digest = hashlib.sha256(repr((f.u.leaves, f.v.leaves)).encode()).hexdigest()
        assert digest[:16] == self.PINNED[depth]
        name = "unit" if root == unit_root() else "window"
        state = self.pinned_float_outputs(f)
        digest = hashlib.sha256(repr(state).encode()).hexdigest()
        assert digest[:16] == self.PINNED_FLOAT[(depth, name)]


class TestAnalyticJson:
    def test_roundtrip(self):
        f = random_analytic(random.Random(23), 4)
        obj = analytic_to_json(f)
        assert set(obj) == {"u", "v"}
        g = analytic_from_json(obj)
        assert [float(x) for x in g.u.leaves] == [float(x) for x in f.u.leaves]
        assert [float(x) for x in g.v.leaves] == [float(x) for x in f.v.leaves]

    def test_rejects_mismatched_grids(self):
        f = random_analytic(random.Random(24), 4)
        obj = analytic_to_json(f)
        obj["v"] = {"base": "unit", "depth": 2, "leaves": [0, 0, 0, 0]}
        with pytest.raises(ValueError):
            analytic_from_json(obj)

    def test_rejects_broken_coupling(self):
        obj = {
            "u": {"base": "unit", "depth": 2, "leaves": [0, 2, 1, 1]},
            "v": {"base": "unit", "depth": 2, "leaves": [0, 0, 1, 1]},
        }
        with pytest.raises(ValueError):
            analytic_from_json(obj)
