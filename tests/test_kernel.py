import math
import random
from fractions import Fraction

import pytest

from dyuch.carleson import DiscreteMeasure, embedding_sum, random_balanced_measure
from dyuch.dyadic import (
    REAL_LINE,
    DyadicInterval,
    four_adic_nodes,
    unit_root,
    window_root,
)
from dyuch import kernel as kern
from dyuch.kernel import (
    kernel_norm2,
    kernel_to_analytic,
    normalized_testing_value,
    reproducing_kernel,
    reproducing_residual,
    truncation_tail_bound,
)
from dyuch.martingale import (
    DyadicAnalytic,
    SlicedMartingale,
    conjugate,
    random_analytic,
    random_sliced,
)

E = math.e
INV_2RT2 = 1.0 / (2.0 * math.sqrt(2.0))


def pairwise_testing_sum(mu, I):
    """Reference testing sum: one pairwise kernel value per support node."""
    return sum(float(m) * normalized_testing_value(I, J) for J, m in mu.masses.items())


def sparse_measure(rng, root, depth, support=40):
    """Unbalanced exact measure on about `support` random 4-adic nodes."""
    nodes = list(four_adic_nodes(root, depth))
    picked = rng.sample(nodes, min(support, len(nodes)))
    return DiscreteMeasure(
        {I: Fraction(rng.randrange(1, 64), 16) for I in picked}, root, depth
    )


def assert_matches_pairwise(mu):
    refs = []
    for I in four_adic_nodes(mu.root, mu.depth):
        fast, ref = kern.testing_sum(mu, I), pairwise_testing_sum(mu, I)
        assert math.isclose(fast, ref, rel_tol=1e-12), (I.id, fast, ref)
        refs.append(ref)
    assert math.isclose(kern.testing_constant(mu), max(refs), rel_tol=1e-12)


class TestKernelConstruction:
    def test_window_worked_example(self):
        I = DyadicInterval(0, 0, REAL_LINE, 1)
        k = reproducing_kernel(I, 1)
        J = DyadicInterval(-1, 0, REAL_LINE, 1)
        assert set(k.real_coeffs) == {J}
        assert set(k.imag_coeffs) == {J.sibling()}
        assert k.real_coeffs[J] == pytest.approx(-INV_2RT2, abs=1e-15)
        assert k.imag_coeffs[J.sibling()] == pytest.approx(INV_2RT2, abs=1e-15)
        assert k.constant == 0.0
        z = k.evaluate(DyadicInterval(0, 2, REAL_LINE, 1))
        assert z == pytest.approx(complex(0.0, -0.25), abs=1e-15)

    def test_unit_constant_term(self):
        k = reproducing_kernel(unit_root(), 0)
        assert k.constant == 1.0
        assert k.real_coeffs == {} and k.imag_coeffs == {}
        assert k.evaluate(DyadicInterval(2, 3)) == 1.0 + 0.0j

    def test_coefficient_levels(self):
        I = DyadicInterval(4, 9)
        k = reproducing_kernel(I, 2)
        assert sorted(J.level for J in k.real_coeffs) == [1, 3]
        for J in k.real_coeffs:
            assert J.contains(I)
        for J in k.imag_coeffs:
            assert not J.contains(I) and J.parent().contains(I)

    def test_validation(self):
        with pytest.raises(ValueError, match="4-adic"):
            reproducing_kernel(DyadicInterval(1, 0), 0)
        with pytest.raises(ValueError, match="nonnegative"):
            reproducing_kernel(unit_root(), -1)
        with pytest.raises(ValueError, match="odd ancestors"):
            reproducing_kernel(DyadicInterval(2, 0), 2)
        with pytest.raises(ValueError, match="odd ancestors"):
            reproducing_kernel(DyadicInterval(0, 0, REAL_LINE, 2), 3)


class TestKernelNorm:
    def test_values(self):
        n = kernel_norm2(DyadicInterval(0, 0, REAL_LINE, 1), 1)
        assert n.value == Fraction(1, 4) and n.limit == Fraction(1, 3)
        n = kernel_norm2(DyadicInterval(2, 0), 1)
        assert n.value == 1 and n.limit == Fraction(4, 3)
        # pure arithmetic: no availability needed for the closed form
        n = kernel_norm2(unit_root(), 2)
        assert n.value == Fraction(5, 16)
        assert kernel_norm2(unit_root(), 0).value == 0

    def test_tail_bound(self):
        assert truncation_tail_bound(unit_root(), 2) == Fraction(1, 3) / 16
        assert truncation_tail_bound(unit_root(), 0) == Fraction(1, 3)

    def test_matches_coefficient_mass(self):
        rng = random.Random(60)
        for _ in range(20):
            lev = 2 * rng.randrange(1, 4)
            I = DyadicInterval(lev, rng.randrange(1 << lev))
            h = rng.randrange(0, lev // 2 + 1)
            k = reproducing_kernel(I, h)
            mass = sum(c * c for c in k.real_coeffs.values())
            mass += sum(c * c for c in k.imag_coeffs.values())
            assert mass == pytest.approx(float(kernel_norm2(I, h).value), abs=1e-12)


class TestKernelAsPair:
    def test_valid_pair_and_norm(self):
        for lev, idx, h in ((2, 1, 1), (4, 9, 2), (4, 0, 1)):
            I = DyadicInterval(lev, idx)
            k = reproducing_kernel(I, h)
            f = kernel_to_analytic(k)  # constructor checks the coupling
            want = 1.0 + float(kernel_norm2(I, h).value)
            assert float(f.norm2()) == pytest.approx(want, abs=1e-12)

    def test_window_pair_mean_free(self):
        I = DyadicInterval(0, 1, REAL_LINE, 1)
        f = kernel_to_analytic(reproducing_kernel(I, 1))
        assert float(f.u.root_average) == pytest.approx(0.0, abs=1e-15)
        assert float(f.norm2()) == pytest.approx(
            float(kernel_norm2(I, 1).value), abs=1e-12
        )

    def test_matches_evaluate(self):
        I = DyadicInterval(4, 5)
        k = reproducing_kernel(I, 2)
        f = kernel_to_analytic(k)
        for K in (DyadicInterval(2, 3), DyadicInterval(4, 0), I):
            z = k.evaluate(K)
            assert f.average(K) == pytest.approx(z, abs=1e-12)


class TestReproducing:
    def test_full_height_exact(self):
        rng = random.Random(61)
        for depth in (2, 4):
            f = random_analytic(rng, depth)
            for I in four_adic_nodes(unit_root(), depth):
                h = I.level // 2
                assert reproducing_residual(f, I, h) <= 1e-12

    def test_window_needs_mean_zero(self):
        rng = random.Random(62)
        root = window_root(1)
        u = random_sliced(rng, 4, root)
        u = u.shift(-u.root_average)
        f = conjugate(u)
        for I in four_adic_nodes(root, 4):
            h = (I.level - root.level) // 2
            assert reproducing_residual(f, I, h) <= 1e-12

    def test_truncation_misses_coarse_jumps(self):
        rng = random.Random(63)
        coarse = random_sliced(rng, 2)
        wide = [v for v in coarse.leaves for _ in range(4)]
        f = conjugate(SlicedMartingale.from_leaves(wide))
        I = DyadicInterval(4, 3)
        assert reproducing_residual(f, I, 2) <= 1e-12
        # a height-1 kernel sees only the level-3 ancestor, where this pair
        # has no jump, so the pairing collapses to the mean
        mean = complex(float(f.u.root_average), float(f.v.root_average))
        expected = abs(mean - f.average(I))
        assert expected > 1e-9
        assert reproducing_residual(f, I, 1) == pytest.approx(expected, abs=1e-12)

    def test_requires_base_rooted_function(self):
        rng = random.Random(64)
        u = random_sliced(rng, 2, DyadicInterval(2, 1))
        f = conjugate(u)
        with pytest.raises(ValueError):
            reproducing_residual(f, DyadicInterval(4, 4), 1)


class TestTestingValues:
    def test_inside_is_limit(self):
        I = DyadicInterval(2, 1)
        lim = float(Fraction(4, 3))
        assert normalized_testing_value(I, I) == lim
        assert normalized_testing_value(I, DyadicInterval(4, 5)) == lim
        assert normalized_testing_value(unit_root(), I) == pytest.approx(1 / 3)

    def test_outside_brute_force(self):
        for I, K in (
            (DyadicInterval(2, 0), DyadicInterval(2, 3)),
            (DyadicInterval(4, 0), DyadicInterval(2, 2)),
            (DyadicInterval(4, 7), unit_root()),
        ):
            avail = I.level // 2
            k = reproducing_kernel(I, avail)
            z = k.evaluate(K)
            fluct = complex(z.real - k.constant, z.imag)
            want = abs(fluct) ** 2 * 3.0 * float(I.length)
            assert normalized_testing_value(I, K) == pytest.approx(want, abs=1e-12)

    def test_rejects_odd_levels(self):
        with pytest.raises(ValueError):
            normalized_testing_value(DyadicInterval(1, 0), unit_root())
        with pytest.raises(ValueError):
            normalized_testing_value(unit_root(), DyadicInterval(1, 0))


class TestTestingConstant:
    def test_point_mass_frozen(self):
        mu = DiscreteMeasure({unit_root(): 3}, depth=2)
        assert kern.testing_sum(mu, unit_root()) == pytest.approx(1.0, abs=1e-15)
        assert kern.testing_constant(mu) == 1.0

    def test_packing_controlled_pointwise(self):
        rng = random.Random(65)
        for _ in range(10):
            masses = {}
            for r in range(0, 5, 2):
                for j in range(1 << r):
                    if rng.random() < 0.4:
                        masses[unit_root().descendant(r, j)] = Fraction(
                            rng.randrange(0, 12), 16
                        )
            mu = DiscreteMeasure(masses, depth=4)
            for I in four_adic_nodes(mu.root, mu.depth):
                rep = kern.testing_to_packing(mu, I)
                assert rep.testing_sum >= 0.0
                assert rep.packing_bound == pytest.approx(3.0 * rep.testing_sum)
                assert rep.slack >= -1e-9

    def test_point_mass_report(self):
        mu = DiscreteMeasure({unit_root(): 3}, depth=2)
        rep = kern.testing_to_packing(mu, unit_root())
        assert rep.testing_sum == pytest.approx(1.0, abs=1e-15)
        assert rep.subtree_packing == 3.0
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_embedding_slack_frozen(self):
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        mu = DiscreteMeasure({unit_root(): 3}, depth=2)
        slack = kern.testing_embedding_slack(f, mu)
        assert slack == pytest.approx(3 * E - 3, abs=1e-12)
        assert slack == pytest.approx(5.154845485377136, abs=1e-12)

    def test_embedding_slack_randomized(self):
        rng = random.Random(66)
        for _ in range(10):
            f = random_analytic(rng, 4)
            mu = random_balanced_measure(rng, 4)
            assert kern.testing_embedding_slack(f, mu) >= -1e-9


ROOTS = {
    "unit": unit_root(),
    "window1": window_root(1),
    "window2": window_root(2),
    "below_root": DyadicInterval(2, 1),
    "window_below_root": DyadicInterval(-2, 3, REAL_LINE, 2),
}


class TestClosedForm:
    @pytest.mark.parametrize("depth", [2, 4, 6, 8])
    @pytest.mark.parametrize("name", sorted(ROOTS))
    def test_matches_pairwise_sparse(self, name, depth):
        rng = random.Random(f"{name}-{depth}")
        assert_matches_pairwise(sparse_measure(rng, ROOTS[name], depth))

    @pytest.mark.parametrize("depth", [2, 4, 6])
    @pytest.mark.parametrize("name", sorted(ROOTS))
    def test_matches_pairwise_balanced(self, name, depth):
        rng = random.Random(f"balanced-{name}-{depth}")
        assert_matches_pairwise(random_balanced_measure(rng, depth, ROOTS[name]))

    def test_matches_pairwise_float_masses(self):
        rng = random.Random(71)
        masses = {I: rng.random() for I in four_adic_nodes(unit_root(), 4)}
        assert_matches_pairwise(DiscreteMeasure(masses, depth=4))

    def test_rejects_nodes_off_the_measure_tree(self):
        mu = DiscreteMeasure({DyadicInterval(4, 5): 1}, DyadicInterval(2, 1), 2)
        with pytest.raises(ValueError, match="below the measure root"):
            kern.testing_sum(mu, unit_root())
        with pytest.raises(ValueError, match="below the measure root"):
            kern.testing_sum(mu, DyadicInterval(2, 0))
        with pytest.raises(ValueError, match="below the measure root"):
            kern.testing_sum(mu, DyadicInterval(3, 2))

    def test_constant_leaves_pair_cache_alone(self):
        mu = random_balanced_measure(random.Random(72), 8)
        before = normalized_testing_value.cache_info()
        kern.testing_constant(mu)
        assert normalized_testing_value.cache_info() == before


class TestTestingScan:
    @pytest.mark.parametrize("name", sorted(ROOTS))
    def test_matches_per_node_reports(self, name):
        mu = sparse_measure(random.Random(f"scan-{name}"), ROOTS[name], 6)
        nodes = list(four_adic_nodes(mu.root, mu.depth))
        reports = [kern.testing_to_packing(mu, I) for I in nodes]
        scan = kern.testing_scan(mu)
        assert scan.nodes_checked == len(nodes) == 1 + 4 + 16 + 64
        assert scan.testing_constant == max(r.testing_sum for r in reports)
        assert scan.testing_constant == kern.testing_constant(mu)
        assert scan.min_packing_slack == min(r.slack for r in reports)
        i = [r.testing_sum for r in reports].index(scan.testing_constant)
        assert scan.worst_testing_node == nodes[i]
        i = [r.slack for r in reports].index(scan.min_packing_slack)
        assert scan.worst_packing_node == nodes[i]

    def test_ties_go_to_first_node(self):
        # every leaf-level node carries the same mass, so the leaves tie
        mu = DiscreteMeasure(
            {I: 1 for I in four_adic_nodes(unit_root(), 2) if I.level == 2}, depth=2
        )
        scan = kern.testing_scan(mu)
        assert scan.worst_testing_node == DyadicInterval(2, 0)
        assert scan.min_packing_slack == 0.0
        assert scan.worst_packing_node == unit_root()

    def test_overflowing_slack_is_nan_and_sticks(self):
        # 3 * inf - inf at L2N0; the later nodes have finite slacks
        mu = DiscreteMeasure({DyadicInterval(2, 0): 1e308}, depth=2)
        scan = kern.testing_scan(mu)
        assert math.isnan(scan.min_packing_slack)
        assert scan.worst_packing_node == DyadicInterval(2, 0)

    def test_nan_testing_sum_sticks(self, monkeypatch):
        mu = DiscreteMeasure({I: 1 for I in four_adic_nodes(unit_root(), 2)}, depth=2)
        real = kern._testing_value
        bad = DyadicInterval(2, 1)

        def poisoned(I, mass, path):
            return math.nan if I == bad else real(I, mass, path)

        monkeypatch.setattr(kern, "_testing_value", poisoned)
        scan = kern.testing_scan(mu)
        assert math.isnan(scan.testing_constant)
        assert scan.worst_testing_node == bad

    def test_scan_is_kept_on_the_measure(self, monkeypatch):
        # check-3e scans once, then reads the constant again for the embedding slack
        rng = random.Random(74)
        f, mu = random_analytic(rng, 6), random_balanced_measure(rng, 6)
        scan = kern.testing_scan(mu)
        monkeypatch.setattr(kern, "_quarter_paths", None)
        assert kern.testing_scan(mu) is scan
        bound = 3.0 * E * scan.testing_constant * float(f.norm2())
        assert kern.testing_embedding_slack(f, mu) == bound - float(embedding_sum(f, mu))
