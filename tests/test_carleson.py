import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dyuch.carleson import (
    DiscreteMeasure,
    _spread,
    _subtree_sums,
    bellman_chain_slacks,
    embedding_slack,
    embedding_sum,
    measure_from_json,
    measure_to_json,
    random_balanced_measure,
    telescoped_weighted_slack,
    weighted_embedding_slack,
)
from dyuch.dyadic import DyadicInterval, mode_tol, unit_root, window_root
from dyuch.extremal import Configuration
from dyuch.martingale import DyadicAnalytic, random_analytic
from interval_masses import measure_from_rows, measure_of, pairing_rows

E = math.e


def closure_nodes(mu):
    seen = set()
    for I in mu.masses:
        while True:
            seen.add(I)
            if I == mu.root:
                break
            I = I.ancestor_at(I.level - 2)
    return seen


def brute_subtree_mass(mu, I):
    return sum(m for J, m in mu.masses.items() if I.contains(J))


def random_support_measure(rng, depth):
    """Arbitrary (usually unbalanced) measure for oracle comparisons."""
    masses = {}
    for r in range(0, depth + 1, 2):
        for j in range(1 << r):
            if rng.random() < 0.4:
                masses[unit_root().descendant(r, j)] = Fraction(rng.randrange(0, 12), 16)
    return measure_of(masses, depth=depth)


class TestDiscreteMeasure:
    def test_validation(self):
        root = unit_root()
        with pytest.raises(ValueError, match="is negative"):
            DiscreteMeasure(root, None, [(0, 0)], [-1])
        with pytest.raises(ValueError, match="cannot hold"):
            DiscreteMeasure(root, 3, [(0, 0)], [1])
        with pytest.raises(ValueError, match="cannot hold"):
            DiscreteMeasure(root, 2, [(4, 0)], [1])
        with pytest.raises(ValueError, match="^measure root must be 4-adic$"):
            DiscreteMeasure(DyadicInterval(1, 0), None, [(0, 0)], [1])

    @pytest.mark.parametrize("node", [(1, 0), (3, 2), (-2, 0), (0, -1), (2, -1), (0, 1), (2, 4)])
    def test_rejects_nodes_off_the_rows(self, node):
        # odd r, negative r, j < 0 and j >= 2**r, checked on a zero mass too
        for root in (unit_root(), DyadicInterval(2, 1)):
            with pytest.raises(ValueError, match=r"is not a 4-adic node below the root$"):
                DiscreteMeasure(root, None, [(0, 0), node], [1, 0])

    def test_zeros_dropped_and_modes(self):
        root = unit_root()
        mu = measure_of({root: Fraction(1, 2), DyadicInterval(2, 0): 0})
        assert len(mu) == 1 and mu.exact
        assert mu.depth == 0
        fl = measure_of({root: 0.5})
        assert not fl.exact and isinstance(fl.masses.get(root, fl.zero), float)

    def test_totals(self):
        mu = measure_of(
            {unit_root(): Fraction(1, 2), DyadicInterval(2, 3): Fraction(1, 4)}
        )
        assert mu.subtree_mass(mu.root) == Fraction(3, 4)
        assert mu.masses.get(DyadicInterval(2, 0), mu.zero) == 0
        assert mu.depth == 2

    def test_subtree_mass_brute_force(self):
        rng = random.Random(30)
        for _ in range(10):
            mu = random_support_measure(rng, 4)
            for r in range(0, 5, 2):
                for j in range(1 << r):
                    I = unit_root().descendant(r, j)
                    assert mu.subtree_mass(I) == brute_subtree_mass(mu, I)

    def test_subtree_mass_needs_a_4_adic_node(self):
        mu = measure_of({unit_root(): 1})
        with pytest.raises(ValueError, match="^L1N0 is not 4-adic$"):
            mu.subtree_mass(DyadicInterval(1, 0))

    def test_subtree_mass_above_the_root(self):
        mu = measure_of({DyadicInterval(4, 5): 1}, DyadicInterval(2, 1))
        assert mu.subtree_mass(DyadicInterval(0, 0)) == mu.subtree_mass(mu.root) == 1
        assert mu.subtree_mass(DyadicInterval(2, 1)) == 1
        assert mu.subtree_mass(DyadicInterval(4, 5)) == 1
        # a node above the root level that does not contain the root
        deep = measure_of({DyadicInterval(6, 21): 2}, DyadicInterval(4, 5))
        assert deep.subtree_mass(DyadicInterval(2, 0)) == 0
        assert deep.subtree_mass(DyadicInterval(2, 1)) == 2
        assert deep.subtree_mass(DyadicInterval(4, 4)) == 0

    def test_subtree_mass_rejects_another_tree(self):
        # the interval [0, 1) of the real-line window is not the unit root's
        # tree, as PiecewiseConstant.average and the kernel tests also say
        mu = measure_of({DyadicInterval(2, 1): 1}, depth=2)
        with pytest.raises(ValueError, match="different trees"):
            mu.subtree_mass(window_root(1).descendant(2, 0))
        win = measure_of({window_root(1): 1}, window_root(1))
        for I in (unit_root(), window_root(2)):
            with pytest.raises(ValueError, match="different trees"):
                win.subtree_mass(I)
        assert mu.subtree_mass(unit_root()) == win.subtree_mass(window_root(1)) == 1

    def test_half_masses_brute_force(self):
        rng = random.Random(31)
        mu = random_support_measure(rng, 4)
        for I in closure_nodes(mu):
            if I.level - mu.root.level + 2 > mu.depth:
                continue
            lo, hi = I.halves()
            got = tuple(map(mu._value, mu._halves((I.level - mu.root.level) // 2, I.index)))
            want = (
                sum(m for J, m in mu.masses.items() if lo.contains(J)),
                sum(m for J, m in mu.masses.items() if hi.contains(J)),
            )
            assert got == want

    def test_balance_residual_example(self):
        mu = measure_of({DyadicInterval(2, 0): 1})
        assert mu.balance_residual() == Fraction(1, 2)
        with pytest.raises(ValueError, match=r"not balanced \(residual 0\.5\)"):
            mu.require_balanced()

    def test_balance_residual_brute_force(self):
        rng = random.Random(32)
        for _ in range(10):
            mu = random_support_measure(rng, 4)
            want = Fraction(0)
            for I in closure_nodes(mu):
                lo, hi = I.halves()
                sl = sum(m for J, m in mu.masses.items() if lo.contains(J))
                sr = sum(m for J, m in mu.masses.items() if hi.contains(J))
                want = max(want, abs(sr - sl) / (2 * I.length))
            assert mu.balance_residual() == want

    def test_packing_examples(self):
        assert measure_of({unit_root(): 1}).packing_intensity() == 1
        deep = measure_of({DyadicInterval(2, 1): 1})
        assert deep.packing_intensity() == 4

    def test_packing_brute_force(self):
        rng = random.Random(33)
        for _ in range(10):
            mu = random_support_measure(rng, 4)
            want = max(
                (brute_subtree_mass(mu, I) / I.length for I in closure_nodes(mu)),
                default=Fraction(0),
            )
            assert mu.packing_intensity() == want

    def test_scale(self):
        mu = measure_of({unit_root(): Fraction(1, 2)})
        half = mu.scale(Fraction(1, 2))
        assert half.subtree_mass(half.root) == Fraction(1, 4)
        assert mu.scale(2).packing_intensity() == 1


class TestSubtreeSums:
    @staticmethod
    def naive(own, depth):
        # level by level, each mass added to its ancestor at that level in support order
        sums = [{} for _ in range(depth // 2 + 1)]
        for k, level in enumerate(sums):
            for (r, j), m in own:
                if r // 2 >= k:
                    anc = j >> (r - 2 * k)
                    level[anc] = level.get(anc, 0) + m
        return sums

    @staticmethod
    def support(rng, depth, mass):
        # a shuffled sparse support over mixed depths, so many ancestors hold no mass
        own = [((r, j), mass(rng)) for r in range(0, depth + 1, 2)
               for j in range(1 << r) if rng.random() < 0.4]
        rng.shuffle(own)
        return own

    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_float_levels_are_left_folds_in_support_order(self, depth):
        rng = random.Random(70 + depth)
        for _ in range(5):
            # magnitudes far apart, so another order or grouping rounds differently
            own = self.support(rng, depth, lambda g: g.uniform(0.0, 1.0) * 10.0 ** g.randint(-9, 9))
            got, want = _subtree_sums(own, depth), self.naive(own, depth)
            assert [[(j, m.hex()) for j, m in level.items()] for level in got] == \
                [[(j, m.hex()) for j, m in level.items()] for level in want]

    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_int_levels_are_exact(self, depth):
        rng = random.Random(80 + depth)
        own = self.support(rng, depth, lambda g: g.randint(1, 10 ** 30))
        got = _subtree_sums(own, depth)
        assert [list(level.items()) for level in got] == \
            [list(level.items()) for level in self.naive(own, depth)]
        assert got[0] == {0: sum(m for _, m in own)}


class TestSpread:
    """_spread is the one split walk; the generator and the search both pass it a split."""

    @staticmethod
    def preorder(depth):
        # every node, depth first, quarters in x-, x+, y-, y+ order
        def walk(r, j):
            yield r, j
            if r < depth:
                for q in (2, 3, 0, 1):
                    yield from walk(r + 2, 4 * j + q)
        return list(walk(0, 0))

    @pytest.mark.parametrize("depth", [0, 2, 4, 6])
    def test_split_contract(self, depth):
        rng = random.Random(90 + depth)
        order = {node: t for t, node in enumerate(self.preorder(depth))}
        # (own, x-, x+, y-, y+) per node, each part zero a third of the time
        table = {node: tuple(rng.choice((0, rng.randint(1, 99), rng.randint(1, 99)))
                             for _ in range(5)) for node in order}
        calls, want_calls, want_rows = [], [], []

        def split(r, j, m):
            calls.append((r, j, m))
            return table[r, j]

        def reference(r, j, m):
            if m <= 0:
                return
            if r == depth:
                want_rows.append(((r, j), m))
                return
            want_calls.append((r, j, m))
            own, *kids = table[r, j]
            if own > 0:
                want_rows.append(((r, j), own))
            for q, kid in zip((2, 3, 0, 1), kids):
                reference(r + 2, 4 * j + q, kid)

        nodes, masses = _spread(depth, 7, split)
        reference(0, 0, 7)
        assert calls == want_calls and list(zip(nodes, masses)) == want_rows
        # split sees internal nodes with mass only; the rows come in support order
        assert all(r < depth and m > 0 for r, _, m in calls)
        assert [order[n] for n in nodes] == sorted(order[n] for n in nodes)
        if depth:  # the walk met quarters that got nothing, and bottom nodes with mass
            assert any(0 in table[r, j][1:] for r, j, _ in calls)
            assert any(r == depth for r, _ in nodes)

    def test_no_mass_no_call(self):
        def split(r, j, m):
            raise AssertionError("split called")
        assert _spread(4, 0, split) == ([], [])


class TestMeasureJson:
    def test_roundtrip(self):
        mu = measure_of(
            {unit_root(): Fraction(1, 2), DyadicInterval(4, 7): Fraction(3, 16)},
            depth=4,
        )
        obj = measure_to_json(mu)
        assert obj["base"] == "unit" and obj["depth"] == 4
        assert obj["masses"] == {"L0N0": 0.5, "L4N7": 0.1875}
        back = measure_from_json(obj)
        assert back.depth == 4
        assert float(back.masses.get(DyadicInterval(4, 7), back.zero)) == 0.1875

    def test_window_roundtrip(self):
        root = window_root(1)
        mu = measure_of(
            {root: 1, DyadicInterval(0, 2, "real_line", 1): 2}, root=root
        )
        obj = measure_to_json(mu)
        assert obj["base"] == "real_line" and obj["ancestor_levels"] == 1
        back = measure_from_json(obj)
        assert back.root == root and back.subtree_mass(root) == 3

    def test_rejects(self):
        with pytest.raises(ValueError):
            measure_from_json({"masses": {"L1N0": 1}})
        with pytest.raises(ValueError):
            measure_from_json({"masses": {"L0N0": -2}})
        with pytest.raises(ValueError):
            measure_from_json([])


class TestSupermartingalePairing:
    """The pairing of a balanced measure with S(I)/|I|, on the reference rows."""

    def test_point_mass_pairing(self):
        mu = measure_of({unit_root(): Fraction(1, 2)}, depth=2)
        rows = pairing_rows(mu)
        assert rows == [[Fraction(1, 2)], [0] * 4]
        assert len(rows) == mu.depth // 2 + 1  # nothing below the depth

    def test_signs(self):
        mu = measure_of({unit_root(): Fraction(1, 2)}, depth=2)
        assert pairing_rows(mu, -1) == [[-v for v in row] for row in pairing_rows(mu)]

    def test_requires_balanced(self):
        lop = measure_of({DyadicInterval(2, 0): 1})
        with pytest.raises(ValueError, match="balanced"):
            pairing_rows(lop)

    def test_roundtrip_measure_first(self):
        rng = random.Random(34)
        for depth in (2, 4):
            for root in (unit_root(), window_root(1)):
                for _ in range(5):
                    mu = random_balanced_measure(rng, depth, root)
                    for flip in (1, -1):
                        back = measure_from_rows(pairing_rows(mu, flip), flip, root)
                        assert back.masses == mu.masses
                        assert back.depth == mu.depth and back.root == root

    def test_roundtrip_process_first(self):
        rows = [[Fraction(1)], [Fraction(1, 4)] * 4]
        mu = measure_from_rows(rows)
        assert mu.masses.get(unit_root(), mu.zero) == Fraction(3, 4)
        assert mu.masses.get(DyadicInterval(2, 2), mu.zero) == Fraction(1, 16)
        assert pairing_rows(mu) == rows

    def test_drift_is_own_mass(self):
        # the pairing is a bijection: at every node the drift, its value less
        # the mean of its quarters' values (none below the bottom), is its own
        # mass over |I|, and balance makes the half pair sums agree; exact
        # measures match exactly, float copies within mode_tol
        for depth in (0, 2, 4, 6, 8):
            for root in (unit_root(), window_root(1)):
                mu = random_balanced_measure(random.Random(600 + depth), depth, root)
                muf = measure_of({I: float(m) for I, m in mu.masses.items()}, root, depth)
                for m, kind in ((mu, Fraction), (muf, float)):
                    self.check_drift(m, kind)

    @staticmethod
    def check_drift(mu, kind):
        tol, top = mode_tol(mu.exact), mu.root.level
        for flip in (1, -1):
            rows = pairing_rows(mu, flip)
            assert len(rows) == len(mu.sums) == mu.depth // 2 + 1
            for k, row in enumerate(rows):
                below = rows[k + 1] if k + 1 < len(rows) else None
                for j, v in enumerate(row):
                    assert type(v) is kind
                    own = flip * mu._value(mu.own.get((2 * k, j), 0), top + 2 * k)
                    if below is not None:
                        ym, yp, xm, xp = below[4 * j:4 * j + 4]
                        assert abs((xm + xp) - (ym + yp)) <= tol, (mu, k, j)
                        v -= (ym + yp + xm + xp) / 4
                    assert abs(v - own) <= tol, (mu, k, j)


class TestEmbedding:
    def test_sum_brute_force(self):
        rng = random.Random(35)
        f = random_analytic(rng, 4)
        mu = random_balanced_measure(rng, 4)
        want = Fraction(0)
        for I, m in mu.masses.items():
            want += m * (f.u.average(I) ** 2 + f.v.average(I) ** 2)
        assert embedding_sum(f, mu) == want

    def test_slack_constant_function(self):
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        mu = measure_of({unit_root(): 1}, depth=2)
        assert embedding_sum(f, mu) == 1
        assert embedding_slack(f, mu) == pytest.approx(E - 1, abs=1e-12)
        assert embedding_sum(f, mu) == mu.packing_intensity() * f.norm2()

    def test_slack_nonnegative_randomized(self):
        rng = random.Random(36)
        for depth in (2, 4):
            for _ in range(20):
                f = random_analytic(rng, depth)
                mu = random_balanced_measure(rng, depth)
                assert embedding_slack(f, mu) >= -1e-9

    def test_compat_errors(self):
        f = random_analytic(random.Random(37), 2)
        deep = random_balanced_measure(random.Random(38), 4)
        with pytest.raises(ValueError):
            embedding_sum(f, deep)
        other = measure_of({window_root(1): 1}, root=window_root(1))
        with pytest.raises(ValueError):
            embedding_sum(f, other)


class TestWeightedSlack:
    def test_point_mass_closed_form(self):
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        for m in (0.25, 0.5, 1.0, 2.0):
            mu = measure_of({unit_root(): Fraction(m)}, depth=2)
            want = 1 - m * math.exp(-m)
            assert weighted_embedding_slack(f, mu) == pytest.approx(want, abs=1e-12)

    def test_no_packing_cap_needed(self):
        # intensity far above 1 is fine for the weighted form
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        mu = measure_of({unit_root(): 5}, depth=2)
        assert weighted_embedding_slack(f, mu) >= 0

    def test_nonnegative_randomized(self):
        rng = random.Random(39)
        for depth in (2, 4):
            for _ in range(20):
                f = random_analytic(rng, depth)
                mu = random_balanced_measure(rng, depth)
                mu = mu.scale(3 / mu.packing_intensity())  # packing 3, far above the cap
                assert weighted_embedding_slack(f, mu) >= -1e-12


class TestTelescoping:
    def test_point_mass_terms(self):
        m = 0.75
        f = DyadicAnalytic.from_leaves([1] * 4, [0] * 4)
        mu = measure_of({unit_root(): Fraction(3, 4)}, depth=2)
        deco = telescoped_weighted_slack(f, mu)
        assert deco.slack == pytest.approx(1 - m * math.exp(-m), abs=1e-12)
        assert deco.node_terms[0, 0] == pytest.approx(
            1 - math.exp(-m) * (1 + m), abs=1e-12
        )
        assert deco.root_term == pytest.approx(math.exp(-m), abs=1e-12)
        assert all(abs(t) <= 1e-12 for t in deco.leaf_terms.values())
        assert deco.total() == pytest.approx(deco.slack, abs=1e-12)

    def test_matches_and_nonnegative_randomized(self):
        rng = random.Random(40)
        for depth in (2, 4):
            for _ in range(15):
                f = random_analytic(rng, depth)
                mu = random_balanced_measure(rng, depth)
                deco = telescoped_weighted_slack(f, mu)
                assert abs(deco.total() - deco.slack) <= 1e-10
                assert deco.min_term() >= -1e-12

    def test_depth_mismatch(self):
        f = random_analytic(random.Random(41), 4)
        mu = measure_of({unit_root(): Fraction(1, 2)}, depth=2)
        with pytest.raises(ValueError):
            telescoped_weighted_slack(f, mu)

    def test_requires_balanced(self):
        f = random_analytic(random.Random(42), 2)
        lop = measure_of({DyadicInterval(2, 0): 1})
        with pytest.raises(ValueError):
            telescoped_weighted_slack(f, lop)


class TestBellmanChain:
    def test_gaps_nonnegative(self):
        rng = random.Random(43)
        for depth in (2, 4):
            for _ in range(10):
                f = random_analytic(rng, depth)
                mu = random_balanced_measure(rng, depth)
                gaps = bellman_chain_slacks(f, mu)
                assert gaps
                assert min(gaps.values()) >= -1e-9

    def test_overpacked_is_rescaled(self):
        f = random_analytic(random.Random(44), 2)
        mu = measure_of({unit_root(): 4}, depth=2)
        gaps = bellman_chain_slacks(f, mu)
        assert min(gaps.values()) >= -1e-9


class TestRandomBalanced:
    def test_exactly_balanced(self):
        rng = random.Random(45)
        for depth in (2, 4, 6):
            mu = random_balanced_measure(rng, depth)
            assert mu.exact
            assert mu.balance_residual() == 0
            assert mu.depth == depth

    def test_intensity_cap(self):
        rng = random.Random(46)
        for _ in range(10):
            mu = random_balanced_measure(rng, 4)
            assert mu.packing_intensity() <= 1

    def test_deterministic(self):
        a = random_balanced_measure(random.Random(47), 4)
        b = random_balanced_measure(random.Random(47), 4)
        assert a.masses == b.masses

    def test_window_root(self):
        mu = random_balanced_measure(random.Random(48), 2, window_root(1))
        assert mu.root == window_root(1)
        mu.require_balanced()

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="^depth must be even and nonnegative, got -2$"):
            random_balanced_measure(random.Random(0), -2)

    # sha256 prefixes of repr([(I.id, m) for I, m in mu.masses.items()]) for
    # random_balanced_measure(Random(500 + depth), depth, root); the masses
    # dict order is pinned too, since closure sums add in that order.
    PINNED = {
        (2, "unit"): "e7fdf51c6ba65ea4",
        (2, "window"): "122ec9c9ac2a3deb",
        (4, "unit"): "3d9356aacbeced4a",
        (4, "window"): "65521213069ad90f",
        (6, "unit"): "c4e28967f95e09cb",
        (6, "window"): "bf8cca944c060dd9",
        (8, "unit"): "0ad3207aa8ae942f",
        (8, "window"): "d655211f8f371632",
        (0, "unit"): "33dc118f5e38fe77",
        (0, "window"): "1a05215a98eebdde",
        (10, "unit"): "ecc8f5c7846a0d6d",
        (10, "window"): "06c692c42620e4dd",
    }

    # sha256 prefixes of the exact and float-mode outputs on the same
    # measures: both paired processes and the writer output, as
    # pinned_float_outputs builds them.
    PINNED_FLOAT = {
        (2, "unit"): "3d7b08d084a15baa",
        (2, "window"): "a87d0586fcf4febc",
        (4, "unit"): "743faa3170a4bd97",
        (4, "window"): "96d1ddff1b8a7dbd",
        (6, "unit"): "1e250c15d007869e",
        (6, "window"): "0d0e8194b0387e35",
        (8, "unit"): "e7c0894ac6a53b3a",
        (8, "window"): "73fef740b15119f0",
        (0, "unit"): "289e27892c0e42eb",
        (0, "window"): "3dccdfe7a5b23a8d",
        (10, "unit"): "2a84536202a7b235",
        (10, "window"): "84e5b8fe50900553",
    }

    # rng.getrandbits(64) right after each call above, which pins how many
    # bits the generator drew; the root does not change the draws.
    PINNED_NEXT = {
        0: 0xf3104e05762bb111,
        2: 0xbaec2f8b5a133a94,
        4: 0xca5bcd5f9d8962a9,
        6: 0xce08fe93857f0e76,
        8: 0xe0f129e7d0b838fe,
        10: 0x30a04fe978a26858,
    }

    @staticmethod
    def pinned_float_outputs(mu):
        muf = measure_of({I: float(m) for I, m in mu.masses.items()}, mu.root, mu.depth)
        state = []
        for m in (mu, muf):
            for flip in (1, -1):
                rows = pairing_rows(m, flip)
                at = m.root.descendant
                state.append([(at(2 * k, j).id, v) for k, row in enumerate(rows)
                              for j, v in enumerate(row)])
            state.append(json.dumps(measure_to_json(m)))
        return state

    @pytest.mark.parametrize("name", ["unit", "window"])
    @pytest.mark.parametrize("depth", [0, 2, 4, 6, 8, 10])
    def test_seeded_output_pinned(self, depth, name):
        root = unit_root() if name == "unit" else window_root(1)
        rng = random.Random(500 + depth)
        mu = random_balanced_measure(rng, depth, root)
        assert rng.getrandbits(64) == self.PINNED_NEXT[depth]
        assert mu.root == root and mu.depth == depth
        items = [(I.id, m) for I, m in mu.masses.items()]
        digest = hashlib.sha256(repr(items).encode()).hexdigest()
        assert digest[:16] == self.PINNED[(depth, name)]
        state = self.pinned_float_outputs(mu)
        digest = hashlib.sha256(repr(state).encode()).hexdigest()
        assert digest[:16] == self.PINNED_FLOAT[(depth, name)]


class TestBalanceRule:
    """require_balanced is the one balance rule: no slack for exact masses,
    DEFAULT_TOL for floats, and every caller that needs balance applies it."""

    @staticmethod
    def tilted(eps):
        # halves 1/2 + eps and 1/2 - eps below the root: balance residual eps
        q = Fraction(1, 4) if isinstance(eps, Fraction) else 0.25
        return DiscreteMeasure(unit_root(), 2, [(2, j) for j in range(4)], [q + eps, q, q - eps, q])

    def test_exact_residual_below_the_float_slack_is_rejected(self):
        mu = self.tilted(Fraction(1, 10**13))
        assert mu.balance_residual() == Fraction(1, 10**13)
        with pytest.raises(ValueError, match=r"not balanced \(residual 1e-13\)"):
            mu.require_balanced()

    @pytest.mark.parametrize("check", [
        telescoped_weighted_slack,
        bellman_chain_slacks,
        Configuration.build,
    ], ids=["telescoping", "chain", "configuration"])
    def test_every_caller_rejects_the_exact_tilt(self, check):
        f = random_analytic(random.Random(2), 2)
        with pytest.raises(ValueError, match="measure is not balanced .* equal half masses"):
            check(f, self.tilted(Fraction(1, 10**13)))

    def test_float_residual_within_the_slack_passes(self):
        mu = self.tilted(1e-13)
        assert 0 < mu.balance_residual() <= 1e-12
        mu.require_balanced()
        assert len(pairing_rows(mu)) == 2
        with pytest.raises(ValueError, match="not balanced"):
            self.tilted(2e-12).require_balanced()


class TestFlatMeasureGuards:
    def test_overflowing_total_is_rejected(self):
        # inf - inf at the root used to read as balance 0, so this passed as balanced
        masses = {DyadicInterval(2, j): 1e308 for j in range(4)}
        with pytest.raises(ValueError, match="float range"):
            measure_of(masses, depth=2)
        obj = {"depth": 2, "masses": {f"L2N{j}": 1e308 for j in range(4)}}
        with pytest.raises(ValueError, match="float range"):
            measure_from_json(obj)

    def test_large_finite_total_is_kept(self):
        mu = measure_of({DyadicInterval(2, j): 4e307 for j in range(4)}, depth=2)
        assert mu.subtree_mass(mu.root) == 1.6e308
        assert mu.balance_residual() == 0.0
        mu.require_balanced()
        assert mu.packing_intensity() == 1.6e308  # 4e307 / (1/4) at each quarter

    @pytest.mark.parametrize("build", [
        lambda: measure_from_json({"masses": {"L20000N0": 1}}),
        lambda: DiscreteMeasure(unit_root(), 10**8, [], []),
    ], ids=["deep-mass", "declared-depth"])
    def test_depth_past_the_float_range_is_rejected_before_its_rows(self, build):
        # 2.0 ** level overflows from level 1024 on; the level rows are never built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="where 2.0 \\*\\* level is no float"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_deepest_float_level_is_kept(self):
        mu = DiscreteMeasure(window_root(1), 1024, [], [])
        assert mu.depth == 1024 and mu.root.level + mu.depth == 1022
        with pytest.raises(ValueError, match="reaches level 1024"):
            DiscreteMeasure(unit_root(), 1024, [], [])

    def test_scale_into_overflow_is_rejected(self):
        mu = measure_of({DyadicInterval(2, j): 1e300 for j in range(4)}, depth=2)
        with pytest.raises(ValueError):
            mu.scale(1e10)

    def test_non_canonical_id_cannot_shadow_a_node(self):
        obj = {"depth": 2, "masses": {"L2N0": 1, "L02N0": 2, "L2N1": 1}}
        with pytest.raises(ValueError, match="not canonical"):
            measure_from_json(obj)

    def test_min_term_keeps_a_late_nan(self):
        from dyuch.carleson import WeightedSlackDecomposition

        a, b, c = (DyadicInterval(2, j) for j in range(3))
        deco = WeightedSlackDecomposition(0.0, {a: 1.0, b: math.nan}, 2.0, {c: 0.5})
        assert math.isnan(deco.min_term())
        deco = WeightedSlackDecomposition(0.0, {a: 1.0}, 2.0, {c: 0.5, b: math.nan})
        assert math.isnan(deco.min_term())
        assert WeightedSlackDecomposition(0.0, {a: 1.0}, 2.0, {c: 0.5}).min_term() == 0.5

    def test_derived_sums_are_cached(self):
        mu = random_balanced_measure(random.Random(3), 6)
        assert mu.packing_intensity() is mu.packing_intensity()
        assert mu.balance_residual() is mu.balance_residual()
        assert mu.float_densities() is mu.float_densities()
        f = random_analytic(random.Random(3), 6)
        assert f.u.pyramid() is f.u.pyramid()
