"""The exact certificate on level rows: memos, the measure parser, chain steps.

Every digest and message here was computed before measures were parsed
straight to rows, before the embedding and weighted sums were memoized,
before the Bellman chain ran on plain floats and before its per-node results
were keyed by (r, j), so each test checks that those changes left every
value bit for bit (or Fraction for Fraction) and every rejection word for
word as it was.  Node ids are made from the (r, j) keys here.
"""
import hashlib
import random

import pytest

from dyuch.bellman import E, dynamics_gap
from dyuch.carleson import (
    bellman_chain_slacks,
    embedding_slack,
    embedding_sum,
    measure_from_json,
    measure_to_json,
    random_balanced_measure,
    telescoped_weighted_slack,
    weighted_embedding_slack,
)
from dyuch.dyadic import (
    DyadicInterval,
    PiecewiseConstant,
    interval_from_id,
    left_sum,
    node_from_id,
)
from dyuch.extremal import Configuration
from dyuch import kernel
from dyuch.martingale import analytic_from_json, analytic_to_json, random_analytic

MIX = (2, 2, 2, 2, 4, 4, 4, 6, 6, 8)  # the exact-verify benchmark's block of depths


def stream(blocks, seed=1):
    """(f, mu) of the benchmark's seeded exact-verify stream, mu parsed from JSON."""
    rng = random.Random(seed)
    for _ in range(blocks):
        block = list(MIX)
        rng.shuffle(block)
        for depth in block:
            f = random_analytic(rng, depth)
            mu = random_balanced_measure(rng, depth)
            masses = {I.id: m for I, m in mu.items()}
            yield f, measure_from_json({"base": "unit", "depth": depth, "masses": masses})


def fresh(f, mu):
    """New objects holding the same pair and measure."""
    return analytic_from_json(analytic_to_json(f)), measure_from_json(measure_to_json(mu))


class TestMemo:
    def pair(self, seed=3, depth=4):
        rng = random.Random(seed)
        f, mu = random_analytic(rng, depth), random_balanced_measure(rng, depth)
        mu.float_densities()  # cached apart from the memos
        return f, mu

    def test_l2_norm2_computed_once(self):
        f, _ = self.pair()
        first = f.u.l2_norm2()
        assert f.u.l2_norm2() is first
        assert first == PiecewiseConstant(f.u.leaves).l2_norm2()

    @pytest.mark.parametrize("fn", [embedding_sum, weighted_embedding_slack])
    def test_cached_value_equals_fresh(self, fn):
        f, mu = self.pair()
        first = fn(f, mu)
        assert fn(f, mu) is first
        f2, mu2 = fresh(f, mu)
        assert fn(f2, mu2) == first

    @pytest.mark.parametrize("fn", [embedding_sum, weighted_embedding_slack])
    def test_second_pair_gets_its_own_result(self, fn):
        f, mu = self.pair()
        g, _ = self.pair(seed=4)
        want_f, want_g = fn(*fresh(f, mu)), fn(*fresh(g, mu))
        assert want_f != want_g
        assert fn(f, mu) == want_f
        assert fn(g, mu) == want_g
        assert fn(f, mu) == want_f

    @pytest.mark.parametrize("fn", [embedding_sum, weighted_embedding_slack])
    def test_memo_holds_one_entry(self, fn):
        f, mu = self.pair()
        pairs = [f] + [self.pair(seed=seed)[0] for seed in range(5, 9)]
        before = set(mu._cache)
        for g in pairs:
            fn(g, mu)
        added = set(mu._cache) - before
        assert len(added) == 1
        assert mu._cache[added.pop()][0] is pairs[-1]

    @staticmethod
    def plant(fn, f, mu, change):
        """Call fn once, then swap its memo entry's value for change(value)."""
        before = set(mu._cache)
        value = fn(f, mu)
        (key,) = set(mu._cache) - before
        mu._cache[key] = f, change(value)
        return change(value)

    def test_callers_reuse_the_first_sums(self):
        f, mu = self.pair()
        total = self.plant(embedding_sum, f, mu, lambda v: v / 2)
        norm2, packing = float(f.norm2()), float(mu.packing_intensity())
        assert embedding_slack(f, mu) == E * packing * norm2 - float(total)
        bound = 3.0 * E * kernel.testing_constant(mu) * norm2
        assert kernel.testing_embedding_slack(f, mu) == bound - float(total)
        assert Configuration.build(f, mu).ratio == float(total) / norm2
        weighted = self.plant(weighted_embedding_slack, f, mu, lambda v: v + 1.0)
        assert telescoped_weighted_slack(f, mu).slack == weighted


class TestStepSurplus:
    @staticmethod
    def seeded_steps(n):
        rng = random.Random(11)
        for _ in range(n):
            r, i = rng.uniform(-2, 2), rng.uniform(-2, 2)
            F = r * r + i * i + rng.uniform(0, 3)
            M = rng.uniform(0, 1)
            mu = rng.uniform(0, M)
            room = min(M - mu, 1 - (M - mu))
            parts = [F + rng.uniform(-1, 1) for _ in range(3)]
            parts.append(4 * F - left_sum(parts))  # the same bits on every Python
            split = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-room, room),
                     rng.uniform(-room, room), mu, tuple(parts))
            yield (F, r, i, M), split

    # dynamics_gap on the 2,000 seeded steps, by repr, when it took a state and a
    # split object, before it ran on plain floats
    GAPS = "cd4bd5991edbf01a18696bcdeaf4a2d85e268e7860414e5aea4c986d2460297f"

    def digest(self, gap):
        h = hashlib.sha256()
        for state, split in self.seeded_steps(2000):
            h.update(f"{gap(state, split)!r}\n".encode())
        return h.hexdigest()

    def test_row_function_matches_old_dynamics_gap(self):
        assert self.digest(lambda p, s: dynamics_gap(*p, *s)) == self.GAPS

    @pytest.mark.parametrize("state, split, message", [
        ((3.0, 2.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 0.0, (3.0,) * 4),
         "state lies outside the certificate domain"),
        ((3.0, 1.0, 0.0, 1.5), (0.0, 0.0, 0.0, 0.0, 0.0, (3.0,) * 4),
         "state lies outside the certificate domain"),
        ((3.0, 1.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, -0.1, (3.0,) * 4),
         "mass density must be nonnegative"),
        ((3.0, 1.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 0.1, (3.0, 3.0, 3.0, 4.0)),
         "children second moments must average to the parent F"),
    ])
    def test_same_rejections(self, state, split, message):
        with pytest.raises(ValueError) as exc:
            dynamics_gap(*state, *split)
        assert str(exc.value) == message


# (base, id) -> the message a table holding that id got before ids were parsed to rows
REJECTIONS = {
    ("unit", "L02N0"): "interval id 'L02N0' is not canonical (write L2N0)",
    ("unit", "L2N01"): "interval id 'L2N01' is not canonical (write L2N1)",
    ("unit", "L+2N0"): "interval id 'L+2N0' is not canonical (write L2N0)",
    ("unit", "L2N00"): "interval id 'L2N00' is not canonical (write L2N0)",
    ("unit", "L 2N0"): "interval id 'L 2N0' is not canonical (write L2N0)",
    ("unit", "nope"): "malformed interval id 'nope'",
    ("unit", "L2"): "malformed interval id 'L2'",
    ("unit", "N2"): "malformed interval id 'N2'",
    ("unit", "LN0"): "malformed interval id 'LN0': invalid literal for int() with base 10: ''",
    ("unit", "L2N"): "malformed interval id 'L2N': invalid literal for int() with base 10: ''",
    ("unit", "L2Nx"): "malformed interval id 'L2Nx': invalid literal for int() with base 10: 'x'",
    ("unit", "LxN0"): "malformed interval id 'LxN0': invalid literal for int() with base 10: 'x'",
    ("unit", "L100000000N0x"):
        "malformed interval id 'L100000000N0x': invalid literal for int() with base 10: '0x'",
    ("unit", "L1N0"): "L1N0 is not 4-adic",
    ("unit", "L3N5"): "L3N5 is not 4-adic",
    ("unit", "L-2N0"): "malformed interval id 'L-2N0': unit base requires level >= 0",
    ("unit", "L2N4"): "malformed interval id 'L2N4': index 4 outside the window at level 2",
    ("unit", "L2N-1"): "malformed interval id 'L2N-1': index -1 outside the window at level 2",
    ("real_line", "L0N4"): "malformed interval id 'L0N4': index 4 outside the window at level 0",
    ("real_line", "L-4N0"): "malformed interval id 'L-4N0': level -4 above the window root -2",
    ("real_line", "L-2N1"):
        "malformed interval id 'L-2N1': index 1 outside the window at level -2",
    ("real_line", "L1N0"): "L1N0 is not 4-adic",
    ("real_line", "L0N-1"):
        "malformed interval id 'L0N-1': index -1 outside the window at level 0",
    ("real_line", "L2N16"):
        "malformed interval id 'L2N16': index 16 outside the window at level 2",
}


class TestMeasureParser:
    @staticmethod
    def table(base, *keys):
        if base == "unit":
            return {"base": "unit", "masses": {"L0N0": 1, **{k: 1 for k in keys}}}
        return {"base": base, "ancestor_levels": 1, "masses": {"L-2N0": 1, **{k: 1 for k in keys}}}

    @pytest.mark.parametrize("base, key", sorted(REJECTIONS))
    def test_same_rejection_as_before(self, base, key):
        with pytest.raises(ValueError) as exc:
            measure_from_json(self.table(base, key))
        assert str(exc.value) == REJECTIONS[base, key]

    @pytest.mark.parametrize("base, key", [k for k in sorted(REJECTIONS) if "4-adic" not in
                                           REJECTIONS[k]])
    def test_interval_parser_agrees(self, base, key):
        anc = 1 if base == "real_line" else 0
        for parse in (node_from_id, interval_from_id):
            with pytest.raises(ValueError) as exc:
                parse(key, base, anc)
            assert str(exc.value) == REJECTIONS[base, key]

    def test_ids_are_parsed_before_parity_and_masses(self):
        with pytest.raises(ValueError, match="^malformed interval id 'nope'$"):
            measure_from_json(self.table("unit", "L1N0", "nope"))
        obj = self.table("unit", "L1N0")
        obj["masses"]["L2N0"] = float("nan")
        with pytest.raises(ValueError, match="^L1N0 is not 4-adic$"):
            measure_from_json(obj)

    def test_rows_match_intervals(self):
        for base, anc, ids in (("unit", 0, ["L0N0", "L2N3", "L4N15"]),
                               ("real_line", 1, ["L-2N0", "L0N3", "L2N15"])):
            root = interval_from_id(ids[0], base, anc)
            obj = {"base": base, "masses": {k: t + 1 for t, k in enumerate(ids)}}
            if anc:
                obj["ancestor_levels"] = anc
            mu = measure_from_json(obj)
            for t, key in enumerate(ids):
                I = interval_from_id(key, base, anc)
                assert mu.masses.get(I, mu.zero) == t + 1
                assert root.contains(I)
            assert [I.id for I, _ in mu.items()] == ids

    def test_check_depth_sees_the_depth_before_rows(self):
        seen = []
        mu = measure_from_json({"masses": {"L0N0": 1, "L4N0": 2, "L6N0": 0}}, seen.append)
        assert seen == [4] == [mu.depth]
        measure_from_json({"depth": 6, "masses": {"L0N0": 1}}, seen.append)
        assert seen[-1] == 6


# sha256 over 40 blocks of the seed-1 exact-verify stream, computed before the
# certificate ran on level rows: Fractions by str, floats by repr, node ids in order
DIGESTS = {
    "chain": "66fe2a330289639bc8d4421cf1b6c17a065df443937e3ecc33bf46a48b2daa44",
    "telescope": "9b1a2a6090da2a268b894503a547086febbfc32c3646a8e7a1dc3fb3d7a6f64b",
    "embedding": "a161f407372c6f4d0fe91f12c931a632d25e5c214d5c3b06dfe1b30a0bf39392",
    "weighted": "48522c84ccafde550fca6262a09e37b0fc6b41458aee1433525af4040012712b",
}


def test_certificate_digests_on_the_exact_verify_stream():
    hashes = {key: hashlib.sha256() for key in DIGESTS}
    for f, mu in stream(40):
        hashes["embedding"].update(f"{embedding_sum(f, mu)}\n".encode())
        hashes["weighted"].update(f"{weighted_embedding_slack(f, mu)!r}\n".encode())
        deco = telescoped_weighted_slack(f, mu)
        lines = [repr(deco.slack), repr(deco.root_term)]
        at = f.root.descendant
        lines += [f"{at(*n).id} {t!r}" for n, t in deco.node_terms.items()]
        lines += [f"{at(*n).id} {t!r}" for n, t in deco.leaf_terms.items()]
        hashes["telescope"].update(("\n".join(lines) + "\n").encode())
        gaps = bellman_chain_slacks(f, mu)
        hashes["chain"].update("".join(f"{at(*n).id} {g!r}\n" for n, g in gaps.items()).encode())
    assert {key: h.hexdigest() for key, h in hashes.items()} == DIGESTS


def test_certificate_builds_no_interval_per_node(monkeypatch):
    # the telescoping and chain results are keyed by (r, j): no DyadicInterval
    # is built for any of a depth-8 pair's 85 internal nodes and 256 leaves,
    # nor by the kernel's testing sums
    rng = random.Random(8)
    f, mu = random_analytic(rng, 8), random_balanced_measure(rng, 8)
    built = []
    real = DyadicInterval.__post_init__

    def counted(self):
        built.append(self.id)
        real(self)

    monkeypatch.setattr(DyadicInterval, "__post_init__", counted)
    deco = telescoped_weighted_slack(f, mu)
    gaps = bellman_chain_slacks(f, mu)
    assert len(deco.node_terms) == len(gaps) == 85 and len(deco.leaf_terms) == 256
    assert list(gaps) == list(deco.node_terms) == [(r, j) for r in (0, 2, 4, 6)
                                                   for j in range(1 << r)]
    assert built == []
    # the kernel scan walks (k, j) rows: it builds its two reported nodes only
    scan = kernel.testing_scan(mu)
    assert scan.nodes_checked == 1 + 4 + 16 + 64 + 256
    assert built == [scan.worst_testing_node.id, scan.worst_packing_node.id]
    I = DyadicInterval(8, 77)
    del built[:]
    total = kernel.testing_sum(mu, I)
    assert built == [] and total == kernel.testing_to_packing(mu, I).testing_sum
