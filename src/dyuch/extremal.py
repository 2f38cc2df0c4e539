"""Sharpness side of the embedding bound.

Everything here chases the constant from below: admissible configurations
and a seeded random search over measure and pair parameters with depth warm
starts.  The closed-form certificate that the constant cannot be improved
lives in bellman, beside the value function.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bellman import E
from .dyadic import DEFAULT_TOL, _sum_pyramid, unit_root
from .martingale import DyadicAnalytic, _rotated_leaves, _sliced_from_increments, _sliced_leaves, s0
from .carleson import DiscreteMeasure, _spread, _subtree_sums, embedding_slack, embedding_sum

SLACK_TOL = 1e-9
MAX_SEARCH_BUDGET = 100_000  # cap on search's budget, which sets its work, and on restarts


@dataclass
class Configuration:
    """Admissible measure and pair, with the ratio they certify.

    ratio is the embedding sum over the squared norm; with the packing
    intensity capped at one, the theorem pins it below e, and the search
    drives it upward.
    """

    f: DyadicAnalytic
    mu: DiscreteMeasure
    ratio: float

    @classmethod
    def build(cls, f: DyadicAnalytic, mu: DiscreteMeasure) -> "Configuration":
        mu.require_balanced()
        packing = float(mu.packing_intensity())
        if not packing <= 1.0 + DEFAULT_TOL:
            raise ValueError(f"packing intensity {packing:.6g} exceeds the unit cap")
        norm2 = float(f.norm2())
        if not norm2 > 0.0:
            raise ValueError("the zero pair certifies nothing")
        slack = embedding_slack(f, mu)
        if not slack >= -SLACK_TOL:
            raise ValueError(f"embedding bound violated (slack {slack:.3g})")
        ratio = float(embedding_sum(f, mu)) / norm2
        if not ratio <= E + DEFAULT_TOL:
            raise ValueError(f"ratio {ratio:.6g} exceeds e; configuration is invalid")
        return cls(f, mu, ratio)


# A search state holds the root values u0, v0 and one row per 4-adic level
# r = 0, 2, ..., depth - 2: "incs" rows of (dx, dy) increments for the pair
# and "meas" rows of (own, ax, ay) splits for the measure, nodes left to right.


def _flat_state(depth: int) -> dict:
    # the hand-built pattern certifying ratio one at every depth
    state = {"u0": 1.0, "v0": 0.0, "incs": [[(1.0, 1.0)]], "meas": [[(0.0, 0.5, 0.5)]]}
    for _ in range(2, depth - 1, 2):
        state = _embed_state(state)
    return state


def _random_state(rng: random.Random, depth: int) -> dict:
    incs, meas = [], []
    for r in range(0, depth - 1, 2):
        amp = 2.0 / (1.0 + r)
        inc_row, meas_row = [], []
        for _ in range(1 << r):
            inc_row.append((rng.uniform(-amp, amp), rng.uniform(-amp, amp)))
            meas_row.append((rng.random(), rng.random(), rng.random()))
        incs.append(inc_row)
        meas.append(meas_row)
    return {"u0": rng.uniform(-2.0, 2.0), "v0": rng.uniform(-2.0, 2.0), "incs": incs, "meas": meas}


def _gaussians(rng: random.Random, count: int, sigma: float) -> list:
    """[rng.gauss(0.0, sigma) for _ in range(count)] in one pass, leaving rng
    in the same state: random.gauss's Box-Muller pairs, cosine half first,
    with an unused sine half left cached in rng.gauss_next."""
    out = []
    spare = rng.gauss_next
    if count and spare is not None:
        out.append(0.0 + spare * sigma)
        count, spare = count - 1, None
    draw, append = rng.random, out.append
    for _ in range((count + 1) >> 1):
        x2pi = draw() * math.tau
        g2rad = math.sqrt(-2.0 * math.log(1.0 - draw()))
        spare = math.sin(x2pi) * g2rad
        append(0.0 + math.cos(x2pi) * g2rad * sigma)
        append(0.0 + spare * sigma)
    if count & 1:
        out.pop()  # the last sine half stays cached
    elif count:
        spare = None
    rng.gauss_next = spare
    return out


def _jitter_state(rng: random.Random, state: dict, step: float) -> dict:
    # one Gaussian per parameter, drawn in the order incs, meas, u0, v0
    incs, meas = state["incs"], state["meas"]
    count = 2 * sum(map(len, incs)) + 3 * sum(map(len, meas)) + 2
    draws = iter(_gaussians(rng, count, step))
    incs = [[(dx + a, dy + b) for (dx, dy), a, b in zip(row, draws, draws)] for row in incs]
    meas = [[tuple([0.0 if q <= 0.0 else 1.0 if q >= 1.0 else q  # clamped to [0, 1]
                    for q in (p0 + a, p1 + b, p2 + c)])
             for (p0, p1, p2), a, b, c in zip(row, draws, draws, draws)] for row in meas]
    u0, v0 = state["u0"] + next(draws), state["v0"] + next(draws)
    return {"u0": u0, "v0": v0, "incs": incs, "meas": meas}


def _embed_state(state: dict) -> dict:
    """Refine a state two levels down without changing what it evaluates to.

    New pair increments are zero (leaves repeat) and old bottom nodes keep
    all their mass, so the ratio carries over exactly.
    """
    n = 4 * len(state["incs"][-1])
    return {"u0": state["u0"], "v0": state["v0"], "incs": state["incs"] + [[(0.0, 0.0)] * n],
            "meas": state["meas"] + [[(1.0, 0.5, 0.5)] * n]}


def _pair_from_state(state: dict) -> DyadicAnalytic:
    u = _sliced_from_increments(state["u0"], state["incs"])
    return DyadicAnalytic(u, s0(u).shift(state["v0"]), validate=False)


def _state_masses(state: dict):
    """(nodes, masses) of a state's measure: a unit root mass spread with
    _spread, node (r, j) keeping own of it and passing each half of the rest
    on ax : 1 - ax and ay : 1 - ay for (own, ax, ay) = meas[r // 2][j], then
    rescaled to unit packing intensity."""
    meas, depth = state["meas"], 2 * len(state["meas"])

    def split(r, j, m):
        own, ax, ay = meas[r // 2][j]
        take = own * m
        half = (m - take) / 2
        return take, ax * half, (1 - ax) * half, ay * half, (1 - ay) * half

    nodes, masses = _spread(depth, 1.0, split)
    sums = _subtree_sums(zip(nodes, masses), depth)
    # the packing intensity, as DiscreteMeasure computes it; the root's unit mass makes it positive
    c = 1.0 / max(max(level.values()) * (1 << 2 * k) for k, level in enumerate(sums) if level)
    return nodes, [c * m for m in masses]


def _measure_from_state(state: dict) -> DiscreteMeasure:
    return DiscreteMeasure(unit_root(), 2 * len(state["meas"]), *_state_masses(state))


def _evaluate_state(state: dict) -> float:
    """The ratio of _pair_from_state and _measure_from_state bit for bit (-inf
    for a zero pair), from their loops run on the float rows alone."""
    depth, v0 = 2 * len(state["incs"]), state["v0"]
    u = _sliced_leaves(state["u0"], state["incs"])
    upyr = _sum_pyramid(u, False)
    v = [x + v0 for x in _rotated_leaves(upyr, False)]  # s0(u).shift(v0)
    cell = 2.0 ** -depth  # the leaf length, as l2_norm2 applies it
    uu = vv = 0  # left folds, as PiecewiseConstant.inner adds
    for x in u:
        uu += x * x
    for y in v:
        vv += y * y
    norm2 = uu * cell + vv * cell
    if norm2 < 1e-15:
        return -math.inf
    vpyr = _sum_pyramid(v, False)
    total = 0.0
    for (r, j), m in zip(*_state_masses(state)):
        a, b = upyr[r][j], vpyr[r][j]
        total += m * (a * a + b * b)
    return total / norm2


def _search_state(depth: int, budget: int, seed: int, restarts: int) -> dict:
    """Best state found at the given depth, warm started two levels up."""
    rng = random.Random(seed)
    restarts = min(restarts, budget)
    seeds = [_flat_state(depth)]
    if depth > 2:
        seeds.append(_embed_state(_search_state(depth - 2, budget // 2, seed + 1, restarts)))

    best_state, best_ratio = None, -math.inf
    for state in seeds:
        ratio = _evaluate_state(state)
        if ratio > best_ratio:
            best_state, best_ratio = state, ratio

    per_phase = budget // max(1, restarts)
    for _ in range(restarts):
        phase_state = _random_state(rng, depth)
        phase_ratio = _evaluate_state(phase_state)
        for _ in range(per_phase - 1):
            cand = _jitter_state(rng, phase_state, 0.15)
            ratio = _evaluate_state(cand)
            if ratio > phase_ratio:
                phase_state, phase_ratio = cand, ratio
        if phase_ratio > best_ratio:
            best_state, best_ratio = phase_state, phase_ratio
    return best_state


def search(depth: int, budget: int = 2000, seed: int = 0, restarts: int = 6):
    """Seeded search for high-ratio configurations at the given depth.

    Warm starts from the best state two levels up, so the ratio is at least
    that of _embed_state(_search_state(depth - 2, budget // 2, seed + 1,
    restarts)); it may still drop as depth grows (search(d, 800, 0) gives
    1.1700, 1.1547 and 1.1328 at d = 2, 4, 6).  Each level spends its budget
    on at most that many random restarts with local jitter refinement, so a
    search scores at most 2 * budget + depth states.  Same arguments, same
    result, bit for bit, on Python 3.10 to 3.13: the jitter draws exactly
    random.gauss's values, and every float total is a plain left fold.
    """
    if depth < 2 or depth % 2:
        raise ValueError("depth must be an even number at least 2")
    if not (1 <= budget <= MAX_SEARCH_BUDGET and 0 <= restarts <= MAX_SEARCH_BUDGET):
        raise ValueError(f"budget must lie in 1..{MAX_SEARCH_BUDGET} and restarts in"
                         f" 0..{MAX_SEARCH_BUDGET}, got {budget} and {restarts}")
    state = _search_state(depth, budget, seed, restarts)
    return Configuration.build(_pair_from_state(state), _measure_from_state(state))

