"""Value-function certificate for the embedding bound.

The certificate is the explicit function B(F, r, i, M) = e*F
- exp(1 - M) * (r*r + i*i) on the domain F >= r*r + i*i, 0 <= M <= 1.
Its size is pinned between 0 and e*F, and one step of the split dynamics
below always releases at least the mass harvested at the node.  The
quadratic form governing the concavity part is written out as an explicit
4x4 matrix whose minors have closed forms; verify_sliced_psd stress-tests
positive semidefiniteness numerically at scale.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where the PSD form needs it, not on import
    import numpy as np

E = math.e
PSD_TOL = 1e-9
DOMAIN_TOL = 1e-12
STEP_TOL = 1e-9  # domain and constraint slack of one step of the dynamics
PSD_SLICE = 1 << 14  # samples checked at a time, so the 4x4 forms stay one slice deep
# checked samples (16 slices) from which spawned workers pay for their start-up of
# about 0.45 s on a 2-vCPU VM; verify_sliced_psd checks fewer in process
PSD_POOL_SAMPLES = 1 << 18
# cap on verify_sliced_psd's draws, 24 bytes each: at the cap a run takes about 18 s and
# 340 MB on a 2-vCPU VM
MAX_PSD_SAMPLES = 10_000_000
MAX_SCAN_POINTS = 1_000_000  # cap on scan_unsliced's grid, which it holds as a list


@dataclass(frozen=True)
class BellmanPoint:
    """State (F, r, i, M): second moment, averaged pair, normalized mass."""

    F: float
    r: float
    i: float
    M: float

    def in_domain(self, tol: float = DOMAIN_TOL) -> bool:
        return (
            self.F >= self.r * self.r + self.i * self.i - tol
            and -tol <= self.M <= 1 + tol
        )


def bellman_value(p: BellmanPoint) -> float:
    return E * p.F - math.exp(1.0 - p.M) * (p.r * p.r + p.i * p.i)


def range_gaps(p: BellmanPoint):
    """Distances to the pinning bounds 0 <= B <= e*F; both nonnegative on the domain."""
    b = bellman_value(p)
    return b, E * p.F - b


def derivative_gap(p: BellmanPoint, mu: float) -> float:
    """Surplus of the mass-harvest step over the linear harvest.

    Lowering M by mu raises the value by exp(1 - M)(r*r + i*i) expm1(mu),
    which must cover the harvested mu * (r*r + i*i); the difference is
    nonnegative whenever M <= 1 and mu >= 0.
    """
    mod2 = p.r * p.r + p.i * p.i
    return math.exp(1.0 - p.M) * mod2 * math.expm1(mu) - mu * mod2


@dataclass(frozen=True)
class SplitSpec:
    """One step of the four-way split dynamics.

    dxr and dyr are the half jumps of the pair, d1 and d2 the half spreads
    of the children masses around their common mean M - mu, and F_parts the
    children second moments in the order (x-, x+, y-, y+).
    """

    dxr: float
    dyr: float
    d1: float
    d2: float
    mu: float
    F_parts: tuple

    def __post_init__(self):
        if len(self.F_parts) != 4:
            raise ValueError("F_parts must list the four children (x-, x+, y-, y+)")

    def children(self, p: BellmanPoint):
        """Children states in the order (x-, x+, y-, y+).

        The pair moves by the conjugate rule: a jump dxr in r across the x
        pair forces the jump dyr in i with opposite orientation, and vice
        versa across the y pair.
        """
        mean = p.M - self.mu
        fxm, fxp, fym, fyp = self.F_parts
        return (
            BellmanPoint(fxm, p.r - self.dxr, p.i + self.dyr, mean - self.d1),
            BellmanPoint(fxp, p.r + self.dxr, p.i - self.dyr, mean + self.d1),
            BellmanPoint(fym, p.r - self.dyr, p.i - self.dxr, mean - self.d2),
            BellmanPoint(fyp, p.r + self.dyr, p.i + self.dxr, mean + self.d2),
        )


def _step_gap(p: BellmanPoint, split: SplitSpec) -> float:
    if not p.in_domain(STEP_TOL):
        raise ValueError("state lies outside the certificate domain")
    if abs(sum(split.F_parts) / 4 - p.F) > max(STEP_TOL, 1e-9 * abs(p.F)):
        raise ValueError("children second moments must average to the parent F")
    kids = split.children(p)
    return bellman_value(p) - sum(bellman_value(c) for c in kids) / 4


def concavity_gap(p: BellmanPoint, split: SplitSpec) -> float:
    """Midpoint concavity surplus along a mass-free split; nonnegative always.

    Children may leave the domain without breaking the inequality, so they
    are not checked.
    """
    if split.mu != 0:
        raise ValueError("concavity_gap needs a mass-free split (mu == 0)")
    return _step_gap(p, split)


def dynamics_gap(p: BellmanPoint, split: SplitSpec) -> float:
    """Full one-step surplus: value drop minus the harvested mass term."""
    if split.mu < 0:
        raise ValueError("mass density must be nonnegative")
    harvest = split.mu * (p.r * p.r + p.i * p.i)
    return _step_gap(p, split) - harvest


@dataclass(frozen=True)
class HessianParams:
    """Parameters of the sliced concavity form.

    M is the state mass, d1 and d2 the half spreads of the children masses:
    floats for one form, or numpy arrays of one shape for a batch of them.
    """

    M: float
    d1: float
    d2: float


def unsliced_form_matrix(d, d1, d2) -> np.ndarray:
    """Concavity form with the pair weights tilted by exp(-+d), in units of
    exp(-M)/4; the tilt makes the form lose definiteness for some admissible
    parameters, which is why the balance assumption cannot be dropped.

    The parameters broadcast: arrays of one shape give one array of that
    shape + (4, 4), filled in place.
    """
    import numpy as np

    a, b = np.exp(-d), np.exp(d)
    p = a * (np.exp(-d1) - np.exp(d1))
    q = b * (np.exp(-d2) - np.exp(d2))
    sig = 2.0 * a * np.cosh(d1) + 2.0 * b * np.cosh(d2)
    mats = np.zeros(np.shape(sig) + (4, 4))
    mats[..., 0, 0] = mats[..., 1, 1] = sig - 4.0
    mats[..., 2, 2] = mats[..., 3, 3] = sig
    mats[..., 0, 2] = mats[..., 2, 0] = p
    mats[..., 1, 3] = mats[..., 3, 1] = -p
    mats[..., 0, 3] = mats[..., 3, 0] = mats[..., 1, 2] = mats[..., 2, 1] = q
    return mats


def concavity_form_matrix(hp: HessianParams) -> np.ndarray:
    """Quadratic form of the sliced concavity surplus in (r, i, dxr, dyr).

    For a mass-free split the surplus equals e times w.T A w with
    w = (r, i, dxr, dyr).  The matrix is positive semidefinite for every
    real (M, d1, d2), which is the heart of the embedding bound.  It is the
    untilted form scaled in place by exp(-M)/4.
    """
    import numpy as np

    mats = unsliced_form_matrix(0.0, hp.d1, hp.d2)
    mats *= np.asarray(np.exp(-hp.M) / 4.0)[..., None, None]
    return mats


def principal_minors(mat: np.ndarray):
    """Nested principal minors of a 4x4 form (or a batch), from the upper left."""
    import numpy as np

    return [np.linalg.det(mat[..., :k, :k]) for k in range(1, 5)]


def third_minor_closed_form(hp: HessianParams):
    """Upper-left 3x3 minor of the sliced form in closed form."""
    import numpy as np

    x1 = 2.0 * np.cosh(hp.d1)
    x2 = 2.0 * np.cosh(hp.d2)
    return (np.exp(-hp.M) / 4.0) ** 3 * (x1 + x2 - 4.0) * 2.0 * (x1 - 2.0) * (x2 - 2.0)


def det_closed_form(hp: HessianParams):
    """Determinant of the sliced form in closed form; a fourth power, never negative."""
    import numpy as np

    s1 = 2.0 * np.sinh(hp.d1 / 2.0)
    s2 = 2.0 * np.sinh(hp.d2 / 2.0)
    return 4.0 * (np.exp(-hp.M) / 4.0) ** 4 * s1**4 * s2**4


def unsliced_third_minor(d: float, d1: float, d2: float) -> float:
    """Upper-left 3x3 minor of the tilted form, in units of (exp(-M)/4)**3.

    Factors as (sig - 4) * F; the second factor dips below zero off the
    d = 0 slice, so the tilted form admits genuine counterexamples.
    """
    x1 = 2.0 * math.cosh(d1)
    x2 = 2.0 * math.cosh(d2)
    a = math.exp(-d)
    b = math.exp(d)
    sig = a * x1 + b * x2
    f = 2.0 * x1 * x2 - 4.0 * a * x1 - 4.0 * b * x2 + 4.0 * a * a + 4.0 * b * b
    return (sig - 4.0) * f


def laplacian_step_gap(
    m_parent: float,
    mu_over_len: float,
    child_ms,
    u: float,
    v: float,
    dxu: float,
    dyu: float,
) -> float:
    """One-step surplus of the exponentially weighted second moment.

    child_ms lists the children weights in the order (x-, x+, y-, y+); both
    pair means must sit at m_parent + mu_over_len, which is how a balanced
    measure feeds its mass back into the process.  The surplus
    mean of exp(m_c)(u_c^2 + v_c^2) minus
    exp(m_parent)(u^2 + v^2)(1 + mu_over_len) is nonnegative for every real
    choice of weights meeting the pair-mean constraint.
    """
    mxm, mxp, mym, myp = child_ms
    target = m_parent + mu_over_len
    if abs((mxm + mxp) / 2 - target) > STEP_TOL or abs((mym + myp) / 2 - target) > STEP_TOL:
        raise ValueError("children weight pairs must average to parent + density")
    kids = (
        (mxm, u - dxu, v + dyu),
        (mxp, u + dxu, v - dyu),
        (mym, u - dyu, v - dxu),
        (myp, u + dyu, v + dxu),
    )
    acc = 0.0
    for m_c, a, b in kids:
        acc += math.exp(m_c) * (a * a + b * b)
    return acc / 4.0 - math.exp(m_parent) * (u * u + v * v) * (1.0 + mu_over_len)


@dataclass
class PsdReport:
    """Outcome of a randomized positive semidefiniteness stress test."""

    samples: int
    min_minor: float
    min_eigenvalue: float
    max_third_minor_error: float
    max_det_error: float
    closed_form_failures: int
    ok: bool


def verify_sliced_psd(
    samples: int = 100_000,
    seed: int = 0,
    tolerance: float = PSD_TOL,
    boundary: bool = True,
) -> PsdReport:
    """Stress-test the sliced concavity form over the certificate domain.

    Draws M uniformly in [0, 1] and the spreads uniformly within the window
    keeping children masses in range, adds the degenerate edges d1 = 0 and
    d2 = 0, and checks every nested minor, the spectrum, and the two closed
    forms.  Closed forms are compared with a relative gate that falls back
    to absolute near their zero sets.  The draws are checked in slices of
    PSD_SLICE samples, the edges in one slice of their own, and a NaN
    anywhere makes its minimum or maximum NaN.  The report does not depend
    on how many CPUs check the slices.
    """
    if not (0 <= samples <= MAX_PSD_SAMPLES and (samples or boundary)):
        raise ValueError(f"--samples must lie in 0..{MAX_PSD_SAMPLES} and leave a sample"
                         f" to check, got {samples}")
    import numpy as np

    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, samples)
    delta = np.minimum(m, 1.0 - m)
    d1 = rng.uniform(-1.0, 1.0, samples)
    d1 *= delta
    d2 = rng.uniform(-1.0, 1.0, samples)
    d2 *= delta
    del delta
    slices = [(m[lo:lo + PSD_SLICE], d1[lo:lo + PSD_SLICE], d2[lo:lo + PSD_SLICE])
              for lo in range(0, samples, PSD_SLICE)]
    expected = samples
    if boundary:
        grid_m, grid_t = np.meshgrid(
            np.linspace(0.0, 1.0, 21), np.linspace(-0.5, 0.5, 21)
        )
        gm, gt = grid_m.ravel(), grid_t.ravel()
        zero = np.zeros_like(gm)
        slices.append((np.concatenate([gm, gm]), np.concatenate([zero, gt]),
                       np.concatenate([gt, zero])))
        expected += 2 * gm.size
    return _fold(_check_slices(slices), expected, tolerance)


def _check_slice(m, d1, d2) -> list:
    """Fold row of one slice: its size, the four minor minima, the least
    eigenvalue, the two largest closed-form errors and the failure count."""
    import numpy as np

    hp = HessianParams(m, d1, d2)
    mats = concavity_form_matrix(hp)
    minors = principal_minors(mats)
    third_closed, det_closed = third_minor_closed_form(hp), det_closed_form(hp)
    third_err = np.abs(minors[2] - third_closed)
    det_err = np.abs(minors[3] - det_closed)
    third_gate = np.maximum(1e-9 * np.abs(third_closed), 1e-12)
    det_gate = np.maximum(1e-9 * np.abs(det_closed), 1e-12)
    failures = (~(third_err <= third_gate)).sum() + (~(det_err <= det_gate)).sum()
    return [len(m), *(float(mn.min()) for mn in minors),
            float(np.linalg.eigvalsh(mats)[:, 0].min()),
            float(third_err.max()), float(det_err.max()), int(failures)]


def _check_slices(slices) -> list:
    """Fold rows of every slice, in slice order.

    Runs with fewer than PSD_POOL_SAMPLES samples, or one usable CPU, are
    checked in process.  Larger ones also go to spawned workers, one per
    further usable CPU: the workers are fed slices from the front, two
    queued per worker, while this process checks slices from the back.
    Workers are spawned, not forked, because numpy's BLAS threads already
    run in this process.  No future is ever cancelled: Python 3.11's pool
    hangs when a worker dies while a cancelled one is still queued.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(slices)) - 1
    if workers < 1 or sum(len(m) for m, _, _ in slices) < PSD_POOL_SAMPLES:
        return [_check_slice(*s) for s in slices]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    rows = [None] * len(slices)
    queued = {}  # future -> index of its slice
    front, back = 0, len(slices)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        while front < back:
            for future in [f for f in queued if f.done()]:
                rows[queued.pop(future)] = future.result()
            while front < back and len(queued) < 2 * workers:
                queued[pool.submit(_check_slice, *slices[front])] = front
                front += 1
            if front < back:
                back -= 1
                rows[back] = _check_slice(*slices[back])
        for future, k in queued.items():
            rows[k] = future.result()
    except BrokenProcessPool as exc:
        raise ChildProcessError(
            f"verify_sliced_psd: a worker process died before its slices were checked ({exc})"
        ) from exc
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


def _fold(rows, expected: int, tolerance: float) -> PsdReport:
    """One report from the slices' fold rows; a NaN in any row sticks.

    Raises RuntimeError unless the rows cover exactly `expected` samples,
    so a report never passes on fewer checked slices.
    """
    import numpy as np

    folds = np.array(rows, dtype=float)
    checked = int(folds[:, 0].sum())
    if checked != expected:
        raise RuntimeError(f"verify_sliced_psd checked {checked} samples, expected {expected}")
    min_minor, min_eig = float(folds[:, 1:5].min()), float(folds[:, 5].min())
    failures = int(folds[:, 8].sum())
    return PsdReport(
        samples=checked,
        min_minor=min_minor,
        min_eigenvalue=min_eig,
        max_third_minor_error=float(folds[:, 6].max()),
        max_det_error=float(folds[:, 7].max()),
        closed_form_failures=failures,
        ok=min_minor >= -tolerance and min_eig >= -tolerance and failures == 0,
    )


def scan_unsliced(
    region: str = "sweep",
    step: float = 0.05,
    max_sum: float = 0.5,
    threshold: float = 0.0,
    triples=None,
):
    """Grid scan of the tilted third minor, hunting sign changes.

    Walks the window d, d1, d2 >= 0 with d + d1 and d + d2 at most max_sum,
    or a supplied list of triples.  region "d-zero" pins the tilt to zero
    (no witnesses exist there), "d1-zero" pins the first spread (the known
    witnesses live there), "sweep" varies all three.  The grid needs a finite
    step > 0 and a finite max_sum >= 0 giving at most MAX_SCAN_POINTS
    points, counted before the grid is built, and threshold must be finite,
    so a scan never passes without checking.  Returns the witness list
    sorted by minor value, most negative first, and a summary table.
    """
    explicit = triples is not None
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    if not explicit:
        if region not in ("sweep", "d-zero", "d1-zero"):
            raise ValueError(f"unknown region {region!r}")
        if not 0 < step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {step!r}")
        if not 0 <= max_sum < math.inf:
            raise ValueError(f"max_sum must be finite and >= 0, got {max_sum!r}")
        steps = int(round(max_sum / step))
        n = steps + 1
        points = {"sweep": n * (n + 1) * (2 * n + 1) // 6, "d-zero": n * n,
                  "d1-zero": n * (n + 1) // 2}[region]
        if points > MAX_SCAN_POINTS:
            raise ValueError(f"step {step!r} and max_sum {max_sum!r} give {points} grid"
                             f" points, over the cap of {MAX_SCAN_POINTS}")
        triples = []
        for a in range(steps + 1):
            d = a * step
            if region == "d-zero" and d != 0.0:
                break
            room = steps - a
            for b in range(room + 1):
                d1 = b * step
                if region == "d1-zero" and d1 != 0.0:
                    break
                for c in range(room + 1):
                    triples.append((d, d1, c * step))
    witnesses = []
    checked = 0
    best = None
    for d, d1, d2 in triples:
        g = unsliced_third_minor(d, d1, d2)
        checked += 1
        if best is None or g < best[3]:
            best = (d, d1, d2, g)
        if g < threshold:
            witnesses.append((d, d1, d2, g))
    witnesses.sort(key=lambda w: w[3])
    summary = {
        "region": "explicit" if explicit else region,
        "checked": checked,
        "witnesses": len(witnesses),
        "min_value": best[3] if best else 0.0,
        "argmin": list(best[:3]) if best else None,
    }
    return witnesses, summary


def write_witness_csv(path, witnesses) -> None:
    """Witness rows as CSV with a fixed d,d1,d2,G header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "d1", "d2", "G"])
        for d, d1, d2, g in witnesses:
            writer.writerow([repr(float(d)), repr(float(d1)), repr(float(d2)), repr(float(g))])
