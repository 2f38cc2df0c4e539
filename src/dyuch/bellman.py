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
from dataclasses import dataclass

import numpy as np

E = math.e
PSD_TOL = 1e-9
DOMAIN_TOL = 1e-12
STEP_TOL = 1e-9  # domain and constraint slack of one step of the dynamics
PSD_SLICE = 1 << 14  # samples checked at a time, so memory stays flat in --samples


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
    mats = unsliced_form_matrix(0.0, hp.d1, hp.d2)
    mats *= np.asarray(np.exp(-hp.M) / 4.0)[..., None, None]
    return mats


def principal_minors(mat: np.ndarray):
    """Nested principal minors of a 4x4 form (or a batch), from the upper left."""
    return [np.linalg.det(mat[..., :k, :k]) for k in range(1, 5)]


def third_minor_closed_form(hp: HessianParams):
    """Upper-left 3x3 minor of the sliced form in closed form."""
    x1 = 2.0 * np.cosh(hp.d1)
    x2 = 2.0 * np.cosh(hp.d2)
    return (np.exp(-hp.M) / 4.0) ** 3 * (x1 + x2 - 4.0) * 2.0 * (x1 - 2.0) * (x2 - 2.0)


def det_closed_form(hp: HessianParams):
    """Determinant of the sliced form in closed form; a fourth power, never negative."""
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
    PSD_SLICE samples, and a NaN anywhere makes its minimum or maximum NaN.
    """
    if samples < 0 or not (samples or boundary):
        raise ValueError(f"--samples must be >= 0 and leave a sample to check, got {samples}")
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, samples)
    delta = np.minimum(m, 1.0 - m)
    d1 = rng.uniform(-1.0, 1.0, samples) * delta
    d2 = rng.uniform(-1.0, 1.0, samples) * delta
    if boundary:
        grid_m, grid_t = np.meshgrid(
            np.linspace(0.0, 1.0, 21), np.linspace(-0.5, 0.5, 21)
        )
        gm, gt = grid_m.ravel(), grid_t.ravel()
        zero = np.zeros_like(gm)
        m = np.concatenate([m, gm, gm])
        d1 = np.concatenate([d1, zero, gt])
        d2 = np.concatenate([d2, gt, zero])
    folds = []  # per slice: 4 minor minima, least eigenvalue, 2 largest errors, failures
    for lo in range(0, len(m), PSD_SLICE):
        hp = HessianParams(*(a[lo:lo + PSD_SLICE] for a in (m, d1, d2)))
        mats = concavity_form_matrix(hp)
        minors = principal_minors(mats)
        third_closed, det_closed = third_minor_closed_form(hp), det_closed_form(hp)
        third_err = np.abs(minors[2] - third_closed)
        det_err = np.abs(minors[3] - det_closed)
        third_gate = np.maximum(1e-9 * np.abs(third_closed), 1e-12)
        det_gate = np.maximum(1e-9 * np.abs(det_closed), 1e-12)
        failures = (~(third_err <= third_gate)).sum() + (~(det_err <= det_gate)).sum()
        folds.append([*(mn.min() for mn in minors), np.linalg.eigvalsh(mats)[:, 0].min(),
                      third_err.max(), det_err.max(), failures])
    folds = np.array(folds)
    min_minor, min_eig = float(folds[:, :4].min()), float(folds[:, 4].min())
    failures = int(folds[:, 7].sum())

    ok = min_minor >= -tolerance and min_eig >= -tolerance and failures == 0
    return PsdReport(
        samples=len(m),
        min_minor=min_minor,
        min_eigenvalue=min_eig,
        max_third_minor_error=float(folds[:, 5].max()),
        max_det_error=float(folds[:, 6].max()),
        closed_form_failures=failures,
        ok=ok,
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
    step > 0 and a finite max_sum >= 0, and threshold must be finite, so a
    scan never passes without checking.  Returns the witness list sorted by
    minor value, most negative first, and a summary table.
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
