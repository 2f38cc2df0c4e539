"""Value-function certificate for the embedding bound.

The certificate is the explicit function B(F, r, i, M) = e*F
- exp(1 - M) * (r*r + i*i) on the domain F >= r*r + i*i, 0 <= M <= 1.
Its size is pinned between 0 and e*F, and one step of the split dynamics
(dynamics_gap, on plain floats, called once per node by the Bellman chain)
always releases at least the mass harvested at the node.  Its mass profile
exp(1 - M) meets the size, decay and log-convexity requirements that
profile_residuals checks for any candidate profile, and
lower_bound_certificate is the closed form showing e cannot be lowered.
The quadratic form governing the concavity part is written out as an
explicit 4x4 matrix whose minors have closed forms; verify_sliced_psd
stress-tests positive semidefiniteness numerically at scale.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dyadic import as_numerators

if TYPE_CHECKING:  # numpy is imported where the PSD form needs it, not on import
    import numpy as np

E = math.e
STEP_TOL = 1e-9  # domain and constraint slack of one step of the dynamics
PSD_SLICE = 1 << 14  # samples drawn and checked at a time, so only one slice is alive
# window of _check_slice's LAPACK candidates.  LAPACK's least eigenvalue of a sliced form
# lies within eps of its closed form (eps was 6.4e-16 at most over 4 million samples), so
# the slice's least LAPACK eigenvalue sits at a sample whose closed form is at most
# 2 * eps above the slice's least.  Its first two minors, det of a and of a * I with
# a = A[0, 0] >= 0, lie within a relative error r of a few ulps of a and a * a, so their
# least sit at samples whose a is at most 2 * r * a above the slice's least a, and a < 0.13
# on the domain.  The window allows eps and r up to 1e-12.
PSD_EIG_WINDOW = 2e-12
# cap on verify_sliced_psd's draws, which bounds its time: at the cap a run takes 6-7 s on a
# 2-vCPU VM with its helper, 12 s in one process; each process draws one slice at a time,
# so each peaks near 41 MB at any size, about 80 MB for caller and helper together
MAX_PSD_SAMPLES = 10_000_000
MAX_SCAN_POINTS = 1_000_000  # cap on scan_unsliced's grid, which bounds its time


def bellman_value(F, r, i, M) -> float:
    return E * F - math.exp(1.0 - M) * (r * r + i * i)


def range_gaps(F, r, i, M):
    """Distances to the pinning bounds 0 <= B <= e*F; both nonnegative on the domain."""
    b = bellman_value(F, r, i, M)
    return b, E * F - b


def derivative_gap(r, i, M, mu) -> float:
    """Surplus of the mass-harvest step over the linear harvest.

    Lowering M by mu raises the value by exp(1 - M)(r*r + i*i) expm1(mu),
    which must cover the harvested mu * (r*r + i*i); the difference is
    nonnegative whenever M <= 1 and mu >= 0.
    """
    mod2 = r * r + i * i
    return math.exp(1.0 - M) * mod2 * math.expm1(mu) - mu * mod2


@dataclass
class BoundProfile:
    """Candidate bound profile in the mass variable on [0, 1].

    grid must be increasing within [0, 1]; values are the profile samples and
    constant the claimed embedding constant the profile certifies.
    """

    grid: list
    values: list
    constant: float


@dataclass
class ProfileResiduals:
    size: float
    derivative: float
    log_convexity: float

    def max_residual(self) -> float:
        return max(self.size, self.derivative, self.log_convexity)


def exponential_profile() -> BoundProfile:
    """The sharp profile exp(1 - M) with its constant e, on 201 grid points."""
    grid = [k / 200 for k in range(201)]
    return BoundProfile(grid, [math.exp(1.0 - m) for m in grid], E)


def profile_residuals(profile: BoundProfile) -> ProfileResiduals:
    """How far a profile is from the three certificate requirements.

    Size: values stay within [0, constant].  Derivative: the profile decays
    at least as fast as exp(-M), checked as monotonicity of v * exp(M) via
    a running minimum.  Log-convexity: discrete midpoint convexity of log v
    on consecutive triples.  All three vanish for the sharp profile.
    """
    grid, vals = profile.grid, profile.values
    if len(grid) != len(vals) or len(grid) < 2:
        raise ValueError("profile needs matching grids and at least two samples")
    for what, xs in (("grid point", grid), ("value", vals), ("constant", [profile.constant])):
        as_numerators(xs, f"profile {what}")  # raises on a non-finite or non-numeric entry
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("profile grid must be strictly increasing")
    if grid[0] < 0 or grid[-1] > 1:
        raise ValueError(f"profile grid must lie in [0, 1], got {grid[0]!r} to {grid[-1]!r}")

    size = 0.0
    for v in vals:
        size = max(size, v - profile.constant, -v)

    derivative = 0.0
    running = math.inf
    for m, v in zip(grid, vals):
        w = v * math.exp(m)
        if w - running > derivative:
            derivative = w - running
        running = min(running, w)

    log_convexity = 0.0
    if any(v <= 0.0 for v in vals):
        log_convexity = math.inf
    else:
        logs = [math.log(v) for v in vals]
        for k in range(1, len(vals) - 1):
            t = (grid[k] - grid[k - 1]) / (grid[k + 1] - grid[k - 1])
            bound = (1.0 - t) * logs[k - 1] + t * logs[k + 1]
            log_convexity = max(log_convexity, logs[k] - bound)

    return ProfileResiduals(size, derivative, log_convexity)


def lower_bound_certificate(eps: float) -> float:
    """Certified lower bound on the best possible embedding constant.

    For each eps in (0, 1/4) there is a configuration family whose ratio
    reaches e * exp(2 eps (log(eps / 2) - 1)); the bound tends to e as eps
    shrinks, so no constant below e works.  It is not fast: at eps = 1e-8
    the gap to e is 1.0935e-6, and a target of e - 1e-6 needs
    eps <~ 9.1e-9.
    """
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    return E * math.exp(2.0 * eps * (math.log(eps / 2.0) - 1.0))


def dynamics_gap(F, r, i, M, dxr, dyr, d1, d2, mu, F_parts) -> float:
    """One step's surplus: B at the state (F, r, i, M) minus the mean of B over
    the four children, minus the harvested mass term mu * (r*r + i*i).

    dxr and dyr are the half jumps of the pair, d1 and d2 the half spreads of
    the children masses around their common mean M - mu, and F_parts the
    children second moments in the order (x-, x+, y-, y+).  The pair moves
    by the conjugate rule: a jump dxr in r across the x pair forces the jump
    dyr in i with opposite orientation, and vice versa across the y pair
    (see _children).  The state must lie in the domain, up to STEP_TOL, and
    F_parts average to F; the children may leave the domain.  At mu = 0 the
    gap is the midpoint concavity surplus, nonnegative always.
    """
    if mu < 0:
        raise ValueError("mass density must be nonnegative")
    mod2 = r * r + i * i
    if not (F >= mod2 - STEP_TOL and -STEP_TOL <= M <= 1 + STEP_TOL):
        raise ValueError("state lies outside the certificate domain")
    if len(F_parts) != 4:
        raise ValueError("F_parts must list the four children (x-, x+, y-, y+)")
    fxm, fxp, fym, fyp = F_parts
    # sums are left folds from 0, the same bits on every Python (3.12's sum compensates)
    if abs((0 + fxm + fxp + fym + fyp) / 4 - F) > max(STEP_TOL, 1e-9 * abs(F)):
        raise ValueError("children second moments must average to the parent F")
    mean = M - mu
    total = 0
    for fc, (a, b), mc in zip(F_parts, _children(r, i, dxr, dyr),
                              (mean - d1, mean + d1, mean - d2, mean + d2)):
        total += bellman_value(fc, a, b, mc)
    return bellman_value(F, r, i, M) - total / 4 - mu * mod2


def _children(r, i, dx, dy):
    """Pair values (x-, x+, y-, y+) of a node's children by the conjugate rule."""
    return (r - dx, i + dy), (r + dx, i - dy), (r - dy, i - dx), (r + dy, i + dx)


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


def concavity_form_matrix(M, d1, d2) -> np.ndarray:
    """Quadratic form of the sliced concavity surplus in (r, i, dxr, dyr).

    M is the state mass, d1 and d2 the half spreads of the children masses:
    floats for one form, or numpy arrays of one shape for a batch of them.
    At mu = 0, with every F_parts equal to F, dynamics_gap equals e times
    w.T A w with w = (r, i, dxr, dyr).  The matrix is positive semidefinite
    for every real (M, d1, d2), which is the heart of the embedding bound.
    It is the untilted form scaled in place by exp(-M)/4.

    Its spectrum has a closed form.  With s = exp(-M)/4 the matrix is
    s * [[(sig - 4) I, B], [B, sig I]] with B = [[p, q], [q, -p]], and
    B @ B = (p*p + q*q) I, so the eigenvalues are
    s * (sig - 2 -+ sqrt(4 + p*p + q*q)), each of them twice; see
    sliced_eigenvalues.
    """
    import numpy as np

    mats = unsliced_form_matrix(0.0, d1, d2)
    mats *= np.asarray(np.exp(-M) / 4.0)[..., None, None]
    return mats


def sliced_eigenvalues(mats: np.ndarray):
    """The two double eigenvalues (least, greatest) of sliced forms, read from
    their entries a = A[0, 0], c = A[2, 2], p = A[0, 2] and q = A[0, 3]:
    (a + c)/2 -+ sqrt(((c - a)/2)**2 + p*p + q*q)."""
    import numpy as np

    a, c, p, q = mats[..., 0, 0], mats[..., 2, 2], mats[..., 0, 2], mats[..., 0, 3]
    mid = (a + c) / 2.0
    radius = np.sqrt(((c - a) / 2.0) ** 2 + p * p + q * q)
    return mid - radius, mid + radius


def third_minor_closed_form(M, d1, d2):
    """Upper-left 3x3 minor of the sliced form in closed form."""
    import numpy as np

    x1 = 2.0 * np.cosh(d1)
    x2 = 2.0 * np.cosh(d2)
    return (np.exp(-M) / 4.0) ** 3 * (x1 + x2 - 4.0) * 2.0 * (x1 - 2.0) * (x2 - 2.0)


def det_closed_form(M, d1, d2):
    """Determinant of the sliced form in closed form; a fourth power, never negative."""
    import numpy as np

    s1 = 2.0 * np.sinh(d1 / 2.0)
    s2 = 2.0 * np.sinh(d2 / 2.0)
    return 4.0 * (np.exp(-M) / 4.0) ** 4 * s1**4 * s2**4


def unsliced_third_minor(d: float, d1: float, d2: float) -> float:
    """Upper-left 3x3 minor of the tilted form, in units of (exp(-M)/4)**3.

    Factors as (sig - 4) * F; the second factor dips below zero off the
    d = 0 slice, so the tilted form admits genuine counterexamples.  Raises
    ValueError naming the point when 2 cosh or exp overflows a float there.
    """
    try:
        return _tilted_minor(2.0 * math.cosh(d1), 2.0 * math.cosh(d2), math.exp(-d), math.exp(d))
    except OverflowError:
        raise ValueError(f"2 cosh or exp overflows at d={d!r}, d1={d1!r}, d2={d2!r}") from None


def _tilted_minor(x1: float, x2: float, a: float, b: float) -> float:
    # unsliced_third_minor from x1 = 2 cosh(d1), x2 = 2 cosh(d2), a = exp(-d) and b = exp(d)
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
    acc = 0.0
    for m_c, (a, b) in zip((mxm, mxp, mym, myp), _children(u, v, dxu, dyu)):
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


def verify_sliced_psd(
    samples: int = 100_000,
    seed: int = 0,
    boundary: bool = True,
) -> PsdReport:
    """Stress-test the sliced concavity form over the certificate domain.

    Draws M uniformly in [0, 1] and the spreads uniformly within the window
    keeping children masses in range, adds the degenerate edges d1 = 0 and
    d2 = 0, and checks every nested minor, the spectrum, and the two closed
    forms.  Closed forms are compared with a relative gate that falls back
    to absolute near their zero sets.  The samples are drawn and checked one
    slice of PSD_SLICE at a time, the same draws as all at once from
    default_rng(seed), so memory does not grow with `samples`; the edges come
    last, in one slice of their own.  A NaN anywhere makes its minimum or
    maximum NaN.  With two or more usable CPUs (os.sched_getaffinity) and
    draw slices, one forked helper checks the later half of the draw slices
    and the edges, with the same draws and fold (_split_rows); otherwise the
    calling process checks every slice.  The report carries the measurements
    only; the caller gates them.
    """
    if not (0 <= samples <= MAX_PSD_SAMPLES and (samples or boundary)):
        raise ValueError(f"--samples must lie in 0..{MAX_PSD_SAMPLES} and leave a sample"
                         f" to check, got {samples}")
    if seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
    draws = -(-samples // PSD_SLICE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or draws < 2:
        rows = list(_slice_rows(samples, seed, 0, samples, boundary))
    else:  # forked before numpy is imported, if it is not yet, so from one thread
        rows = _split_rows(samples, seed, draws // 2 * PSD_SLICE, boundary)
    return _fold(rows, samples + (2 * 21 * 21 if boundary else 0))  # two 21 x 21 edges


def _slice_rows(samples, seed, start, stop, boundary):
    """Fold rows of the draws start..stop of verify_sliced_psd, one slice at a
    time, then of the boundary grid if asked."""
    import numpy as np

    # Generator.uniform takes one 64-bit output per double, so the M, d1 and d2 of
    # draw `start` are start, samples + start and 2 * samples + start outputs into
    # default_rng(seed)'s stream
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    for k, rng in enumerate(rngs):
        rng.bit_generator.advance(k * samples + start)
    for lo in range(start, stop, PSD_SLICE):
        size = min(PSD_SLICE, stop - lo)
        m = rngs[0].uniform(0.0, 1.0, size)
        delta = np.minimum(m, 1.0 - m)
        d1 = rngs[1].uniform(-1.0, 1.0, size)
        d1 *= delta
        d2 = rngs[2].uniform(-1.0, 1.0, size)
        d2 *= delta
        yield _check_slice(m, d1, d2)
    if boundary:
        grid_m, grid_t = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(-0.5, 0.5, 21))
        gm, gt = grid_m.ravel(), grid_t.ravel()
        zero = np.zeros_like(gm)
        yield _check_slice(np.concatenate([gm, gm]), np.concatenate([zero, gt]),
                           np.concatenate([gt, zero]))


def _split_rows(samples, seed, start, boundary) -> list:
    """The rows of _slice_rows(samples, seed, 0, samples, boundary), the draws
    from start on and the grid checked by a forked helper.  The helper sends
    its rows, or what it raised, through a pipe, leaves with os._exit, and
    stops between slices once its parent is gone; it is reaped on every path.
    """
    import pickle
    import signal

    parent, (r, w) = os.getpid(), os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: this process checks every slice
        os.close(r)
        os.close(w)
        return list(_slice_rows(samples, seed, 0, samples, boundary))
    if pid == 0:  # the helper: no atexit hook, no flush of what it inherited
        try:
            os.close(r)
            try:
                out = []
                for row in _slice_rows(samples, seed, start, samples, boundary):
                    if os.getppid() != parent:
                        os._exit(1)
                    out.append(row)
            except BaseException as exc:
                out = exc
            with open(w, "wb") as fh:
                pickle.dump(out, fh)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    with open(r, "rb") as fh:
        try:
            rows = list(_slice_rows(samples, seed, 0, start, False))
            sent = fh.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status or not sent:
        raise RuntimeError(f"verify_sliced_psd's helper exited with status {status}")
    got = pickle.loads(sent)
    if isinstance(got, BaseException):
        raise got
    return rows + got


def _check_slice(m, d1, d2) -> list:
    """Fold row of one slice: its size, the four minor minima, the least
    eigenvalue, the two largest closed-form errors and the failure count.

    Raises ValueError, before any LAPACK call, when a form has a non-finite
    entry.  LAPACK computes each form on its own, so the minima with a known
    closed form come from their candidates alone: the samples whose
    closed-form least eigenvalue lies within PSD_EIG_WINDOW of the slice's
    least, and those whose a = A[0, 0] does.  The upper-left 1x1 and 2x2
    blocks are a and a * I, whose determinants LAPACK returns within a few
    ulps of a and a * a, with a >= 0.  The 3x3 and 4x4 minors run on every
    sample, whose closed-form errors are all read.  The row is the same bit
    for bit as from all samples.
    """
    import numpy as np

    mats = concavity_form_matrix(m, d1, d2)
    finite = np.isfinite(mats)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=(1, 2))))
        raise ValueError(f"the sliced form of sample {k} of a slice, at M={float(m[k])!r},"
                         f" d1={float(d1[k])!r}, d2={float(d2[k])!r}, has a non-finite entry")
    # first, so its arrays are freed before the minors' are made; fmin skips a NaN
    least, a = sliced_eigenvalues(mats)[0], mats[:, 0, 0]
    candidates = mats[(least <= np.fmin.reduce(least) + PSD_EIG_WINDOW)
                      | (a <= a.min() + PSD_EIG_WINDOW)]
    least = float(np.linalg.eigvalsh(candidates)[:, 0].min())
    minors = [np.linalg.det(candidates[:, :k, :k]) for k in (1, 2)]
    minors += [np.linalg.det(mats[:, :k, :k]) for k in (3, 4)]
    third_closed, det_closed = third_minor_closed_form(m, d1, d2), det_closed_form(m, d1, d2)
    third_err = np.abs(minors[2] - third_closed)
    det_err = np.abs(minors[3] - det_closed)
    third_gate = np.maximum(1e-9 * np.abs(third_closed), 1e-12)
    det_gate = np.maximum(1e-9 * np.abs(det_closed), 1e-12)
    failures = (~(third_err <= third_gate)).sum() + (~(det_err <= det_gate)).sum()
    return [len(m), *(float(mn.min()) for mn in minors), least,
            float(third_err.max()), float(det_err.max()), int(failures)]


def _fold(rows, expected: int) -> PsdReport:
    """One report from the slices' fold rows; a NaN in any row sticks.

    Raises RuntimeError unless the rows cover exactly `expected` samples,
    so a report never passes on fewer checked slices.
    """
    import numpy as np

    folds = np.array(rows, dtype=float)
    checked = int(folds[:, 0].sum())
    if checked != expected:
        raise RuntimeError(f"verify_sliced_psd checked {checked} samples, expected {expected}")
    return PsdReport(
        samples=checked,
        min_minor=float(folds[:, 1:5].min()),
        min_eigenvalue=float(folds[:, 5].min()),
        max_third_minor_error=float(folds[:, 6].max()),
        max_det_error=float(folds[:, 7].max()),
        closed_form_failures=int(folds[:, 8].sum()),
    )


def scan_unsliced(
    region: str = "sweep",
    step: float = 0.05,
    max_sum: float = 0.5,
    threshold: float = 0.0,
):
    """Grid scan of the tilted third minor, hunting sign changes.

    Walks the window d, d1, d2 >= 0 with d + d1 and d + d2 at most max_sum.
    region "d-zero" pins the tilt to zero (no witnesses exist there),
    "d1-zero" pins the first spread (the known witnesses live there),
    "sweep" varies all three.  The grid needs a finite step > 0 and a
    finite max_sum >= 0 giving at most MAX_SCAN_POINTS points, counted in
    closed form before any is walked, and threshold must be finite, so a
    scan never passes without checking.  A minor that is not finite raises
    ValueError naming its point.  The grid is walked one point at a time,
    with 2 cosh computed once per spread and exp(-+d) once per tilt.
    Returns the witness list sorted by minor value, most negative first,
    and a summary table.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    if region not in ("sweep", "d-zero", "d1-zero"):
        raise ValueError(f"unknown region {region!r}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if not 0 <= max_sum < math.inf:
        raise ValueError(f"max_sum must be finite and >= 0, got {max_sum!r}")
    # n spreads k * step <= max_sum, up to rounding, per axis; the first row alone has n
    # points, so a larger ratio (inf too) is over the cap.  Per tilt a: n - a spreads d2 and
    # as many d1, or one d1 = 0 on "d1-zero"; so n**2, n(n+1)/2 and n(n+1)(2n+1)/6 points
    n = int(min(max_sum / step, MAX_SCAN_POINTS) + 1e-9) + 1
    points = (n * n if region == "d-zero" else n * (n + 1) // 2 if region == "d1-zero"
              else n * (n + 1) * (2 * n + 1) // 6)
    if points > MAX_SCAN_POINTS:
        raise ValueError(f"step {step!r} and max_sum {max_sum!r} give {points} grid"
                         f" points, over the cap of {MAX_SCAN_POINTS}")
    top = (n - 1) * step  # 2 cosh and exp grow: the largest spread or tilt overflows first
    for corner in ((0.0, 0.0, top), (0.0 if region == "d-zero" else top, 0.0, 0.0)):
        unsliced_third_minor(*corner)  # raises naming the corner where one overflows
    spreads = [(k * step, 2.0 * math.cosh(k * step)) for k in range(n)]
    witnesses, checked, best = [], 0, None
    for a in range(1 if region == "d-zero" else n):
        d, nc = a * step, n - a
        ea, eb = math.exp(-d), math.exp(d)
        for d1, x1 in spreads[:1 if region == "d1-zero" else nc]:
            for d2, x2 in spreads[:nc]:
                g = _tilted_minor(x1, x2, ea, eb)
                if not math.isfinite(g):
                    raise ValueError(f"the tilted minor at d={d!r}, d1={d1!r}, d2={d2!r} is"
                                     f" {g!r}, not a finite number")
                checked += 1
                if best is None or g < best[3]:
                    best = (d, d1, d2, g)
                if g < threshold:
                    witnesses.append((d, d1, d2, g))
    witnesses.sort(key=lambda w: w[3])
    return witnesses, {
        "region": region,
        "checked": checked,
        "witnesses": len(witnesses),
        "min_value": best[3],
        "argmin": list(best[:3]),
    }


def witness_csv(witnesses) -> str:
    """Witness rows as CSV text under a fixed d,d1,d2,G header, one CRLF-ended
    line per row, as csv.writer lays them out."""
    rows = [["d", "d1", "d2", "G"], *([repr(float(x)) for x in w] for w in witnesses)]
    return "".join(",".join(row) + "\r\n" for row in rows)
