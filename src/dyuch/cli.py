"""Command line front end.

Every subcommand prints a short human summary to stdout and can write the
same content as a canonical JSON report with --out.  Exit codes: 0 when the
checked property holds, 1 when a verified inequality fails, 2 for usage or
input problems.  Reports are deterministic byte for byte for fixed inputs
and seeds; nothing here reads the clock.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bellman, carleson, extremal, kernel as kernel_mod, martingale
from .dyadic import interval_from_id, nan_min, tree_from_json
from .martingale import analytic_from_json, analytic_to_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_MAX_DEPTH = 8
# a real_line window of a ancestor levels is 4**a long, a finite float up to a = 511; the
# kernel's --ancestors and a file's ancestor_levels are capped there
MAX_ANCESTOR_LEVELS = 511
# search-extremal's --budget and --restarts are capped at extremal.MAX_SEARCH_BUDGET,
# verify-bellman's --samples at bellman.MAX_PSD_SAMPLES, and scan-unsliced's grid
# from --step and --max-sum at bellman.MAX_SCAN_POINTS


def _max_depth() -> int:
    raw = os.environ.get("DYUCH_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"DYUCH_MAX_DEPTH must be an integer, got {raw!r}") from exc


def _check_depth(depth: int) -> None:
    cap = _max_depth()
    if depth > cap:
        raise ValueError(
            f"depth {depth} exceeds the cap {cap}; raise DYUCH_MAX_DEPTH to allow it")


def _check_window(ancestor_levels: int) -> None:
    if ancestor_levels > MAX_ANCESTOR_LEVELS:
        raise ValueError(f"ancestor levels {ancestor_levels} exceed the cap"
                         f" {MAX_ANCESTOR_LEVELS}, past which a window's length is no float")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, parse, check_depth=True):
    obj = _load_json(path)
    try:
        obj = parse(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if check_depth:
        _check_depth(obj.depth)
    _check_window(obj.root.ancestor_levels)
    return obj


def _load_pair(path: str) -> martingale.DyadicAnalytic:
    return _load(path, analytic_from_json)


def _load_measure(path: str) -> carleson.DiscreteMeasure:
    # the cap is checked once the ids are parsed, before the measure's level rows are built
    return _load(path, lambda obj: carleson.measure_from_json(obj, _check_depth), False)


def _require_compatible(f, mu, tol):
    carleson._require_compatible(f, mu)
    res = float(mu.balance_residual())
    if not res <= tol:
        raise ValueError(f"measure is not balanced (residual {res:.6g}); this check needs"
                         " equal half masses")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _report(command: str, args, summary: dict, violations: list) -> dict:
    return {
        "command": command,
        "seed": getattr(args, "seed", None),
        "tolerance": getattr(args, "tolerance", None),
        "pass": not violations,
        "violations": violations,
        "summary": summary,
    }


def _cmd_verify_bellman(args) -> dict:
    violations = []
    psd = bellman.verify_sliced_psd(samples=args.samples, seed=args.seed,
                                    tolerance=args.tolerance, boundary=not args.no_boundary)
    if not psd.min_minor >= -args.tolerance:
        violations.append(f"principal minor dipped to {psd.min_minor!r}")
    if not psd.min_eigenvalue >= -args.tolerance:
        violations.append(f"eigenvalue dipped to {psd.min_eigenvalue!r}")
    if psd.closed_form_failures:
        violations.append(f"{psd.closed_form_failures} closed-form comparisons out of gate")

    res = extremal.profile_residuals(extremal.exponential_profile())
    if not res.max_residual() <= args.tolerance:
        violations.append(f"profile residual {res.max_residual()!r}")

    ranges, derivs = [], []
    for a in range(21):
        m = a / 20.0
        point = bellman.BellmanPoint(F=2.0, r=1.0, i=0.5, M=m)
        ranges.extend(bellman.range_gaps(point))
        # children mean M - mu must stay nonnegative
        derivs.extend(bellman.derivative_gap(point, (b / 20.0) * m) for b in range(21))
    min_range, min_deriv = nan_min(ranges), nan_min(derivs)
    if not min_range >= -args.tolerance:
        violations.append(f"value left its pinned range by {min_range!r}")
    if not min_deriv >= -args.tolerance:
        violations.append(f"harvest surplus dipped to {min_deriv!r}")

    summary = {
        "samples": psd.samples,
        "min_minor": psd.min_minor,
        "min_eigenvalue": psd.min_eigenvalue,
        "max_third_minor_error": psd.max_third_minor_error,
        "max_det_error": psd.max_det_error,
        "closed_form_failures": psd.closed_form_failures,
        "profile_size_residual": res.size,
        "profile_derivative_residual": res.derivative,
        "profile_log_convexity_residual": res.log_convexity,
        "min_range_gap": min_range,
        "min_derivative_gap": min_deriv,
    }
    return _report("verify-bellman", args, summary, violations)


def _cmd_scan_unsliced(args) -> dict:
    witnesses, scan = bellman.scan_unsliced(region=args.region, step=args.step,
                                            max_sum=args.max_sum, threshold=args.threshold)
    if args.csv:
        bellman.write_witness_csv(args.csv, witnesses)
    violations = []
    if args.region == "d-zero":
        if witnesses:
            d, d1, d2, g = witnesses[0]
            violations.append(
                f"negative minor {g!r} on the zero-tilt slice at ({d!r},{d1!r},{d2!r})"
            )
    elif not witnesses:
        violations.append("no negative minor found; the tilted scan expects witnesses")
    summary = dict(scan)
    summary["csv"] = args.csv
    return _report("scan-unsliced", args, summary, violations)


def _embedding_slacks(args, violations: list):
    """The pair and measure of --function and --measure, checked to fit and to be
    balanced, with their embedding and weighted slacks; gates both slacks."""
    f = _load_pair(args.function)
    mu = _load_measure(args.measure)
    _require_compatible(f, mu, args.tolerance)
    slack = carleson.embedding_slack(f, mu)
    if not slack >= -args.tolerance:
        violations.append(f"embedding bound violated by {-slack!r}")
    weighted = carleson.weighted_embedding_slack(f, mu)
    if not weighted >= -args.tolerance:
        violations.append(f"weighted bound violated by {-weighted!r}")
    return f, mu, slack, weighted


def _cmd_embed(args) -> dict:
    violations = []
    f, mu, slack, weighted = _embedding_slacks(args, violations)
    norm2 = float(f.norm2())
    packing = float(mu.packing_intensity())
    summary = {
        "embedding_sum": float(carleson.embedding_sum(f, mu)),
        "norm2": norm2,
        "packing_intensity": packing,
        "bound": carleson.E * packing * norm2,
        "slack": slack,
        "weighted_slack": weighted,
        "balance_residual": float(mu.balance_residual()),
    }
    return _report("embed", args, summary, violations)


def _cmd_uchiyama_check(args) -> dict:
    violations = []
    f, mu, slack, weighted = _embedding_slacks(args, violations)
    summary = {
        "depth": f.depth,
        "balance_residual": float(mu.balance_residual()),
        "packing_intensity": float(mu.packing_intensity()),
        "embedding_slack": slack,
        "weighted_slack": weighted,
    }

    if mu.depth == f.depth:
        deco = carleson.telescoped_weighted_slack(f, mu)
        match = abs(deco.total() - deco.slack)
        summary["telescoped_match"] = match
        summary["telescoped_min_term"] = deco.min_term()
        if not match <= 1e-10:
            violations.append(f"telescoping drifted from the slack by {match!r}")
        if not deco.min_term() >= -args.tolerance:
            violations.append(f"a telescoping term dipped to {deco.min_term()!r}")

    gaps = carleson.bellman_chain_slacks(f, mu)
    if gaps:
        worst = nan_min(gaps.values())
        summary["chain_min_gap"] = worst
        if not worst >= -args.tolerance:
            violations.append(f"a chain step dipped to {worst!r}")

    return _report("uchiyama-check", args, summary, violations)


def _cmd_conjugate(args) -> dict:
    u_tree = _load(args.function, tree_from_json)
    imag = None if args.imag is None else _load(args.imag, tree_from_json, check_depth=False)
    # the projection keeps both means, so a float mean that overflows leaves no pair
    means = {key: t.root_average for key, t in (("real_mean", u_tree), ("imag_mean", imag))
             if args.project and t is not None and not t.exact}
    if not all(map(math.isfinite, means.values())):
        summary = {"depth": u_tree.depth, **means}
    else:
        if args.project:
            pair = martingale.analytic_projection(u_tree, imag)
        elif imag is not None:
            pair = martingale.DyadicAnalytic(u_tree, imag)
        else:
            pair = martingale.conjugate(u_tree)
        if args.emit:
            _write_text(args.emit, _dump(analytic_to_json(pair)))
        summary = {
            "depth": pair.depth,
            "norm2": float(pair.norm2()),
            "cr_residual": float(martingale.cr_residual(pair.u, pair.v)),
            "real_mean": float(pair.u.root_average),
            "imag_mean": float(pair.v.root_average),
        }
    violations = [f"{key} is not finite: {value!r}" for key, value in summary.items()
                  if not math.isfinite(value)]
    return _report("conjugate", args, summary, violations)


def _cmd_kernel(args) -> dict:
    base = args.base
    anc = args.ancestors if base == "real_line" else 0
    I = interval_from_id(args.interval, base, anc)
    _check_depth(I.level - I.root_level)
    _check_window(anc)
    k = kernel_mod.reproducing_kernel(I, args.height)
    norms = kernel_mod.kernel_norm2(I, args.height)
    summary = {
        "interval": I.id,
        "height": args.height,
        "constant": k.constant,
        "coefficients": 2 * len(k.real_coeffs),
        "norm2": float(norms.value),
        "norm2_limit": float(norms.limit),
        "truncation_tail": float(kernel_mod.truncation_tail_bound(I, args.height)),
    }
    if args.evaluate:
        z = k.evaluate(interval_from_id(args.evaluate, base, anc))
        summary["value_re"], summary["value_im"] = z.real, z.imag
    if args.emit:
        payload = {
            "base": base,
            "ancestor_levels": anc,
            "interval": I.id,
            "height": args.height,
            "constant": k.constant,
            "real": {J.id: c for J, c in k.real_coeffs.items()},
            "imag": {J.id: c for J, c in k.imag_coeffs.items()},
            "norm2": float(norms.value),
            "norm2_limit": float(norms.limit),
        }
        _write_text(args.emit, _dump(payload))
    return _report("kernel", args, summary, [])


def _cmd_check_3e(args) -> dict:
    mu = _load_measure(args.measure)
    scan = kernel_mod.testing_scan(mu)
    violations = []
    if not scan.min_packing_slack >= -args.tolerance:
        worst = -scan.min_packing_slack
        violations.append(f"packing exceeded three kernel tests by {worst!r}")
    summary = {
        "testing_constant": scan.testing_constant,
        "worst_testing_node": scan.worst_testing_node.id,
        "packing_intensity": float(mu.packing_intensity()),
        "min_packing_slack": scan.min_packing_slack,
        "worst_packing_node": scan.worst_packing_node.id,
        "nodes_checked": scan.nodes_checked,
        "bound_constant": 3.0 * kernel_mod.E * scan.testing_constant,
    }
    if args.function:
        f = _load_pair(args.function)
        _require_compatible(f, mu, args.tolerance)
        slack = summary["embedding_slack"] = kernel_mod.testing_embedding_slack(f, mu)
        if not slack >= -args.tolerance:
            violations.append(f"tested embedding bound violated by {-slack!r}")
    return _report("check-3e", args, summary, violations)


def _cmd_search_extremal(args) -> dict:
    _check_depth(args.depth)
    config = extremal.search(args.depth, budget=args.budget, seed=args.seed,
                             restarts=args.restarts)
    if args.emit:
        payload = {
            "ratio": config.ratio,
            "f": analytic_to_json(config.f),
            "mu": carleson.measure_to_json(config.mu),
        }
        _write_text(args.emit, _dump(payload))
    summary = {
        "ratio": config.ratio,
        "depth": args.depth,
        "budget": args.budget,
        "support": len(config.mu),
        "norm2": float(config.f.norm2()),
        "packing_intensity": float(config.mu.packing_intensity()),
    }
    return _report("search-extremal", args, summary, [])


def _cmd_certify_lower_bound(args) -> dict:
    bounds = []
    violations = []
    for eps in args.eps:
        bound = extremal.lower_bound_certificate(eps)
        bounds.append(bound)
        if bound >= extremal.E:
            violations.append(f"certificate {bound!r} at eps {eps!r} overshot e")
    if args.csv:
        lines = ["eps,bound"]
        lines.extend(f"{eps!r},{b!r}" for eps, b in zip(args.eps, bounds))
        _write_text(args.csv, "\n".join(lines) + "\n")
    summary = {
        "eps": list(args.eps),
        "bounds": bounds,
        "max_bound": max(bounds),
        "limit": extremal.E,
    }
    return _report("certify-lower-bound", args, summary, violations)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyuch",
        description="verification and exploration toolkit for sliced dyadic"
        " martingales, balanced measures, and the embedding constant e",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                       help="slack tolerance, a finite number >= 0")
        p.set_defaults(func=func)
        return p

    p = add("verify-bellman", _cmd_verify_bellman, "stress-test the certificate")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-boundary", action="store_true")

    p = add("scan-unsliced", _cmd_scan_unsliced, "scan the tilted form for witnesses")
    p.add_argument("--region", choices=["sweep", "d-zero", "d1-zero"], default="sweep")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-sum", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--csv", help="write the witnesses as a d,d1,d2,G table")

    p = add("embed", _cmd_embed, "embedding sum, bound, and slacks for a pair")
    p.add_argument("--function", required=True)
    p.add_argument("--measure", required=True)

    p = add("uchiyama-check", _cmd_uchiyama_check, "full certificate verification")
    p.add_argument("--function", required=True)
    p.add_argument("--measure", required=True)

    p = add("conjugate", _cmd_conjugate, "conjugate pair from a sliced tree")
    p.add_argument("--function", required=True)
    p.add_argument("--imag")
    p.add_argument("--project", action="store_true")
    p.add_argument("--emit", help="write the pair as JSON")

    p = add("kernel", _cmd_kernel, "reproducing kernel of an interval")
    p.add_argument("--interval", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--base", choices=["unit", "real_line"], default="unit")
    p.add_argument("--ancestors", type=int, default=0)
    p.add_argument("--evaluate", help="interval id to evaluate the kernel at")
    p.add_argument("--emit", help="write the kernel coefficients as JSON")

    p = add("check-3e", _cmd_check_3e, "kernel testing constant and packing control")
    p.add_argument("--measure", required=True)
    p.add_argument("--function")

    p = add("search-extremal", _cmd_search_extremal, "seeded high-ratio search")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--budget", type=int, default=800)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--emit", help="write the best configuration as JSON")

    p = add("certify-lower-bound", _cmd_certify_lower_bound, "closed-form lower bound")
    p.add_argument("--eps", type=float, nargs="+", default=[0.01])
    p.add_argument("--csv", help="write an eps,bound table")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        report = args.func(args)
        if args.out:
            _write_text(args.out, _dump(report))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: input values overflow a float: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for key in sorted(report["summary"]):
        print(f"{key}: {_fmt(report['summary'][key])}")
    for message in report["violations"]:
        print(f"violation: {message}")
    print("result: PASS" if report["pass"] else "result: FAIL")
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
