"""Command line front end.

Every subcommand returns its summary and violations, and main alone builds
the report {command, seed, tolerance, pass, violations, summary}, prints it
as a short human summary and writes it as canonical JSON with --out.  Every
slack and gap gate goes through _gate, value >= -tolerance, which a NaN
fails; every file loaded is checked against DYUCH_MAX_DEPTH.  Exit codes: 0
when the checked property holds, 1 when a verified inequality fails, 2 for
usage or input problems.  Reports are deterministic byte for byte for fixed
inputs and seeds; nothing here reads the clock.  Each command imports the
layers it calls when it runs, so importing this module loads no layer and
no numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

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


def _load(path: str, parse):
    obj = _load_json(path)
    try:
        obj = parse(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    _check_depth(obj.depth)
    _check_window(obj.root.ancestor_levels)
    return obj


def _load_pair(path: str):
    from .martingale import analytic_from_json

    return _load(path, analytic_from_json)


def _load_measure(path: str):
    from .carleson import measure_from_json

    # the cap is checked once the ids are parsed, before the measure's level rows are built
    return _load(path, lambda obj: measure_from_json(obj, _check_depth))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_text(path: str, text: str) -> None:
    # newline="": the file holds text's own line ends, on every platform
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _gate(args, violations: list, value, message: str) -> None:
    """The one slack and gap rule: value >= -tolerance, and a NaN fails."""
    if not value >= -args.tolerance:
        violations.append(message)


def _cmd_verify_bellman(args) -> tuple:
    from . import bellman
    from .dyadic import nan_min

    violations = []
    psd = bellman.verify_sliced_psd(samples=args.samples, seed=args.seed,
                                    boundary=not args.no_boundary)
    _gate(args, violations, psd.min_minor, f"principal minor dipped to {psd.min_minor!r}")
    _gate(args, violations, psd.min_eigenvalue, f"eigenvalue dipped to {psd.min_eigenvalue!r}")
    if psd.closed_form_failures:
        violations.append(f"{psd.closed_form_failures} closed-form comparisons out of gate")

    res = bellman.profile_residuals(bellman.exponential_profile())
    if not res.max_residual() <= args.tolerance:
        violations.append(f"profile residual {res.max_residual()!r}")

    ranges, derivs = [], []
    for a in range(21):
        m = a / 20.0
        ranges.extend(bellman.range_gaps(2.0, 1.0, 0.5, m))
        # children mean M - mu must stay nonnegative
        derivs.extend(bellman.derivative_gap(1.0, 0.5, m, (b / 20.0) * m) for b in range(21))
    min_range, min_deriv = nan_min(ranges), nan_min(derivs)
    _gate(args, violations, min_range, f"value left its pinned range by {min_range!r}")
    _gate(args, violations, min_deriv, f"harvest surplus dipped to {min_deriv!r}")

    summary = {
        **vars(psd),
        "profile_size_residual": res.size,
        "profile_derivative_residual": res.derivative,
        "profile_log_convexity_residual": res.log_convexity,
        "min_range_gap": min_range,
        "min_derivative_gap": min_deriv,
    }
    return summary, violations


def _cmd_scan_unsliced(args) -> tuple:
    from . import bellman

    witnesses, scan = bellman.scan_unsliced(region=args.region, step=args.step,
                                            max_sum=args.max_sum, threshold=args.threshold)
    if args.csv:
        _write_text(args.csv, bellman.witness_csv(witnesses))
    violations = []
    if args.region == "d-zero":
        if witnesses:
            d, d1, d2, g = witnesses[0]
            violations.append(
                f"negative minor {g!r} on the zero-tilt slice at ({d!r},{d1!r},{d2!r})"
            )
    elif not witnesses:
        violations.append("no negative minor found; the tilted scan expects witnesses")
    return {**scan, "csv": args.csv}, violations


def _embedding_slacks(args, violations: list):
    """The pair and measure of --function and --measure, checked to fit and to be
    balanced, with their embedding and weighted slacks; gates both slacks."""
    from . import carleson

    f = _load_pair(args.function)
    mu = _load_measure(args.measure)
    carleson._require_compatible(f, mu)
    mu.require_balanced()
    slack = carleson.embedding_slack(f, mu)
    _gate(args, violations, slack, f"embedding bound violated by {-slack!r}")
    weighted = carleson.weighted_embedding_slack(f, mu)
    _gate(args, violations, weighted, f"weighted bound violated by {-weighted!r}")
    return f, mu, slack, weighted


def _cmd_embed(args) -> tuple:
    from . import carleson

    violations = []
    f, mu, slack, weighted = _embedding_slacks(args, violations)
    summary = {
        "embedding_sum": float(carleson.embedding_sum(f, mu)),
        "norm2": float(f.norm2()),
        "packing_intensity": float(mu.packing_intensity()),
        "bound": carleson.embedding_bound(f, mu),
        "slack": slack,
        "weighted_slack": weighted,
        "balance_residual": float(mu.balance_residual()),
    }
    return summary, violations


def _cmd_uchiyama_check(args) -> tuple:
    from . import carleson
    from .dyadic import nan_min

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
        term = summary["telescoped_min_term"] = deco.min_term()
        if not match <= 1e-10:
            violations.append(f"telescoping drifted from the slack by {match!r}")
        _gate(args, violations, term, f"a telescoping term dipped to {term!r}")

    gaps = carleson.bellman_chain_slacks(f, mu)
    if gaps:
        worst = nan_min(gaps.values())
        summary["chain_min_gap"] = worst
        _gate(args, violations, worst, f"a chain step dipped to {worst!r}")

    return summary, violations


def _cmd_conjugate(args) -> tuple:
    from . import martingale
    from .dyadic import tree_from_json

    u_tree = _load(args.function, tree_from_json)
    imag = None if args.imag is None else _load(args.imag, tree_from_json)
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
            _write_text(args.emit, _dump(martingale.analytic_to_json(pair)))
        summary = {
            "depth": pair.depth,
            "norm2": float(pair.norm2()),
            "cr_residual": float(martingale.cr_residual(pair.u, pair.v)),
            "real_mean": float(pair.u.root_average),
            "imag_mean": float(pair.v.root_average),
        }
    violations = [f"{key} is not finite: {value!r}" for key, value in summary.items()
                  if not math.isfinite(value)]
    return summary, violations


def _cmd_kernel(args) -> tuple:
    from . import kernel
    from .dyadic import interval_from_id

    base = args.base
    anc = args.ancestors if base == "real_line" else 0
    I = interval_from_id(args.interval, base, anc)
    _check_depth(I.level - I.root_level)
    _check_window(anc)
    k = kernel.reproducing_kernel(I, args.height)
    norms = kernel.kernel_norm2(I, args.height)
    summary = {
        "interval": I.id,
        "height": args.height,
        "constant": k.constant,
        "coefficients": 2 * len(k.real_coeffs),
        "norm2": float(norms.value),
        "norm2_limit": float(norms.limit),
        "truncation_tail": float(norms.limit - norms.value),
    }
    if args.evaluate:
        z = k.evaluate(interval_from_id(args.evaluate, base, anc))
        summary["value_re"], summary["value_im"] = z.real, z.imag
    if args.emit:
        payload = {
            "base": base,
            "ancestor_levels": anc,
            "real": {J.id: c for J, c in k.real_coeffs.items()},
            "imag": {J.id: c for J, c in k.imag_coeffs.items()},
            **{key: summary[key] for key in ("interval", "height", "constant", "norm2",
                                             "norm2_limit")},
        }
        _write_text(args.emit, _dump(payload))
    return summary, []


def _cmd_check_3e(args) -> tuple:
    from . import carleson, kernel

    mu = _load_measure(args.measure)
    scan = kernel.testing_scan(mu)
    violations = []
    _gate(args, violations, scan.min_packing_slack,
          f"packing exceeded three kernel tests by {-scan.min_packing_slack!r}")
    summary = {
        "testing_constant": scan.testing_constant,
        "worst_testing_node": scan.worst_testing_node.id,
        "packing_intensity": float(mu.packing_intensity()),
        "min_packing_slack": scan.min_packing_slack,
        "worst_packing_node": scan.worst_packing_node.id,
        "nodes_checked": scan.nodes_checked,
        "bound_constant": 3.0 * kernel.E * scan.testing_constant,
    }
    if args.function:
        f = _load_pair(args.function)
        carleson._require_compatible(f, mu)
        mu.require_balanced()
        slack = summary["embedding_slack"] = kernel.testing_embedding_slack(f, mu)
        _gate(args, violations, slack, f"tested embedding bound violated by {-slack!r}")
    return summary, violations


def _cmd_search_extremal(args) -> tuple:
    from . import carleson, extremal
    from .martingale import analytic_to_json

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
    return summary, []


def _cmd_certify_lower_bound(args) -> tuple:
    from . import bellman

    bounds = [bellman.lower_bound_certificate(eps) for eps in args.eps]
    # a bound that rounds to e passes; a NaN or one past e fails
    violations = [f"certificate {bound!r} at eps {eps!r} overshot e"
                  for eps, bound in zip(args.eps, bounds) if not bound <= bellman.E]
    if args.csv:
        lines = ["eps,bound"]
        lines.extend(f"{eps!r},{b!r}" for eps, b in zip(args.eps, bounds))
        _write_text(args.csv, "\n".join(lines) + "\n")
    summary = {
        "eps": list(args.eps),
        "bounds": bounds,
        "max_bound": max(bounds),
        "limit": bellman.E,
    }
    return summary, violations


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
        summary, violations = args.func(args)
        report = {"command": args.command, "seed": getattr(args, "seed", None),
                  "tolerance": args.tolerance, "pass": not violations,
                  "violations": violations, "summary": summary}
        if args.out:
            _write_text(args.out, _dump(report))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: input values overflow a float: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for key in sorted(summary):
        print(f"{key}: {_fmt(summary[key])}")
    for message in violations:
        print(f"violation: {message}")
    print("result: PASS" if not violations else "result: FAIL")
    return EXIT_VIOLATION if violations else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
