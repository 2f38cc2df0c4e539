#!/usr/bin/env python3
"""Informational depth sweep: time and peak memory of each layer at depths 2 to 10.

    python3 perfbench/sweep.py --out perfbench/results/sweep-seed.json

Not part of the gated runs.  Every row runs in a fresh child process, so
caches start cold and the child's peak RSS is the row's memory (it includes
the interpreter and numpy; the `baseline` row shows how much).  A row whose
time at the previous depth, times four (the node count grows fourfold per
depth step), exceeds `CAP_S` is recorded as "skipped: over cap" without
running; a row that runs past the cap is killed and recorded the same way.
CLI rows at depths above 8 set `DYUCH_MAX_DEPTH` in the child's environment
only.  In-process rows time the operation on objects built fresh from plain
inputs and report the median over repeats lasting at least 0.3 s.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

from run import SRC, WORK, run_child

DEPTHS = (2, 4, 6, 8, 10)
CAP_S = 60.0  # seconds per row
SEED = 0
MIN_TIMED_S = 0.3


class Inputs:
    """Plain seeded inputs at one depth, and fresh objects built from them."""

    def __init__(self, depth, seed):
        from dyuch import carleson, martingale

        rng = random.Random(seed)
        f = martingale.random_analytic(rng, depth)
        mu = carleson.random_balanced_measure(rng, depth)
        self.depth, self.seed = depth, seed
        self.u, self.v = f.u.leaves, f.v.leaves
        self.masses = {I.id: m for I, m in mu.items()}

    def pair(self):
        from dyuch import martingale
        return martingale.DyadicAnalytic.from_leaves(self.u, self.v, validate=False)

    def measure(self):
        from dyuch import carleson
        return carleson.measure_from_json(
            {"base": "unit", "depth": self.depth, "masses": self.masses})

    def pair_and_measure(self):
        return self.pair(), self.measure()


def in_process_rows():
    """row -> (layer, build(inputs) -> untimed args, timed op, repeatable)."""
    from dyuch import carleson, dyadic, extremal, kernel, martingale

    return {
        "tree_build": ("dyadic", lambda i: (i.u,), dyadic.PiecewiseConstant, True),
        "pyramid": ("dyadic", lambda i: (dyadic.PiecewiseConstant(i.u),),
                    dyadic.PiecewiseConstant.pyramid, True),
        "validate": ("martingale", lambda i: (i.u, i.v),
                     martingale.DyadicAnalytic.from_leaves, True),
        "s0": ("martingale", lambda i: (i.pair().u,), martingale.s0, True),
        "cr_residual": ("martingale", lambda i: (i.pair().u, i.pair().v),
                        martingale.cr_residual, True),
        "projection": ("martingale", lambda i: (i.pair().u.pc, i.pair().v.pc),
                       martingale.analytic_projection, True),
        "measure_build": ("carleson", lambda i: (
            {"base": "unit", "depth": i.depth, "masses": i.masses},),
            carleson.measure_from_json, True),
        "closure_sums": ("carleson", lambda i: (i.measure(),),
                         carleson.DiscreteMeasure.packing_intensity, True),
        "embedding_sum": ("carleson", Inputs.pair_and_measure, carleson.embedding_sum, True),
        "weighted_slack": ("carleson", Inputs.pair_and_measure,
                           carleson.weighted_embedding_slack, True),
        "telescope": ("carleson", Inputs.pair_and_measure,
                      carleson.telescoped_weighted_slack, True),
        "chain": ("bellman", Inputs.pair_and_measure, carleson.bellman_chain_slacks, True),
        # one call in a fresh process: the kernel cache is cold, as in `check-3e`
        "testing_constant": ("kernel", lambda i: (i.measure(),), kernel.testing_constant, False),
        "search_800": ("extremal", lambda i: (i.depth, 800, i.seed), extremal.search, False),
    }


CLI_ROWS = {
    "check-3e": ["check-3e", "--measure", "mu.json", "--function", "f.json"],
    "uchiyama-check": ["uchiyama-check", "--function", "f.json", "--measure", "mu.json"],
    "embed": ["embed", "--function", "f.json", "--measure", "mu.json"],
}
FIXED_ROWS = {  # no depth parameter
    "verify-bellman-1e5": ["verify-bellman", "--samples", "100000"],
    "verify-bellman-1e6": ["verify-bellman", "--samples", "1000000"],
    "scan-unsliced-0.01": ["scan-unsliced", "--step", "0.01", "--csv", "witnesses.csv"],
}


def run_row(row, depth):
    """Child side: time one in-process row and print its seconds per call."""
    if row == "baseline":
        import dyuch  # noqa: F401
        print(json.dumps({"seconds": 0.0, "calls": 0}))
        return
    _, build, op, repeatable = in_process_rows()[row]
    inputs = Inputs(depth, SEED)
    samples = []
    while not samples or (repeatable and sum(samples) < MIN_TIMED_S and len(samples) < 200):
        args = build(inputs)
        start = time.perf_counter()
        op(*args)
        samples.append(time.perf_counter() - start)
    print(json.dumps({"seconds": statistics.median(samples), "calls": len(samples)}))


def sweep():
    sys.path.insert(0, str(SRC))
    from dyuch import carleson, martingale

    workdir = WORK / f"sweep-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DYUCH_MAX_DEPTH", None)
    rows = []

    def child(argv, row_env):
        """(status, wall seconds, stdout, peak RSS MB); status "timeout" past the cap."""
        wall, code, out, rss = run_child(argv, workdir, row_env, CAP_S)
        return ("timeout" if code == -9 and wall >= CAP_S else code), wall, out, rss

    def record(layer, row, depth, status, seconds=None, rss=None):
        entry = {"layer": layer, "row": row, "depth": depth, "status": status,
                 "seconds": seconds, "peak_rss_mb": rss}
        rows.append(entry)
        print(json.dumps(entry), flush=True)

    status, _, out, rss = child([sys.executable, __file__, "--row", "baseline", "0"], env)
    record("import", "baseline", None, "ok" if status == 0 else f"exit {status}", 0.0, rss)

    jobs = [(layer, row, "in-process") for row, (layer, *_) in in_process_rows().items()]
    jobs += [("cli", row, "cli") for row in CLI_ROWS]
    for layer, row, kind in jobs:
        previous = None
        for depth in DEPTHS:
            if previous is not None and previous * 4 > CAP_S:
                record(layer, row, depth, "skipped: over cap")
                continue
            if kind == "in-process":
                argv = [sys.executable, __file__, "--row", row, str(depth)]
                row_env = env
            else:
                rng = random.Random(SEED)
                f = martingale.random_analytic(rng, depth)
                mu = carleson.random_balanced_measure(rng, depth)
                (workdir / "f.json").write_text(json.dumps(martingale.analytic_to_json(f)))
                (workdir / "mu.json").write_text(json.dumps(carleson.measure_to_json(mu)))
                argv = [sys.executable, "-m", "dyuch.cli", *CLI_ROWS[row]]
                row_env = dict(env, DYUCH_MAX_DEPTH=str(depth)) if depth > 8 else env
            status, wall, out, rss = child(argv, row_env)
            if status == "timeout":
                record(layer, row, depth, "skipped: over cap")
                previous = CAP_S
                continue
            if status != 0:
                record(layer, row, depth, f"exit {status}")
                previous = None
                continue
            seconds = wall
            if kind == "in-process":
                seconds = json.loads(out.strip().splitlines()[-1])["seconds"]
            record(layer, row, depth, "ok", seconds, rss)
            previous = seconds
    for row, argv in FIXED_ROWS.items():
        status, wall, _, rss = child([sys.executable, "-m", "dyuch.cli", *argv], env)
        ok = status == 0
        record("cli", row, None, "ok" if ok else ("skipped: over cap" if status == "timeout"
                                                 else f"exit {status}"),
               wall if ok else None, rss if ok else None)
    shutil.rmtree(workdir, ignore_errors=True)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", nargs=2, metavar=("NAME", "DEPTH"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args(argv)
    if args.row:
        run_row(args.row[0], int(args.row[1]))
        return 0
    if not (SRC / "dyuch" / "__init__.py").is_file():
        print(f"no dyuch sources under {SRC}", file=sys.stderr)
        return 2
    rows = sweep()
    if args.out:
        meta = {"cap_s": CAP_S, "seed": SEED, "python": sys.version.split()[0]}
        Path(args.out).write_text(json.dumps({"meta": meta, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
