#!/usr/bin/env python3
"""Benchmark for dyuch: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; dyuch is imported from `src/` of that
checkout and scratch files go to `.bench_work/` beside it.  Human-readable
metrics are printed first, one `name: value unit` per line; the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are the per-layer ones, from traced passes alternating with
untraced passes of the same size (see `tracing.py` and `README.md`).
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0
REFERENCE_EVERY_S = 0.5


def child_env():
    env = dict(os.environ)
    env.pop("DYUCH_MAX_DEPTH", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir, env=None, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion: (wall seconds, exit code, stdout, peak RSS in MB).

    A child still running after `timeout` seconds is killed (exit code -9).
    """
    with open(workdir / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=env or child_env(), cwd=workdir
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "child.stderr").read_text(errors="replace")[-2000:]
        print(f"child {argv[1:4]} exited {proc.returncode}: {tail}", file=sys.stderr)
    return elapsed, proc.returncode, out.decode(errors="replace"), usage.ru_maxrss / 1024.0


def child_import_s(workdir):
    """Cold `import dyuch` in a fresh interpreter, timed inside the child.

    Set-up adds this to its own in-process time and leaves the child's start
    and exit out, so the import is counted once and process start-up noise
    stays out of `setup_s`.
    """
    code = "import time; t = time.perf_counter(); import dyuch.cli; print(time.perf_counter() - t)"
    _, status, out, _ = run_child([sys.executable, "-c", code], workdir)
    if status != 0:
        raise RuntimeError("dyuch does not import")
    return float(out.strip().splitlines()[-1])


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50(values):
    return statistics.median(values)


def p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


class Run:
    """Counts checks and collects the metrics one run prints."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines = []
        self.metrics = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed check: {what}", file=sys.stderr)

    def show(self, name, value, unit):
        self.lines.append(f"{name}: {value!r} {unit}")

    def report(self, name, value, unit):
        self.show(name, value, unit)
        self.metrics[name] = {"value": value, "unit": unit}

    def emit(self):
        self.show("failed_share", self.failed / max(1, self.attempted), "ratio")
        for line in self.lines:
            print(line)
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }))


# Two fixed computations that do not touch dyuch, one per kind of workload.
# Each is the one whose time followed that kind of work most closely on a
# shared 2-vCPU Xeon VM at 2.1 GHz, where each takes 30 to 35 ms (see the
# "Noise" section of README.md).

def tree_reference():
    """For the in-process workloads: the shape of dyuch's exact paths.

    Pairwise `Fraction` averages up binary trees of 128 leaves, kept in a
    tuple-keyed dict, then sums of squares.
    """
    total = Fraction(0)
    table = {}
    for k in range(16):
        level = [Fraction((7 * i + 3 * k) % 101 - 50, 1 + (i * k) % 9) for i in range(128)]
        for v in level:
            total += v * v
        depth = 0
        while len(level) > 1:
            level = [(level[2 * i] + level[2 * i + 1]) / 2 for i in range(len(level) // 2)]
            depth += 1
            for i, v in enumerate(level):
                table[(k, depth, i)] = v
    for (_, depth, _), v in table.items():
        total += v * v / (1 + depth)
    return total.denominator


def allocation_reference():
    """For `cli`: tuple-keyed dict updates, a list of small tuples, `Fraction` sums."""
    table = {}
    total = Fraction(0)
    for i in range(1, 3000):
        key = (i % 97, i % 89, "k")
        table[key] = table.get(key, 0) + i
        total += Fraction(i, 2 * i + 1)
    rows = [(i, 2 * i, str(i)) for i in range(20000)]
    return len(table) + len(rows) + total.denominator


class Reference:
    """The host's current speed, sampled between items all through the timed loop.

    On a shared virtual machine (measured on a 2-vCPU Xeon VM) the speed
    can drift by a third over minutes, moving every timing in a run
    together.  Dividing a latency by the median reference time of the same
    run cancels much of it.  The loop calls `sample` after every item; it
    times one reference computation per `REFERENCE_EVERY_S` elapsed since
    the last samples, so the samples follow the run's time whatever the
    item length.
    """

    def __init__(self, work):
        self.work = work
        self.times = []
        self.last = time.perf_counter()

    def _time_once(self):
        start = time.perf_counter()
        self.work()
        self.times.append(time.perf_counter() - start)

    def sample(self):
        due = min(8, int((time.perf_counter() - self.last) / REFERENCE_EVERY_S))
        for _ in range(due):
            self._time_once()
        if due:
            self.last = time.perf_counter()

    def median_ms(self):
        if not self.times:  # a run shorter than one interval
            self._time_once()
        return 1e3 * p50(self.times)


def report_end_to_end(run, setup, latency_ms, rss_mb, reference):
    reference_ms = reference.median_ms()
    run.show("latency_p50_ms", latency_ms, "ms")
    run.show("reference_ms", reference_ms, "ms")
    run.report("latency_p50_rel", latency_ms / reference_ms, "ref")
    run.report("peak_rss_mb", rss_mb, "MB")
    run.report("setup_s", p50(setup), "s")


def report_layers(run, tracing, passes, untraced_s, traced_s):
    """Median over traced passes of every per-layer metric, plus tracing overhead."""
    for name, unit, _, value in tracing.PER_LAYER:
        run.report(name, p50([value(raw) for raw in passes]), unit)
    overhead = 100.0 * (p50(traced_s) / p50(untraced_s) - 1.0)
    run.report("trace.overhead_pct", overhead, "%")
    run.show("trace.passes", len(passes), "count")


def trace_in_process(args, run, work, prepare=None):
    """Alternate untraced and traced passes until `--seconds` have passed.

    `work(k, mark)` runs pass k and calls `mark(item)` before each item.  Pass
    2j runs untraced and pass 2j + 1 traced, so the two halves see the same
    kind of work and their time difference is the tracing overhead.
    `prepare(k)` makes the inputs of passes k and k + 1 before either is
    timed, so input generation is neither timed nor traced.
    """
    import tracing

    tracer = tracing.Tracer()
    passes, untraced_s, traced_s = [], [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while not passes or time.perf_counter() < deadline:
        if prepare:
            prepare(k)
        start = time.perf_counter()
        work(k, lambda item: None)
        untraced_s.append(time.perf_counter() - start)
        begin = len(tracer.spans)
        cache = tracer.kernel_cache()
        tracer.install()
        start = time.perf_counter()
        try:
            work(k + 1, lambda item: setattr(tracer, "item", item))
        finally:
            tracer.uninstall()
        traced_s.append(time.perf_counter() - start)
        tracer.add_cache_delta(cache, tracer.kernel_cache())
        passes.append(tracing.summarize(tracer.spans, tracer.counts, begin))
        tracer.counts.clear()
        k += 2
    tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
    report_layers(run, tracing, passes, untraced_s, traced_s)


# ---------------------------------------------------------------- exact-verify
#
# A seeded stream of exact configurations (conjugate pair plus balanced
# measure) at depths 2, 4, 6, 8, mixed 4:3:2:1 by count in shuffled blocks of
# ten, so every block has the same mix.  The median then sits in the depth-4
# class and p95 in the depth-8 class; a p90 would sit on the 6/8 boundary.
#
# The generators run in set-up and hand over only plain inputs: leaf lists
# of Fractions and an id -> mass dict.  Each configuration is verified once
# per run from objects built fresh from those inputs, because
# `PiecewiseConstant._pyramid` and `DiscreteMeasure._sums` fill on first use
# (and `random_balanced_measure` already fills `_sums` while generating), so
# reusing generated objects would time a warm path no user input takes.
#
# Kernel-cache policy: the unbounded `kernel.normalized_testing_value`
# `lru_cache` is keyed on interval pairs, so it is shared by all
# configurations of one process.  Set-up warms it with one configuration per
# depth, the timed loop then runs warm, and nothing calls `cache_clear()`.
# The `cli` workload is the cold-cache counterpart.

MIX = (2, 2, 2, 2, 4, 4, 4, 6, 6, 8)
KERNEL_MAX_DEPTH = 6
SETUP_BLOCKS = 4  # set-up's share of the stream, about 0.6 MB of plain inputs


def exact_inputs(rng, depth, martingale, carleson):
    f = martingale.random_analytic(rng, depth)
    mu = carleson.random_balanced_measure(rng, depth)
    masses = {I.id: m for I, m in mu.items()}
    return depth, f.u.leaves, f.v.leaves, masses


class ExactStream:
    """The seeded configuration stream, generated one block of the mix at a time."""

    def __init__(self, seed, martingale, carleson):
        self.rng = random.Random(seed)
        self.modules = martingale, carleson
        self.items = []

    def extend(self, blocks):
        for _ in range(blocks):
            block = list(MIX)
            self.rng.shuffle(block)
            self.items.extend(exact_inputs(self.rng, d, *self.modules) for d in block)


def verify_exact(item, dyuch, run):
    """The whole exact certificate for one configuration (criteria 4, 5, 7, 8)."""
    martingale, carleson, kernel = dyuch.martingale, dyuch.carleson, dyuch.kernel
    depth, u_leaves, v_leaves, masses = item
    f = martingale.DyadicAnalytic.from_leaves(u_leaves, v_leaves)
    u = f.u
    centered = u.shifted(-u.root_average)
    rotated = martingale.s0(u)
    run.check(rotated.norm2() == centered.norm2(), f"depth {depth}: s0 changed the norm")
    run.check(martingale.s0(rotated).leaves == centered.scaled(-1).leaves,
              f"depth {depth}: s0 twice is not minus the mean-free part")
    g = martingale.analytic_projection(u.pc, f.v.pc)
    run.check(g.u.leaves == u.leaves and g.v.leaves == f.v.leaves,
              f"depth {depth}: projection moved a conjugate pair")

    mu = carleson.measure_from_json({"base": "unit", "depth": depth, "masses": masses})
    packing = mu.packing_intensity()
    run.check(mu.balance_residual() == 0, f"depth {depth}: balance residual is not 0")
    run.check(packing <= 1, f"depth {depth}: packing {float(packing)} above 1")

    total = float(carleson.embedding_sum(f, mu))
    norm2 = float(f.norm2())
    slack = carleson.embedding_slack(f, mu)
    run.check(total <= carleson.E * norm2 * (1.0 + 1e-12) and slack >= -1e-9
              and total / norm2 <= carleson.E * float(packing) + 1e-9,
              f"depth {depth}: embedding bound with constant e")
    run.check(carleson.weighted_embedding_slack(f, mu) >= -1e-12,
              f"depth {depth}: weighted bound")
    deco = carleson.telescoped_weighted_slack(f, mu)
    run.check(abs(deco.total() - deco.slack) <= 1e-10 and deco.min_term() >= -1e-12,
              f"depth {depth}: telescoping")
    gaps = carleson.bellman_chain_slacks(f, mu)
    run.check(min(gaps.values()) >= -1e-9, f"depth {depth}: Bellman chain gap")
    if depth <= KERNEL_MAX_DEPTH:
        run.check(kernel.testing_embedding_slack(f, mu) >= -1e-12,
                  f"depth {depth}: 3e testing bound")


def workload_exact_verify(args, run, workdir):
    import dyuch
    from dyuch import carleson, martingale

    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        stream = ExactStream(args.seed, martingale, carleson)
        stream.extend(SETUP_BLOCKS)
        warm = random.Random(-1 - args.seed)
        for depth in sorted(set(MIX)):
            verify_exact(exact_inputs(warm, depth, martingale, carleson), dyuch, Run())
        setup.append(time.perf_counter() - start + child_import_s(workdir))

    size = len(MIX)
    if args.trace:
        def both_blocks(k):
            while len(stream.items) < (k + 2) * size:
                stream.extend(1)

        def block(k, mark):
            for i in range(k * size, (k + 1) * size):
                mark(i)
                item, stream.items[i] = stream.items[i], None
                verify_exact(item, dyuch, run)

        trace_in_process(args, run, block, both_blocks)
        return

    # Once set-up's share of the stream is used, the loop generates the next
    # block of the same seeded stream, outside the timings.  Set-up's share is
    # fixed and verified items are dropped, so the inputs held in memory do not
    # grow with `--seconds` or with the run's speed.
    times = {d: [] for d in set(MIX)}
    every = []
    reference = Reference(tree_reference)
    topped_up_s = 0.0
    start = time.perf_counter()
    deadline = start + args.seconds
    while not every or time.perf_counter() < deadline:
        if len(every) == len(stream.items):
            t0 = time.perf_counter()
            stream.extend(1)
            topped_up_s += time.perf_counter() - t0
        item, stream.items[len(every)] = stream.items[len(every)], None
        t0 = time.perf_counter()
        verify_exact(item, dyuch, run)
        elapsed = time.perf_counter() - t0
        times[item[0]].append(elapsed)
        every.append(elapsed)
        reference.sample()
    wall = time.perf_counter() - start - topped_up_s
    run.show("configs", len(every), "count")
    run.show("configs_per_s", len(every) / wall, "1/s")
    run.show("topped_up_s", topped_up_s, "s")
    run.show("config_p50_ms", 1e3 * p50(every), "ms")
    run.show("config_p95_ms", 1e3 * p95(every), "ms")
    for depth in sorted(times):
        run.show(f"depth{depth}_p50_ms", 1e3 * p50(times[depth]), "ms")
    # one block of the mix, from per-depth medians: steadier than the overall
    # p50, which sits on the steep lower part of the depth-4 class
    block_ms = 1e3 * sum(MIX.count(d) * p50(t) for d, t in times.items())
    report_end_to_end(run, setup, block_ms, self_rss_mb(), reference)


# ---------------------------------------------------------------------- search
#
# Consecutive `extremal.search(6, budget=800, seed=s + k)` calls with
# s = 1000 * seed, so runs with different seeds share no call.  This is the
# float path: thousands of tiny measures and DyadicInterval objects, and no
# kernel, numpy or Fraction-heavy code, so a change to those must read as no
# change here.  Depth 8 stays out: one call takes 6 to 7 s.

SEARCH_DEPTH = 6
SEARCH_BUDGET = 800


def check_search(config, run, seed, dyuch):
    """Re-check a returned configuration with public carleson calls."""
    carleson = dyuch.carleson
    f, mu = config.f, config.mu
    ratio = float(carleson.embedding_sum(f, mu)) / float(f.norm2())
    run.check(float(mu.balance_residual()) <= 1e-12, f"seed {seed}: balance")
    run.check(float(mu.packing_intensity()) <= 1.0 + 1e-12, f"seed {seed}: packing")
    run.check(ratio <= carleson.E and ratio == config.ratio, f"seed {seed}: ratio {ratio}")


def workload_search(args, run, workdir):
    import dyuch
    from dyuch import extremal

    base = 1000 * args.seed
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        extremal.search(4, budget=100, seed=base - 1)
        setup.append(time.perf_counter() - start + child_import_s(workdir))

    def call(k):
        return extremal.search(SEARCH_DEPTH, budget=SEARCH_BUDGET, seed=base + k)

    if args.trace:
        def one_call(k, mark):
            mark(k)
            check_search(call(k), run, base + k, dyuch)

        trace_in_process(args, run, one_call)
        return

    times, ratios = [], []
    reference = Reference(tree_reference)
    start = time.perf_counter()
    deadline = start + args.seconds
    while not times or time.perf_counter() < deadline:
        k = len(times)
        t0 = time.perf_counter()
        config = call(k)
        times.append(time.perf_counter() - t0)
        ratios.append(config.ratio)
        check_search(config, run, base + k, dyuch)
        reference.sample()
    wall = time.perf_counter() - start
    run.check(call(0).ratio == ratios[0], f"seed {base}: repeat call changed the ratio")
    run.show("calls", len(times), "count")
    run.show("calls_per_s", len(times) / wall, "1/s")
    run.show("search_p50_s", p50(times), "s")
    run.show("best_ratio", max(ratios), "ratio")
    report_end_to_end(run, setup, 1e3 * p50(times), self_rss_mb(), reference)


# ------------------------------------------------------------------------- cli
#
# One client, closed loop, one fresh `python -m dyuch.cli` process per
# request, cycling a fixed mix on JSON inputs written at set-up.  Every
# request pays the import and a cold kernel cache, as every CLI user does.
# `verify-bellman` is the only place the batched numpy verifier runs; `embed`
# and `uchiyama-check` at depth 8 are dominated by start-up and loading.

CLI_DEPTH = 8


def cli_commands(seed):
    return (
        ("check_3e", ["check-3e", "--measure", "mu8.json", "--function", "f8.json"]),
        ("uchiyama_check", ["uchiyama-check", "--function", "f8.json", "--measure", "mu8.json"]),
        ("embed", ["embed", "--function", "f8.json", "--measure", "mu8.json"]),
        ("verify_bellman", ["verify-bellman", "--samples", "1000000", "--seed", str(seed)]),
        ("scan_unsliced", ["scan-unsliced", "--step", "0.01", "--csv", "witnesses.csv"]),
    )


def write_cli_inputs(seed, workdir, carleson, martingale):
    rng = random.Random(seed)
    f = martingale.random_analytic(rng, CLI_DEPTH)
    mu = carleson.random_balanced_measure(rng, CLI_DEPTH)
    (workdir / "f8.json").write_text(json.dumps(martingale.analytic_to_json(f)))
    (workdir / "mu8.json").write_text(json.dumps(carleson.measure_to_json(mu)))


def cli_request(name, argv, workdir, run, outputs, traced=None):
    """One request; returns (wall seconds, peak RSS MB)."""
    out_path = workdir / f"{name}.out.json"
    if traced is None:
        cmd = [sys.executable, "-m", "dyuch.cli", *argv, "--out", out_path.name]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(traced), *argv,
               "--out", out_path.name]
    elapsed, status, stdout, rss = run_child(cmd, workdir)
    lines = stdout.strip().splitlines()
    run.check(status == 0 and bool(lines) and lines[-1] == "result: PASS",
              f"{name}: exit {status}, last line {lines[-1:]}")
    report = out_path.read_bytes() if out_path.exists() else b""
    run.check(outputs.setdefault(name, report) == report and report != b"",
              f"{name}: --out report differs from the first one in this run")
    out_path.unlink(missing_ok=True)
    return elapsed, rss


def workload_cli(args, run, workdir):
    from dyuch import carleson, martingale

    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        write_cli_inputs(args.seed, workdir, carleson, martingale)
        setup.append(time.perf_counter() - start + child_import_s(workdir))

    commands = cli_commands(args.seed)
    outputs = {}
    if args.trace:
        import tracing
        passes, untraced_s, traced_s, check_3e, requests = [], [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            cycle = [cli_request(n, a, workdir, run, outputs) for n, a in commands]
            untraced_s.append(sum(t for t, _ in cycle))
            check_3e.append(cycle[0][0])
            raws, elapsed = [], 0.0
            for name, argv in commands:
                trace_path = workdir / "trace.json"
                elapsed += cli_request(name, argv, workdir, run, outputs, trace_path)[0]
                child = json.loads(trace_path.read_text())
                requests.append({"item": len(requests), "command": name, **child})
                raws.append(tracing.summarize(child["spans"], child["counts"]))
            traced_s.append(elapsed)
            passes.append(tracing.merge(raws))
        (WORK / f"trace-cli-{args.seed}.json").write_text(json.dumps(requests))
        run.show("check_3e_p50_s", p50(check_3e), "s")
        report_layers(run, tracing, passes, untraced_s, traced_s)
        return

    times = {name: [] for name, _ in commands}
    rss = {name: [] for name, _ in commands}
    reference = Reference(allocation_reference)
    start = time.perf_counter()
    deadline = start + args.seconds
    requests = 0
    while requests % len(commands) or not requests or time.perf_counter() < deadline:
        name, argv = commands[requests % len(commands)]
        elapsed, peak = cli_request(name, argv, workdir, run, outputs)
        times[name].append(elapsed)
        rss[name].append(peak)
        requests += 1
        reference.sample()
    wall = time.perf_counter() - start
    for name, _ in commands:
        run.show(f"{name}_p50_s", p50(times[name]), "s")
    run.show("check_3e_rss_mb", max(rss["check_3e"]), "MB")
    run.show("requests", requests, "count")
    run.show("requests_per_s", requests / wall, "1/s")
    # one pass through the five commands, from per-command medians
    cycle_ms = 1e3 * sum(p50(t) for t in times.values())
    report_end_to_end(run, setup, cycle_ms, max(max(r) for r in rss.values()), reference)


WORKLOADS = {
    "exact-verify": workload_exact_verify,
    "search": workload_search,
    "cli": workload_cli,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dyuch" / "__init__.py").is_file():
        print(f"no dyuch sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    try:
        WORKLOADS[args.workload](args, run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
