"""The benchmark's workloads still find every dyuch name they call.

`perfbench/run.py` reaches the library through module attributes, so a
rename or deletion in `src/` breaks a workload only when it runs.  This loads
the script by path and runs, once and small, the calls each workload times:
the exact certificate on one configuration per depth of the mix, the check
of one search result, and the writer of the CLI inputs.
"""
import importlib.util
import json
import random
from pathlib import Path

import dyuch
from dyuch import carleson, extremal, martingale

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_calls_pass(tmp_path):
    bench = load_run()
    run = bench.Run()
    rng = random.Random(1)
    for depth in sorted(set(bench.MIX)):
        bench.verify_exact(bench.exact_inputs(rng, depth, martingale, carleson), dyuch, run)
    config = extremal.search(bench.SEARCH_DEPTH, budget=50, seed=1)
    bench.check_search(config, run, 1, dyuch)
    bench.write_cli_inputs(1, tmp_path, carleson, martingale)
    f = martingale.analytic_from_json(json.loads((tmp_path / "f8.json").read_text()))
    mu = carleson.measure_from_json(json.loads((tmp_path / "mu8.json").read_text()))
    assert f.depth == mu.depth == bench.CLI_DEPTH
    assert run.attempted > 0 and run.failed == 0
