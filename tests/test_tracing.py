"""The benchmark's span tracer still finds every dyuch name it wraps.

`perfbench/tracing.py` looks its targets up by module and attribute name,
so a rename or deletion in `src/` breaks `perfbench/run.py --trace 1`.
This loads the tracer by path, installs and removes it, and checks that a
wrapped name still sees the library calls it is meant to count.
"""
import importlib.util
import random
from pathlib import Path

import dyuch
from dyuch import carleson, extremal, kernel
from dyuch.martingale import random_analytic

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (carleson.embedding_sum, dyuch.embedding_sum, kernel.normalized_testing_value)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert carleson.embedding_sum is not originals[0]
        hits, misses, entries = tracer.kernel_cache()
        assert min(hits, misses, entries) >= 0
    finally:
        tracer.uninstall()
    assert (carleson.embedding_sum, dyuch.embedding_sum,
            kernel.normalized_testing_value) == originals


def test_package_keeps_no_traced_name():
    # a name first read through the package while the tracer is installed used
    # to stay cached there as the wrapper after uninstall
    vars(dyuch).pop("weighted_embedding_slack", None)
    original = carleson.weighted_embedding_slack
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert dyuch.weighted_embedding_slack is not original
    finally:
        tracer.uninstall()
    assert dyuch.weighted_embedding_slack is original
    assert "weighted_embedding_slack" not in vars(dyuch)


def test_chain_steps_are_traced():
    # the chain calls bellman.dynamics_gap, the name the tracer wraps as
    # bellman.step_gap, so it records one span per internal node
    rng = random.Random(8)
    f, mu = random_analytic(rng, 8), carleson.random_balanced_measure(rng, 8)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        gaps = carleson.bellman_chain_slacks(f, mu)
    finally:
        tracer.uninstall()
    steps = [span for span in tracer.spans if span[0] == "bellman.step_gap"]
    assert len(steps) == len(gaps) == 1 + 4 + 16 + 64


def test_every_measure_build_is_traced():
    # each measure is built through DiscreteMeasure.__init__, the method the
    # tracer wraps as carleson.measure_build: the parser, the generator, the search
    rng = random.Random(3)
    calls = {
        "measure_from_json": lambda: carleson.measure_from_json(
            {"base": "unit", "masses": {"L0N0": 1, "L2N3": 2}}),
        "random_balanced_measure": lambda: carleson.random_balanced_measure(rng, 4),
        "search": lambda: extremal.search(4, budget=50, seed=1),
    }
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for name, call in calls.items():
            before = len(tracer.spans)
            call()
            builds = [span for span in tracer.spans[before:] if span[0] == "carleson.measure_build"]
            assert builds, name
    finally:
        tracer.uninstall()
