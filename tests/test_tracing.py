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
from dyuch import carleson, kernel
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
