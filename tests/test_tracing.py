"""The benchmark's span tracer still finds every dyuch name it wraps.

`perfbench/tracing.py` looks its targets up by module and attribute name,
so a rename or deletion in `src/` breaks `perfbench/run.py --trace 1`.
This loads the tracer by path and installs and removes it once.
"""
import importlib.util
from pathlib import Path

import dyuch
from dyuch import carleson, kernel

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
