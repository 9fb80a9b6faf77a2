"""The names the benchmark tracer wraps or reads must exist.

``bench/tracer.py`` rebinds the ``(module, attr)`` pairs in its
``FUNCTIONS`` and a few further attributes when a traced benchmark run
starts, and the benchmark's job and workload scripts call a few more.  A
deletion or rename of any of them breaks a benchmark run, so it is checked
here, without installing the tracer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", _tracer().FUNCTIONS)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"stablemix.{module}"), attr))


@pytest.mark.parametrize(
    "module, owner, attr",
    [
        ("processes", "Ensemble", "in_g"),
        ("processes", "Ensemble", "eta_invertible"),
        ("verify", "EventFamily", "indicator_matrix"),
        ("laws", "IncrementLaw", "from_uniforms"),
        ("laws", "IncrementLaw", "cf"),
        ("streams", None, "chunk_starts"),
        ("streams", None, "map_chunks"),
        ("streams", None, "CHUNK_PATHS"),
        ("cli", None, "run_command"),
        # bench/job.py and bench/workloads.py call these directly.
        ("cli", None, "main"),
        ("cli", None, "load_config"),
        ("cli", None, "validate_config"),
        (None, None, "process_from_json"),
        (None, None, "scale_mixture_gap"),
        (None, None, "default_grid"),
    ],
)
def test_read_attribute_exists(module, owner, attr):
    obj = importlib.import_module(".".join(filter(None, ("stablemix", module))))
    if owner is not None:
        obj = getattr(obj, owner)
    assert hasattr(obj, attr)


def test_uniform_counter_matches_uniform_block():
    # The tracer counts uniforms from uniform_block's arguments, and the
    # draw route calls it once per slice: a renamed or reordered parameter
    # would quietly zero that count.
    from stablemix import streams

    counter = list(inspect.signature(_tracer()._count_uniforms).parameters)
    assert counter[0] == "tracer"
    assert counter[1:] == list(inspect.signature(streams.uniform_block).parameters)
