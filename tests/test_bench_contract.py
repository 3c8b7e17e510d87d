"""What the benchmark relies on in ``dgdx``.

The tracer wraps ``dgdx`` functions by module and name.  ``perfbench/spans.py``
lists them in ``SPANNED`` and ``COUNTED``; a name that is no longer a module
global of its module breaks the traced runs, so every listed name must
resolve.  The ``diagnose-16k`` workload's diagnosis of its seed-0 inputs is
pinned, so that a change to its output shows in the tests.  One operation of
each workload runs through the worker's own ``run_pass``, so that a change
to what an untraced run calls (the CLI, ``Diagnosis`` fields, scenario
expectations, CSV columns) fails here before it fails a benchmark run.  The
benchmark's files are loaded by path and not changed.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dgdx.core import FORMAT_BINARY, ROLE_TEST, LinearProbe, load_dump
from dgdx.metrics import diagnose

from support import without_solver_bits

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclasses it defines
    spec.loader.exec_module(module)
    return module


_SPANS = _bench_module("spans")


def _worker():
    """``worker.py``, loaded with ``perfbench/`` first on ``sys.path``, as
    its own process has it, so that its ``import spans`` resolves."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return _bench_module("worker")
    finally:
        sys.path.remove(str(BENCH_DIR))


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The ``diagnose-16k`` inputs of seed 0."""
    path = tmp_path_factory.mktemp("bench-inputs")
    _bench_module("inputs").write_inputs(0, path)
    return path


@pytest.mark.parametrize("module, function, name", _SPANS.SPANNED + _SPANS.COUNTED)
def test_traced_function_is_a_module_global(module, function, name):
    mod = importlib.import_module(f"dgdx.{module}")
    assert callable(vars(mod).get(function)), f"dgdx.{module}.{function} ({name})"


# diagnosis.json of the diagnose-16k inputs, less the solver's last bits, hashed
_PINNED_BENCH_DIAGNOSIS_SHA256 = "6e160d84bcca3d753d2d2542757a5e78e4230f2fa3cf93d1b4870f792f3318f8"


def test_bench_dump_diagnosis_is_pinned(bench_inputs):
    ds = load_dump(bench_inputs / "reps.bin", FORMAT_BINARY)
    diag = diagnose(ds, LinearProbe.load(bench_inputs / "head.json"), ROLE_TEST)
    view = json.dumps(without_solver_bits(diag.to_dict()), sort_keys=True)
    assert hashlib.sha256(view.encode()).hexdigest() == _PINNED_BENCH_DIAGNOSIS_SHA256


def test_one_operation_of_each_workload_passes_the_worker(tmp_path, bench_inputs):
    worker = _worker()
    ops = [worker.WORKLOAD_OPS[name](0, bench_inputs)[0] for name in sorted(worker.WORKLOAD_OPS)]
    _, _, results = worker.run_pass(ops, tmp_path)
    assert [(r["op"], r["messages"]) for r in results] == [(op.name, []) for op in ops]
    assert all(sorted(r["sha256"]) == sorted(op.outputs) for r, op in zip(results, ops))
