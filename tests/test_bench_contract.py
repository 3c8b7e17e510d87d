"""What the benchmark relies on in ``dgdx``.

The tracer wraps ``dgdx`` functions by module and name.  ``perfbench/spans.py``
lists them in ``SPANNED`` and ``COUNTED``; a name that is no longer a module
global of its module breaks the traced runs, so every listed name must
resolve.  The ``diagnose-16k`` workload's diagnosis of its seed-0 inputs is
pinned, so that a change to its output shows in the tests.  The benchmark's
files are loaded by path and not changed.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from dgdx.core import FORMAT_BINARY, ROLE_TEST, LinearProbe, load_dump
from dgdx.metrics import diagnose

from support import without_solver_bits

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _bench_module("spans")


@pytest.mark.parametrize("module, function, name", _SPANS.SPANNED + _SPANS.COUNTED)
def test_traced_function_is_a_module_global(module, function, name):
    mod = importlib.import_module(f"dgdx.{module}")
    assert callable(vars(mod).get(function)), f"dgdx.{module}.{function} ({name})"


# diagnosis.json of the diagnose-16k inputs, less the solver's last bits, hashed
_PINNED_BENCH_DIAGNOSIS_SHA256 = "a2568e59b994030d29e7a05e35971b1c3fa4c4921585f0207d55c9bab70099f4"


def test_bench_dump_diagnosis_is_pinned(tmp_path):
    _bench_module("inputs").write_inputs(0, tmp_path)
    ds = load_dump(tmp_path / "reps.bin", FORMAT_BINARY)
    diag = diagnose(ds, LinearProbe.load(tmp_path / "head.json"), ROLE_TEST)
    view = json.dumps(without_solver_bits(diag.to_dict()), sort_keys=True)
    assert hashlib.sha256(view.encode()).hexdigest() == _PINNED_BENCH_DIAGNOSIS_SHA256
