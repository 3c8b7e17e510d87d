"""The benchmark's tracer wraps ``dgdx`` functions by module and name.

``perfbench/spans.py`` lists them in ``SPANNED`` and ``COUNTED``; a name
that is no longer a module global of its module breaks the traced runs, so
every listed name must resolve.  The file is loaded by path and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _spans()


@pytest.mark.parametrize("module, function, name", _SPANS.SPANNED + _SPANS.COUNTED)
def test_traced_function_is_a_module_global(module, function, name):
    mod = importlib.import_module(f"dgdx.{module}")
    assert callable(vars(mod).get(function)), f"dgdx.{module}.{function} ({name})"
