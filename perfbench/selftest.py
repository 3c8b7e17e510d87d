"""Self-checks of the benchmark harness; exits 0 when all hold.

    python3 perfbench/selftest.py

1. The same seed gives a byte-identical generated dump and head, another
   seed a different dump, and the program's own reader decodes the dump to
   exactly the generated arrays.
2. On a synthetic nest of spans, self time equals the span minus its
   children.
3. Installing the tracer wraps the program's functions, uninstalling puts
   every original back, and an untraced pass refuses to run while anything
   is wrapped, so untraced runs call the original functions.
4. ``BENCHMARK.json`` names the workloads that ``run.py`` and ``worker.py``
   run and the end-to-end metrics that ``run.py`` measures, and each per-layer
   time it names is the time of a span the tracer records.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from dgdx import cli, core  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def check_inputs_deterministic():
    a = inputs.write_inputs(5, WORK / "a")
    b = inputs.write_inputs(5, WORK / "b")
    c = inputs.write_inputs(6, WORK / "c")
    assert a == b, f"same seed, different inputs: {a} != {b}"
    assert a["reps.bin"] != c["reps.bin"], "different seeds gave the same dump"
    header, ids, splits, labels, z = inputs.make_dump(5)
    ds = core.load_dump(WORK / "a" / "reps.bin", core.FORMAT_BINARY)
    assert ds.num_samples == 16000 and ds.dim == 64 and ds.num_classes == 5
    assert [(d.id, d.name, d.role) for d in ds.domains] == [
        (d["id"], d["name"], d["role"]) for d in header["domains"]]
    assert np.array_equal(ds.domain_ids, ids) and np.array_equal(ds.splits, splits)
    assert np.array_equal(ds.labels, labels) and np.array_equal(ds.z, z)
    assert core.LinearProbe.load(WORK / "a" / "head.json").num_outputs == 5


def check_self_times():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.5])
    t = spans.Tracer(clock=lambda: next(ticks))
    t.begin("A")      # 0
    t.begin("B")      # 1
    t.begin("C")      # 2
    t.end()           # 3   C = 1
    t.end()           # 4   B = 3, child 1
    t.begin("B")      # 5
    t.end()           # 9   B = 4
    t.end()           # 10  A = 10, children 3 + 4
    t.begin("C")      # 11
    t.end()           # 12.5 C = 1.5, top level
    got = t.summary()
    want = {"A": (1, 10.0, 3.0), "B": (2, 7.0, 6.0), "C": (2, 2.5, 2.5)}
    for name, (calls, total, self_s) in want.items():
        g = got[name]
        assert (g["calls"], g["total_s"], g["self_s"]) == (calls, total, self_s), (name, g)
    assert spans.covered_s(t.spans) == 11.5


def check_unwrapped_after_trace():
    def snapshot():
        out = {}
        for mod in spans._dgdx_modules():
            out.update({(mod.__name__, k): v for k, v in vars(mod).items() if callable(v)})
        out.update({("cli", k): c.callback for k, c in cli.main.commands.items()})
        return out

    before = snapshot()
    assert not spans.wrapped_names()
    tracer = spans.Tracer()
    tracer.install(spans.standard_hooks(tracer))
    try:
        for name in ("dgdx.metrics.fit_probe", "dgdx.expt.objective_and_grad",
                     "dgdx.propositions.eval_G", "dgdx.cli.diagnose"):
            assert name in spans.wrapped_names(), name
        try:
            worker.run_pass([], WORK / "pass")
        except RuntimeError:
            pass
        else:
            raise AssertionError("an untraced pass ran with wrapped functions")
    finally:
        tracer.uninstall()
    after = snapshot()
    assert not spans.wrapped_names()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"not restored: {changed}"


def check_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(worker.WORKLOAD_OPS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    spanned = {name for _, _, name in spans.SPANNED} | {spans.CLI_SPAN}
    for m in bench["per_layer"]:
        base, _, field = m["name"].rpartition(".")
        if field in ("s", "self_s"):
            assert base in spanned, f"{m['name']} names no span"


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    failed = 0
    for check in (check_inputs_deterministic, check_self_times, check_unwrapped_after_trace,
                  check_benchmark_json):
        try:
            check()
            print(f"ok   {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
