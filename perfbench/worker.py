"""Runs one pass of a workload's operations in a fresh process and checks them.

``run.py`` starts one such process per pass, with the BLAS pool pinned to
one thread and ``src/`` on ``PYTHONPATH``; it generates no inputs itself.
Each operation goes through ``dgdx.cli.main`` with the arguments a user
would type, so the benchmark times exactly the calls the CLI makes.

Every pass runs in a process of its own because a user's CLI call does: the
first pass in a process pays for growing the allocator's heap (on a
``trajectory`` pass, 1.6 million minor page faults and 2.5 s of system
time), which later passes in the same process do not.

With ``--trace 1`` the pass runs with the tracing wrappers of ``spans.py``
installed.  The result goes to ``<work>/pass<index>.json``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

_t0 = time.perf_counter()
import dgdx.cli as cli  # noqa: E402  (timed: the CLI's import cost)

CLI_IMPORT_S = time.perf_counter() - _t0

from dgdx import core, scenarios  # noqa: E402

import click  # noqa: E402

import spans as tr  # noqa: E402  (perfbench/spans.py; this directory is sys.path[0])

# the 15 scenario kinds, listed here so the workload cannot shrink with the program
FIXTURE_KINDS = (
    "underfit", "test-inseparable", "misaligned", "head-noninvariant", "success",
    "inv-train-only-a", "inv-train-only-b", "inv-train-only-c", "inv-train-only-d",
    "inv-train-only-e", "inv-all-a", "inv-all-b", "inv-all-c", "inv-all-d", "label-flipped",
)
FIXTURE_SEEDS_PER_KIND = 4
TRAJECTORY_EPOCHS = 3
TRAJECTORY_STEPS = 200
VERIFY_TRIALS = 1000
VERIFY_SUITES = ("prop1", "prop2", "orderings", "partition")


@dataclass(frozen=True)
class Op:
    name: str
    run: object  # callable(out_dir) -> list of failure messages; timed
    outputs: tuple  # files compared byte for byte across passes
    check: object  # callable(out_dir) -> list of failure messages; untimed
    steps: int = 0  # training steps, for evals per step


def cli_call(args):
    """Invoke the CLI in-process; return its exit code."""
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def exit_failure(what, code):
    return [f"{what} exited {code}"] if code else []


# -- output checks (untimed) ------------------------------------------------------


def telescoping_failures(where, e, d):
    """``e = (e0, e1, e2, e3, e3')`` and ``d = (d0, d1, d2, d2')`` must sum
    bit-exactly, left to right."""
    out = []
    if ((e[0] + e[1]) + e[2]) + e[3] != e[4]:
        out.append(f"{where}: e0+e1+e2+e3 != e3'")
    if (d[0] + d[1]) + d[2] != d[3]:
        out.append(f"{where}: d0+d1+d2 != d2'")
    return out


def check_diagnosis_json(out):
    diag = json.loads((out / "diagnosis.json").read_text())
    e = tuple(diag[k] for k in ("e0", "e1", "e2", "e3", "e3_prime"))
    d = tuple(diag[k] for k in ("d0", "d1", "d2", "d2_prime"))
    return telescoping_failures("diagnosis.json", e, d)


def check_trajectory_csv(out):
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != TRAJECTORY_EPOCHS:
        return [f"trajectory.csv has {len(rows)} epochs, expected {TRAJECTORY_EPOCHS}"]
    failures = []
    for row in rows:
        e = tuple(float(row[k]) for k in ("e0", "e1", "e2", "e3", "e3p"))
        d = tuple(float(row[k]) for k in ("d0", "d1", "d2", "d2p"))
        failures += telescoping_failures(f"trajectory.csv epoch {row['beta_or_epoch']}", e, d)
    return failures


def check_verify_json(out):
    rep = json.loads((out / "verify.json").read_text())
    failures = [] if rep["failures"] == 0 else [f"verify.json reports {rep['failures']} failures"]
    if sorted(rep["suites"]) != sorted(VERIFY_SUITES):
        failures.append(f"verify.json has suites {sorted(rep['suites'])}")
    for name, suite in sorted(rep["suites"].items()):
        if suite["gated_out"] or suite["failed"] or suite["passed"] != VERIFY_TRIALS:
            failures.append(f"suite {name}: passed {suite['passed']}, failed {suite['failed']}, "
                            f"gated out {suite['gated_out']} of {VERIFY_TRIALS}")
    return failures


def diagnosis_from_json(path):
    obj = json.loads(Path(path).read_text())
    fields = {k: v for k, v in obj.items() if k != "negative_component_flags"}
    return core.Diagnosis(**fields, negative_component_flags=tuple(obj["negative_component_flags"]))


# -- workloads --------------------------------------------------------------------


def diagnose_ops(seed, inputs):
    def run(out):
        return exit_failure("diagnose", cli_call([
            "diagnose", "--dump", str(inputs / "reps.bin"), "--head", str(inputs / "head.json"),
            "--target", "test", "--out", str(out)]))
    return [Op("diagnose", run, ("diagnosis.json", "diagnosis.csv"), check_diagnosis_json)]


def trajectory_ops(seed, inputs):
    def run(out):
        return exit_failure("trajectory", cli_call([
            "trajectory", "--algorithm", "cond-invariance", "--beta", "1",
            "--epochs", str(TRAJECTORY_EPOCHS), "--steps-per-epoch", str(TRAJECTORY_STEPS),
            "--seed", str(seed), "--out", str(out)]))
    return [Op("trajectory", run, ("trajectory.csv", "correlations.json"), check_trajectory_csv,
               steps=TRAJECTORY_EPOCHS * TRAJECTORY_STEPS)]


def fixture_op(kind, fixture_seed):
    def run(out):
        code = cli_call(["scenario", "--kind", kind, "--seed", str(fixture_seed),
                         "--format", "csv", "--out", str(out)])
        if code:
            return exit_failure("scenario", code)
        code = cli_call(["diagnose", "--dump", str(out / "scenario.csv"),
                         "--head", str(out / "head.json"), "--target", "test", "--out", str(out)])
        if code:
            return exit_failure("diagnose", code)
        expectation = scenarios.ScenarioExpectation.from_dict(
            json.loads((out / "expectation.json").read_text()))
        result = scenarios.check_expectation(diagnosis_from_json(out / "diagnosis.json"),
                                             expectation)
        return [] if result.passed else [f"expectation failed: {list(result.violations)}"]
    return Op(f"{kind}-s{fixture_seed}", run, ("diagnosis.json", "diagnosis.csv"),
              check_diagnosis_json)


def fixture_ops(seed, inputs):
    seeds = [FIXTURE_SEEDS_PER_KIND * seed + j for j in range(FIXTURE_SEEDS_PER_KIND)]
    return [fixture_op(kind, s) for s in seeds for kind in FIXTURE_KINDS]


def verify_ops(seed, inputs):
    def run(out):
        return exit_failure("verify", cli_call([
            "verify", "--suite", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
            "--out", str(out)]))
    return [Op("verify", run, ("verify.json",), check_verify_json)]


WORKLOAD_OPS = {
    "diagnose-16k": diagnose_ops,
    "trajectory-condinv": trajectory_ops,
    "fixtures-csv": fixture_ops,
    "verify-suites": verify_ops,
}


# -- one pass ---------------------------------------------------------------------


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_pass(ops, pass_dir, tracer=None):
    """Run every operation once and check its outputs.

    Returns ``(wall_s, cpu_s, results)``: the timed wall and CPU seconds of
    the operations, and per operation its failure messages and the sha256 of
    each output file, which ``run.py`` compares across passes.
    """
    if tracer is None and tr.wrapped_names():
        raise RuntimeError(f"untraced pass with wrapped functions: {tr.wrapped_names()}")
    wall = cpu = 0.0
    results = []
    for op in ops:
        out = pass_dir / op.name
        out.mkdir(parents=True)
        not_converged = tracer.counts.get("probe.fit_probe.not_converged", 0) if tracer else 0
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            messages = op.run(out)
        except Exception:  # an operation that crashes is a failed operation
            messages = [traceback.format_exc(limit=3)]
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer and tracer.counts.get("probe.fit_probe.not_converged", 0) > not_converged:
            messages.append("a probe fit did not converge")
        hashes = {}
        if not messages:
            missing = [f for f in op.outputs if not (out / f).is_file()]
            if missing:
                messages = [f"missing outputs {missing}"]
            else:
                messages = op.check(out)
                hashes = {f: _sha256(out / f) for f in op.outputs}
        results.append({"op": op.name, "messages": messages, "sha256": hashes})
    return wall, cpu, results


# -- facts about the process --------------------------------------------------------


def _blas_threads():
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def facts():
    import numpy as np
    import scipy.optimize  # noqa: F401  (loads scipy's BLAS, if it has its own)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "DGDX_THREADS": os.environ.get("DGDX_THREADS"),
    }


# -- main ---------------------------------------------------------------------------


def traced_summary(tracer, wall, ops):
    steps = sum(op.steps for op in ops)
    spans = tracer.summary()
    evals = spans.get("expt.objective_and_grad", {}).get("calls", 0)
    return {
        "spans": spans,
        "counts": dict(tracer.counts),
        "trace.uncovered_share": 1.0 - tr.covered_s(tracer.spans) / wall,
        "expt.line_search.evals_per_step": evals / steps if steps else 0.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_OPS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pass-index", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--work", required=True, type=Path)
    args = ap.parse_args(argv)

    src = Path(cli.__file__).resolve().parents[1]
    if src != Path(__file__).resolve().parents[1] / "src":
        raise SystemExit(f"dgdx imported from {src}, not from this checkout's src/")
    ops = WORKLOAD_OPS[args.workload](args.seed, args.work / "inputs")
    pass_dir = args.work / f"pass{args.pass_index}"
    result = {"facts": facts(), "cli_import_s": CLI_IMPORT_S, "traced": bool(args.trace)}
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(tr.standard_hooks(tracer))
        try:
            wall, cpu, results = run_pass(ops, pass_dir, tracer)
        finally:
            tracer.uninstall()
        if tr.wrapped_names():
            raise RuntimeError(f"wrappers left installed: {tr.wrapped_names()}")
        result["trace"] = traced_summary(tracer, wall, ops)
        (args.work / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        wall, cpu, results = run_pass(ops, pass_dir)
    result.update(wall_s=wall, cpu_s=cpu, ops=results,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    (args.work / f"pass{args.pass_index}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
