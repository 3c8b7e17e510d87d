"""The dgdx benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload diagnose-16k --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  This process generates the workload's
inputs and measures ``setup_s`` in fresh interpreters.  It then runs passes:
each pass is one fresh worker process (``worker.py``) that runs every
operation of the workload once, with the BLAS pool pinned to one thread.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Everything is written under
``.perfbench_work/`` in the checkout, including a full record of the run in
``.perfbench_work/records/`` that ``compare.py`` reads.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (default seed, held-out seed).  The held-out seed is kept for
# confirming a claimed gain on inputs not used while the change was written.
WORKLOADS = {
    "diagnose-16k": (0, 1009),
    "trajectory-condinv": (0, 1013),
    "fixtures-csv": (0, 1019),
    "verify-suites": (0, 1021),
}

# The line search of a trajectory makes 620 to 3,224 objective evaluations for
# the same 600 steps depending on the training seed (seeds 3 and 1), so a
# trajectory seeded by the run seed would measure the seed, not the code.  The
# workload trains from seed 0 (2,701 evaluations) on every run seed, and from
# seed 1 on its held-out seed.
TRAJECTORY_TRAINING_SEEDS = (0, 1)

SETUP_SAMPLES = 3
SETUP_PROBE = "import time, dgdx.cli; print(repr(time.monotonic()))"
MIN_PASSES = 2
# A run must end within 180 s; a pass is not started unless it is expected
# to finish, worker start-up included, within this budget.
RUN_BUDGET_S = 165.0
STARTUP_ALLOWANCE_S = 2.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env, deadline):
    """Median time from spawning a fresh interpreter until ``dgdx.cli`` is
    imported.  The median drops the one slow sample of a fresh checkout,
    whose first import writes the bytecode caches."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"importing dgdx.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def src_lines():
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def metric_units(kind):
    """``[(name, unit)]`` of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` names, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench[kind]]


def layer_metrics(trace):
    """Each per-layer metric from a traced pass: a summary figure or counter
    by its name, else the self time or call count of the span it names.  A
    layer the workload did not use reads 0."""
    spans, counts = trace["spans"], trace["counts"]
    out = {}
    for name, unit in metric_units("per_layer"):
        base, _, field = name.rpartition(".")
        if name in trace:
            value = trace[name]
        elif name in counts:
            value = counts[name]
        elif field in ("s", "self_s"):
            value = spans.get(base, {}).get("self_s", 0.0)
        else:  # calls of a span, or a counter that never fired
            value = spans.get(base, {}).get("calls", 0) if field == "calls" else 0
        out[name] = {"value": value, "unit": unit}
    return out


def input_seed(name, seed):
    """The seed handed to the worker, from which it derives the inputs."""
    if name == "trajectory-condinv":
        return TRAJECTORY_TRAINING_SEEDS[seed == WORKLOADS[name][1]]
    return seed


def run_pass(name, seed, work, index, traced, env, deadline):
    """Run one pass in a fresh worker process; return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(input_seed(name, seed)), "--pass-index", str(index),
           "--trace", str(int(traced)), "--work", str(work)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} in pass {index}")
    result = json.loads((work / f"pass{index}.json").read_text())
    if index > 0:
        shutil.rmtree(work / f"pass{index}")
    return result


def run_passes(name, seed, seconds, trace, work, env, deadline):
    """Untraced passes until ``seconds`` of operations are timed, at least
    ``MIN_PASSES``; or, traced, one untraced and one traced pass."""
    if trace:
        return [run_pass(name, seed, work, i, i == 1, env, deadline) for i in range(2)]
    passes = []
    while True:
        passes.append(run_pass(name, seed, work, len(passes), False, env, deadline))
        timed = sum(p["wall_s"] for p in passes)
        next_pass = passes[-1]["wall_s"] + STARTUP_ALLOWANCE_S
        if len(passes) >= MIN_PASSES and (timed + passes[-1]["wall_s"] > seconds
                                          or time.monotonic() + next_pass > deadline):
            return passes


def failures_of(passes):
    """Failed operations, pass by pass.  An operation whose outputs differ
    from those of its first successful run fails too."""
    first, failures = {}, []
    for index, p in enumerate(passes):
        for op in p["ops"]:
            messages = list(op["messages"])
            if not messages:
                want = first.setdefault(op["op"], op["sha256"])
                differ = sorted(f for f in want if want[f] != op["sha256"][f])
                if differ:
                    messages.append(f"repeated operation wrote different bytes: {differ}")
            if messages:
                failures.append({"pass": index, "op": op["op"], "messages": messages})
    return failures


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "dgdx" / "cli.py").is_file():
        raise BenchError(f"no dgdx sources under {ROOT / 'src'}")
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = inputs.write_inputs(seed, work / "inputs") if name == "diagnose-16k" else {}
    env = pinned_env()
    setup_s, setup_samples = (None, []) if trace else measure_setup(env, deadline)
    passes = run_passes(name, seed, seconds, trace, work, env, deadline)
    failures = failures_of(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    if trace:
        untraced, traced = passes
        summary = dict(traced["trace"], **{
            "cli.import_s": traced["cli_import_s"],
            "proc.cpu_s": traced["cpu_s"],
            "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        })
        metrics = layer_metrics(summary)
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit in metric_units("end_to_end")}
    facts = dict(passes[0]["facts"], src_lines=src_lines())
    record = {
        "workload": name, "seed": seed, "input_seed": input_seed(name, seed),
        "seconds": seconds, "trace": trace,
        "default_seed": WORKLOADS[name][0], "heldout_seed": WORKLOADS[name][1],
        "facts": facts, "input_sha256": digests, "pass_wall_s": walls,
        "pass_cpu_s": [p["cpu_s"] for p in passes if not p["traced"]],
        "setup_samples_s": setup_samples, "failures": failures, "metrics": metrics,
        "attempted": attempted, "failed": len(failures),
    }
    records = ROOT / ".perfbench_work" / "records"
    records.mkdir(exist_ok=True)
    (records / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {name} seed {seed}: {len(walls)} untraced passes, "
          f"failed_frac {len(failures)}/{attempted}")
    for failure in failures:
        print(f"  FAILED {failure}")
    for digest_name, digest in sorted(digests.items()):
        print(f"  input {digest_name} sha256 {digest}")
    print(f"  facts {json.dumps(facts, sort_keys=True)}")
    for m, v in metrics.items():
        print(f"  {m} = {v['value']!r} {v['unit']}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="dgdx benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's default seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, WORKLOADS[n][0] if args.seed is None else args.seed,
                                   args.seconds, args.trace) for n in names}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
