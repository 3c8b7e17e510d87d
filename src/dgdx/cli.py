"""Command-line front end.

Subcommands: diagnose, scenario, verify, train, sweep, trajectory, pca.
All randomness flows from --seed through named child seeds, so identical
invocations produce byte-identical output files.  Exit codes: 0 success,
2 input/validation error, 3 numeric non-convergence.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import expt, propositions, scenarios
from .core import (
    DumpError,
    FORMAT_BINARY,
    FORMAT_CSV,
    LABEL_SHIFT_TOL,
    LinearProbe,
    ROLE_TEST,
    ROLE_VALID,
    load_dump,
    save_dump,
    sniff_format,
    validate_no_label_shift,
)
from .metrics import all_probes_converged, csv_header, csv_row, diagnose

EXIT_INPUT = 2
EXIT_NUMERIC = 3

# feature values scored at once by diagnose's check of the head, so it copies no whole dump
_HEAD_CHECK_VALUES = 1 << 18


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    # RFC 4180 line endings, plain repr floats for byte stability
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\r\n")


def _out_dir(out):
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot make output directory {out}: {exc.strerror}")
    return path


def _load_dump_checked(path):
    if not os.path.exists(path):
        _fail(EXIT_INPUT, f"dump file not found: {path}")
    try:
        return load_dump(path, sniff_format(path))
    except (DumpError, OSError) as exc:
        _fail(EXIT_INPUT, str(exc))


@click.group()
def main():
    """Failure-mode diagnostics for multi-domain classifiers."""


@main.command("diagnose")
@click.option("--dump", "dump_path", required=True, type=str, help="representation dump file")
@click.option("--head", "head_path", required=True, type=str, help="probe JSON for the learned head")
@click.option("--target", type=click.Choice([ROLE_TEST, ROLE_VALID]), default=ROLE_TEST)
@click.option("--out", default=".", help="output directory")
@click.option("--tol", default=LABEL_SHIFT_TOL, show_default=True, help="label-shift tolerance gate")
def cmd_diagnose(dump_path, head_path, target, out, tol):
    """Diagnose a representation dump against a learned head."""
    if not tol >= 0:  # NaN too
        _fail(EXIT_INPUT, f"--tol must be a nonnegative number, got {tol}")
    ds = _load_dump_checked(dump_path)
    if not os.path.exists(head_path):
        _fail(EXIT_INPUT, f"head file not found: {head_path}")
    try:
        head = LinearProbe.load(head_path)
    except (OSError, ValueError, RecursionError) as exc:
        _fail(EXIT_INPUT, f"{head_path}: {exc}")
    if (head.dim, head.num_outputs) != (ds.dim, ds.num_classes):
        _fail(EXIT_INPUT, f"{head_path}: the head has dim {head.dim} and {head.num_outputs} "
                          f"outputs, but the dump has dim {ds.dim} and {ds.num_classes} classes")
    shift = validate_no_label_shift(ds, tol=tol)
    if not shift.passed:
        click.echo(json.dumps(shift.to_dict(), sort_keys=True), err=True)
        _fail(EXIT_INPUT, f"label marginals differ across domains by {shift.max_deviation:.4f} > {tol}")
    out = _out_dir(out)
    try:
        # finite parameters near the float limit can still overflow the scores
        block = max(1, _HEAD_CHECK_VALUES // ds.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, ds.num_samples, block):
                if not np.isfinite(head.scores(ds.z[s : s + block])).all():
                    _fail(EXIT_INPUT, f"{head_path}: the head's scores on the dump are not finite")
        diag = diagnose(ds, head, target)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    _write_json(out / "diagnosis.json", diag.to_dict())
    _write_csv(out / "diagnosis.csv", csv_header(("target",)), [csv_row(diag, (target,))])
    if not all_probes_converged(diag):
        _fail(EXIT_NUMERIC, "one or more probe fits did not converge (partial report written)")
    click.echo(str(out / "diagnosis.json"))


@main.command("scenario")
@click.option("--kind", required=True, type=str)
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--out", default=".", help="output directory")
@click.option("--samples-per-cell", default=scenarios.ScenarioSpec.samples_per_cell,
              show_default=True)
@click.option("--cluster-std", default=scenarios.ScenarioSpec.cluster_std, show_default=True)
@click.option("--dim", default=scenarios.ScenarioSpec.dim, show_default=True)
@click.option("--format", "fmt", type=click.Choice([FORMAT_BINARY, FORMAT_CSV]), default=FORMAT_BINARY)
@click.option("--verify", is_flag=True, help="re-diagnose the fixture and check its expectation")
def cmd_scenario(kind, seed, out, samples_per_cell, cluster_std, dim, fmt, verify):
    """Generate a synthetic failure-mode fixture (dump + expectation sidecar)."""
    try:
        spec = scenarios.ScenarioSpec(
            kind=kind,
            seed=seed,
            samples_per_cell=samples_per_cell,
            cluster_std=cluster_std,
            dim=dim,
        )
        ds, exp = scenarios.generate(spec)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    out = _out_dir(out)
    dump_path = out / ("scenario.bin" if fmt == FORMAT_BINARY else "scenario.csv")
    save_dump(ds, dump_path, fmt)
    exp.head.save(out / "head.json")
    _write_json(out / "expectation.json", exp.to_dict())
    if verify:
        diag = diagnose(ds, exp.head, ROLE_TEST)
        result = scenarios.check_expectation(diag, exp)
        _write_json(out / "verification.json", {
            "diagnosis": diag.to_dict(),
            "result": result.to_dict(),
        })
        if not result.passed:
            _fail(EXIT_INPUT, f"fixture failed its expectation: {result.violations}")
    click.echo(str(dump_path))


@main.command("verify")
@click.option("--suite", type=click.Choice(list(propositions.SUITES) + ["all"]), default="all")
@click.option("--trials", type=click.IntRange(1, propositions.MAX_TRIALS),
              help="random trials per suite; required without --instance")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", default=".", help="output directory")
@click.option("--instance", "instance_path", default=None,
              help="JSON instance file to check instead of random trials (orderings only)")
def cmd_verify(suite, trials, seed, out, instance_path):
    """Run the proposition suites; exit 0 only if no conclusion fails."""
    if instance_path is not None:
        if trials is not None:
            _fail(EXIT_INPUT, "--trials conflicts with --instance, which checks one instance")
        if suite not in ("orderings", "all"):
            _fail(EXIT_INPUT, f"--suite {suite} conflicts with --instance, "
                              "which runs the orderings check only")
        if not os.path.exists(instance_path):
            _fail(EXIT_INPUT, f"instance file not found: {instance_path}")
        try:
            with open(instance_path, "r", encoding="utf-8") as fh:
                inst = propositions.PartitionInstance.from_dict(json.load(fh))
        except (OSError, ValueError, RecursionError) as exc:
            _fail(EXIT_INPUT, f"{instance_path}: {exc}")
        rep = propositions.check_orderings(inst)
        out = _out_dir(out)
        _write_json(out / "verify.json", asdict(rep))
        if not rep.holds:
            _fail(EXIT_INPUT, "an ordering was violated on the supplied instance")
        click.echo(str(out / "verify.json"))
        return
    if trials is None:
        _fail(EXIT_INPUT, "--trials is required without --instance")
    out = _out_dir(out)
    names = list(propositions.SUITES) if suite == "all" else [suite]
    reports = {}
    failures = 0
    for name in names:
        rep = propositions.run_suite(name, trials, seed=seed)
        reports[name] = asdict(rep)
        failures += rep.failed
    _write_json(out / "verify.json", {"suites": reports, "failures": failures})
    if failures:
        _fail(EXIT_INPUT, f"{failures} conclusion failure(s); see {out / 'verify.json'}")
    click.echo(str(out / "verify.json"))


_ALG = click.Choice(list(expt.ALGORITHMS))


def _training_options(command):
    """Add the options shared by the commands that train on the synthetic dataset."""
    for option in reversed((
        click.option("--epochs", default=expt.TrainConfig.epochs, show_default=True),
        click.option("--steps-per-epoch", default=expt.TrainConfig.steps_per_epoch,
                     show_default=True),
        click.option("--samples-per-domain",
                     default=expt.SyntheticColoredSpec.samples_per_domain, show_default=True),
        click.option("--seed", required=True, type=click.IntRange(min=0)),
        click.option("--learning-rate", default=expt.TrainConfig.learning_rate,
                     show_default=True),
        click.option("--hidden-width", default=expt.TrainConfig.hidden_width, show_default=True),
        click.option("--target", type=click.Choice([ROLE_TEST, ROLE_VALID]), default=ROLE_VALID),
        click.option("--out", default=".", help="output directory"),
    )):
        command = option(command)
    return command


def _training(run, target, samples_per_domain, seed, **fields):
    """``run(raw, cfg, target)`` on the synthetic dataset of ``seed``,
    where ``cfg`` is the TrainConfig of ``seed`` and ``fields``.  A
    DivergenceError exits 3 and a ValueError, an invalid option value, 2."""
    try:
        raw = expt.make_dataset(
            expt.SyntheticColoredSpec(seed=seed, samples_per_domain=samples_per_domain)
        )
        return run(raw, expt.TrainConfig(seed=seed, **fields), target)
    except expt.DivergenceError as exc:
        _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))


@main.command("train")
@click.option("--algorithm", type=_ALG, default=expt.TrainConfig.algorithm, show_default=True)
@click.option("--beta", default=expt.TrainConfig.beta, show_default=True)
@click.option("--freeze-features", is_flag=True, help="train the head only; the feature "
              "layers keep their random initialization from --seed (not a pretrained extractor)")
@_training_options
def cmd_train(target, out, **opts):
    """Train on the synthetic multi-domain dataset, export and diagnose."""
    out = _out_dir(out)
    model, ds, diag = _training(expt.train_and_diagnose, target, **opts)
    save_dump(ds, out / "representations.bin", FORMAT_BINARY)
    model.head_probe().save(out / "head.json")
    _write_json(out / "diagnosis.json", diag.to_dict())
    _write_csv(out / "diagnosis.csv", csv_header(("target",)), [csv_row(diag, (target,))])
    _write_json(out / "training.json", {
        "objective_trace": list(model.objective_trace),
        "train_holdout_error": diag.e0_prime,
    })
    click.echo(str(out / "diagnosis.json"))


@main.command("sweep")
@click.option("--algorithm", type=_ALG, required=True)
@click.option("--betas", default=",".join(str(b) for b in expt.BETA_GRID), show_default=True,
              help="comma-separated regularization strengths")
@_training_options
def cmd_sweep(algorithm, betas, target, out, **opts):
    """One full training plus diagnosis per regularization strength."""
    try:
        grid = [float(b) for b in betas.split(",") if b.strip() != ""]
    except ValueError as exc:
        _fail(EXIT_INPUT, f"bad --betas value: {exc}")
    if not grid:
        _fail(EXIT_INPUT, "beta grid is empty")
    out = _out_dir(out)

    def run(raw, base, target):
        return expt.sweep_beta(raw, grid, base, target)

    rows = _training(run, target, algorithm=algorithm, beta=grid[0], **opts)
    _write_csv(
        out / "sweep.csv",
        csv_header(("beta_or_epoch",)),
        [csv_row(r.diagnosis, (repr(r.beta),)) for r in rows],
    )
    _write_json(out / "sweep.json", {
        "algorithm": algorithm,
        "rows": [
            {"beta": r.beta, "train_holdout_error": r.diagnosis.e0_prime,
             "diagnosis": r.diagnosis.to_dict()}
            for r in rows
        ],
    })
    click.echo(str(out / "sweep.csv"))


@main.command("trajectory")
@click.option("--algorithm", type=_ALG, default=expt.TrainConfig.algorithm, show_default=True)
@click.option("--beta", default=expt.TrainConfig.beta, show_default=True)
@_training_options
def cmd_trajectory(target, out, **opts):
    """Diagnose every per-epoch checkpoint of one training run."""
    out = _out_dir(out)
    result = _training(expt.trajectory, target, **opts)
    _write_csv(
        out / "trajectory.csv",
        csv_header(("beta_or_epoch",)),
        [csv_row(d, (str(i + 1),)) for i, d in enumerate(result.diagnoses)],
    )
    _write_json(out / "correlations.json", {
        "e3_prime_series": [d.e3_prime for d in result.diagnoses],
        "d1_prime_series": [d.d1_prime for d in result.diagnoses],
        "pearson_e3_d1": result.e3_d1_correlation,
    })
    click.echo(str(out / "trajectory.csv"))


@main.command("pca")
@click.option("--dump", "dump_path", required=True, type=str)
@click.option("--out", default=".", help="output directory")
def cmd_pca(dump_path, out):
    """Project a dump onto its top-2 principal axes (plot data emission)."""
    ds = _load_dump_checked(dump_path)
    out = _out_dir(out)
    try:
        res = expt.pca2d(ds)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    rows = (
        (int(ds.domain_ids[i]), int(ds.labels[i]), repr(float(res.coords[i, 0])),
         repr(float(res.coords[i, 1])))
        for i in range(ds.num_samples)
    )
    _write_csv(out / "pca.csv", ["domain_id", "label", "pc1", "pc2"], rows)
    _write_json(out / "variance.json", {"explained": list(res.explained)})
    click.echo(str(out / "pca.csv"))


if __name__ == "__main__":
    main()
