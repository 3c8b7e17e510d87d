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

from . import expt, propositions, scenarios
from .core import (
    DatasetError,
    DumpError,
    FORMAT_BINARY,
    FORMAT_CSV,
    LinearProbe,
    ROLE_TEST,
    ROLE_VALID,
    load_dump,
    save_dump,
    sniff_format,
    validate_no_label_shift,
)
from .metrics import MetricConfig, all_probes_converged, csv_header, csv_row, diagnose

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


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
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dump_checked(path):
    if not os.path.exists(path):
        _fail(EXIT_INPUT, f"dump file not found: {path}")
    try:
        return load_dump(path, sniff_format(path))
    except (DumpError, DatasetError, OSError) as exc:
        _fail(EXIT_INPUT, str(exc))


@click.group()
def main():
    """Failure-mode diagnostics for multi-domain classifiers."""


@main.command("diagnose")
@click.option("--dump", "dump_path", required=True, type=str, help="representation dump file")
@click.option("--head", "head_path", required=True, type=str, help="probe JSON for the learned head")
@click.option("--target", type=click.Choice([ROLE_TEST, ROLE_VALID]), default=ROLE_TEST)
@click.option("--out", default=".", help="output directory")
@click.option("--tol", default=0.02, show_default=True, help="label-shift tolerance gate")
def cmd_diagnose(dump_path, head_path, target, out, tol):
    """Diagnose a representation dump against a learned head."""
    ds = _load_dump_checked(dump_path)
    if not os.path.exists(head_path):
        _fail(EXIT_INPUT, f"head file not found: {head_path}")
    try:
        head = LinearProbe.load(head_path)
    except (ValueError, RecursionError) as exc:
        _fail(EXIT_INPUT, f"{head_path}: {exc}")
    shift = validate_no_label_shift(ds, tol=tol)
    if not shift.passed:
        click.echo(json.dumps(shift.to_dict(), sort_keys=True), err=True)
        _fail(EXIT_INPUT, f"label marginals differ across domains by {shift.max_deviation:.4f} > {tol}")
    try:
        diag = diagnose(ds, head, MetricConfig(target_role=target))
    except (DatasetError, ValueError) as exc:
        _fail(EXIT_INPUT, str(exc))
    out = _out_dir(out)
    _write_json(out / "diagnosis.json", diag.to_dict())
    _write_csv(out / "diagnosis.csv", csv_header(("target",)), [csv_row(diag, (target,))])
    if not all_probes_converged(diag):
        _fail(EXIT_NUMERIC, "one or more probe fits did not converge (partial report written)")
    click.echo(str(out / "diagnosis.json"))


@main.command("scenario")
@click.option("--kind", required=True, type=str)
@click.option("--seed", required=True, type=int)
@click.option("--out", default=".", help="output directory")
@click.option("--samples-per-cell", default=500, show_default=True)
@click.option("--cluster-std", default=0.08, show_default=True)
@click.option("--dim", default=2, show_default=True)
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
        diag = diagnose(ds, exp.head, MetricConfig(target_role=ROLE_TEST))
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
@click.option("--trials", type=int, help="random trials per suite; required without --instance")
@click.option("--seed", default=0, show_default=True)
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
    if trials < 1:
        _fail(EXIT_INPUT, "trials must be positive")
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
        click.option("--epochs", default=10, show_default=True),
        click.option("--steps-per-epoch", default=500, show_default=True),
        click.option("--samples-per-domain", default=1200, show_default=True),
        click.option("--seed", required=True, type=int),
        click.option("--learning-rate", default=0.2, show_default=True),
        click.option("--hidden-width", default=12, show_default=True),
        click.option("--target", type=click.Choice([ROLE_TEST, ROLE_VALID]), default=ROLE_VALID),
        click.option("--out", default=".", help="output directory"),
    )):
        command = option(command)
    return command


def _training(run, target, samples_per_domain, seed, **fields):
    """``run(raw, cfg, metric_cfg)`` on the synthetic dataset of ``seed``,
    where ``cfg`` is the TrainConfig of ``seed`` and ``fields``.  A
    DivergenceError exits 3 and a ValueError, an invalid option value, 2."""
    try:
        raw = expt.make_dataset(
            expt.SyntheticColoredSpec(seed=seed, samples_per_domain=samples_per_domain)
        )
        return run(raw, expt.TrainConfig(seed=seed, **fields), MetricConfig(target_role=target))
    except expt.DivergenceError as exc:
        _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))


@main.command("train")
@click.option("--algorithm", type=_ALG, default=expt.ALG_ERM, show_default=True)
@click.option("--beta", default=0.0, show_default=True)
@click.option("--freeze-features", is_flag=True)
@_training_options
def cmd_train(target, out, **opts):
    """Train on the synthetic multi-domain dataset, export and diagnose."""
    out = _out_dir(out)

    def run(raw, cfg, metric_cfg):
        model = expt.train(raw, cfg)
        ds = expt.export_representations(model, raw)
        diag = diagnose(ds, model.head_probe(), metric_cfg)
        return model, ds, diag, expt.model_error(model.final, raw)

    model, ds, diag, train_error = _training(run, target, **opts)
    save_dump(ds, out / "representations.bin", FORMAT_BINARY)
    model.head_probe().save(out / "head.json")
    _write_json(out / "diagnosis.json", diag.to_dict())
    _write_csv(out / "diagnosis.csv", csv_header(("target",)), [csv_row(diag, (target,))])
    _write_json(out / "training.json", {
        "objective_trace": list(model.objective_trace),
        "train_holdout_error": train_error,
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

    def run(raw, base, metric_cfg):
        return expt.sweep_beta(raw, algorithm, grid, base, metric_cfg)

    # sweep_beta sets the algorithm and beta of each point; the base must be
    # valid on its own, and group-dro rejects beta 0
    rows = _training(run, target, algorithm=expt.ALG_ERM, beta=0.0, **opts)
    _write_csv(
        out / "sweep.csv",
        csv_header(("beta_or_epoch",)),
        [csv_row(r.diagnosis, (repr(r.beta),)) for r in rows],
    )
    _write_json(out / "sweep.json", {
        "algorithm": algorithm,
        "rows": [
            {"beta": r.beta, "train_holdout_error": r.train_holdout_error,
             "diagnosis": r.diagnosis.to_dict()}
            for r in rows
        ],
    })
    click.echo(str(out / "sweep.csv"))


@main.command("trajectory")
@click.option("--algorithm", type=_ALG, default=expt.ALG_ERM, show_default=True)
@click.option("--beta", default=0.0, show_default=True)
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
        "e3_prime_series": list(result.e3_series),
        "d1_prime_series": list(result.d1_series),
        "pearson_e3_d1": result.e3_d1_correlation,
    })
    click.echo(str(out / "trajectory.csv"))


@main.command("pca")
@click.option("--dump", "dump_path", required=True, type=str)
@click.option("--out", default=".", help="output directory")
def cmd_pca(dump_path, out):
    """Project a dump onto its top-2 principal axes (plot data emission)."""
    ds = _load_dump_checked(dump_path)
    try:
        res = expt.pca2d(ds)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    out = _out_dir(out)
    rows = [
        (int(ds.domain_ids[i]), int(ds.labels[i]), repr(float(res.coords[i, 0])),
         repr(float(res.coords[i, 1])))
        for i in range(ds.num_samples)
    ]
    _write_csv(out / "pca.csv", ["domain_id", "label", "pc1", "pc2"], rows)
    _write_json(out / "variance.json", {"explained": list(res.explained)})
    click.echo(str(out / "pca.csv"))


if __name__ == "__main__":
    main()
