"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 pipeline failure
(too few committee admissions).
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import assets
from .cail import build_graph, export_dot, load_scmt, load_script, to_graph_array
from .consensus import PipelineConfig, run_ces
from .clusterers import Dataset
from .errors import (
    AllMissingColumn,
    CeselError,
    CommitteeTooSmall,
    DataFileError,
    EmptyGraph,
    InvalidK,
    ParseError,
    StructureError,
    UnknownSymbol,
)
from .harness import (
    ExperimentSpec,
    accuracy,
    gen_half_ring,
    inject_missing,
    inject_noise,
    load_csv,
    run_experiment,
    sweep_dt,
)
from .independency import build_aidm, save_aidm_csv


# A directory given for a file (or a file for a directory) is a usage error
# caught while parsing, before any work starts.
_INPUT_FILE = click.Path(exists=True, dir_okay=False)
_OUTPUT_FILE = click.Path(dir_okay=False)


@click.group()
def cli():
    """Cluster ensemble selection toolkit."""


def _pipeline_config(k, dt, committee, attempts, seed, aidm, consensus_mode,
                     roster=None) -> PipelineConfig:
    kwargs = {}
    if roster:
        kwargs["roster"] = tuple(r.strip().upper() for r in roster.split(",") if r.strip())
    try:
        return PipelineConfig(
            k_final=k,
            d_threshold=dt,
            committee_target=committee,
            max_attempts=attempts,
            seed=seed,
            aidm_source=aidm,
            consensus=consensus_mode,
            **kwargs,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


@cli.command()
@click.option("--data", required=True, type=_INPUT_FILE, help="CSV dataset.")
@click.option("--label", default=None, help="Name of the class column, if any.")
@click.option("--k", required=True, type=int, help="Final cluster count.")
@click.option("--dt", default=0.1, type=float, show_default=True, help="Diversity threshold.")
@click.option("--committee", default=10, type=int, show_default=True, help="Committee target size.")
@click.option("--attempts", default=50, type=int, show_default=True, help="Max candidate runs.")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--aidm", default="reference", show_default=True,
              help="Independency matrix: 'reference', 'computed', or a CSV path.")
@click.option("--consensus", "consensus_mode", default="weac", show_default=True,
              type=click.Choice(["weac", "eac"]))
@click.option("--roster", default=None,
              help="Comma-separated algorithm IDs (default: all implemented).")
@click.option("--out", default=None, type=_OUTPUT_FILE, help="Write the run report JSON here.")
def run(data, label, k, dt, committee, attempts, seed, aidm, consensus_mode, roster, out):
    """Run the selection pipeline on a dataset."""
    dataset = load_csv(data, label_column=label)
    cfg = _pipeline_config(k, dt, committee, attempts, seed, aidm, consensus_mode, roster)
    partition, report = run_ces(dataset, cfg)
    if dataset.labels is not None:
        click.echo(f"accuracy: {accuracy(partition, dataset.labels):.2f}%")
    click.echo(f"committee size: {report.n_ce} (attempts: {report.attempts})")
    if out:
        Path(out).write_text(report.to_json(indent=2) + "\n")
        click.echo(f"report written to {out}")
    else:
        click.echo(report.to_json())


@cli.command()
@click.option("--method", required=True, type=click.Choice(["kmeans", "spectral", "eac", "weac"]))
@click.option("--data", required=True, type=_INPUT_FILE)
@click.option("--label", default=None)
@click.option("--k", required=True, type=int)
@click.option("--dt", default=0.1, type=float, show_default=True)
@click.option("--committee", default=10, type=int, show_default=True)
@click.option("--attempts", default=50, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--aidm", default="reference", show_default=True)
@click.option("--roster", default=None,
              help="Comma-separated algorithm IDs (default: all implemented).")
@click.option("--reps", default=10, type=click.IntRange(min=1), show_default=True)
def baseline(method, data, label, k, dt, committee, attempts, seed, aidm, roster, reps):
    """Mean accuracy of one method over repeated seeded runs."""
    dataset = load_csv(data, label_column=label)
    if dataset.labels is None:
        raise click.UsageError("baseline accuracy needs --label")
    cfg = _pipeline_config(k, dt, committee, attempts, seed, aidm, "weac", roster)
    spec = ExperimentSpec(dataset, Path(data).stem, cfg, repetitions=reps, methods=(method,))
    (row,) = run_experiment(spec)["rows"]
    click.echo(f"{method}: {row['mean']:.2f} +/- {row['std']:.2f} over {reps} runs")


def _symbol_table(path):
    """The symbol table at ``path``, or the bundled one; malformed is a data error."""
    if path is None:
        return assets.bundled_scmt()
    try:
        return load_scmt(path)
    except ValueError as exc:
        raise DataFileError(f"symbol table {path}: {exc}") from None


@cli.command()
@click.option("--scripts", default=None, type=click.Path(exists=True, file_okay=False),
              help="Directory of .cail scripts (default: bundled).")
@click.option("--scmt", "scmt_path", default=None, type=_INPUT_FILE,
              help="Symbol table file (default: bundled).")
@click.option("--out", required=True, type=_OUTPUT_FILE, help="Output CSV path.")
def aidm(scripts, scmt_path, out):
    """Compute the pairwise independency matrix from modeling scripts."""
    table = _symbol_table(scmt_path)
    arrays = assets.load_script_arrays(scripts, table)
    save_aidm_csv(build_aidm(arrays), out)
    click.echo(f"{len(arrays)}x{len(arrays)} matrix written to {out}")


@cli.command()
@click.argument("script", type=_INPUT_FILE)
@click.option("--scmt", "scmt_path", default=None, type=_INPUT_FILE)
@click.option("--dot", "dot_out", default=None, type=_OUTPUT_FILE,
              help="Also write the graph in DOT format here.")
def cail(script, scmt_path, dot_out):
    """Check a modeling script and print its cell array."""
    table = _symbol_table(scmt_path)
    parsed = load_script(script, table)
    graph = build_graph(parsed)
    array = to_graph_array(graph)
    click.echo(f"{parsed.name}: {len(parsed.tokens)} tokens, "
               f"{len(graph.nodes)} nodes, {len(graph.edges)} edges")
    for cell in array.cells:
        click.echo("  [" + ", ".join(cell) + "]")
    if dot_out:
        Path(dot_out).write_text(export_dot(graph))
        click.echo(f"graph written to {dot_out}")


@cli.command("gen-data")
@click.option("--n", default=400, type=int, show_default=True)
@click.option("--noise", default=0.05, type=float, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=_OUTPUT_FILE)
def gen_data(n, noise, seed, out):
    """Generate a labelled two-half-ring dataset as CSV."""
    try:
        dataset = gen_half_ring(n, noise, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    _write_dataset_csv(dataset, out)
    click.echo(f"{dataset.n}x{dataset.d} dataset written to {out}")


@cli.command()
@click.option("--data", required=True, type=_INPUT_FILE)
@click.option("--label", default=None)
@click.option("--mode", required=True, type=click.Choice(["missing", "noise"]))
@click.option("--rate", required=True, type=float)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=_OUTPUT_FILE)
def perturb(data, label, mode, rate, seed, out):
    """Corrupt a fraction of dataset cells and write the result."""
    if not 0.0 <= rate < 1.0:
        raise click.UsageError(f"--rate {rate} outside [0, 1)")
    dataset = load_csv(data, label_column=label)
    fn = inject_missing if mode == "missing" else inject_noise
    perturbed = fn(dataset, rate, seed)
    _write_dataset_csv(perturbed, out, raw=(mode == "missing"))
    click.echo(f"perturbed dataset written to {out}")


@cli.command("sweep-dt")
@click.option("--data", required=True, type=_INPUT_FILE)
@click.option("--label", default=None)
@click.option("--k", required=True, type=int)
@click.option("--dts", default="0.0,0.1,0.2,0.3", show_default=True,
              help="Comma-separated thresholds.")
@click.option("--committee", default=10, type=int, show_default=True)
@click.option("--attempts", default=50, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--reps", default=3, type=click.IntRange(min=1), show_default=True)
@click.option("--out", default=None, type=_OUTPUT_FILE)
def sweep_dt_cmd(data, label, k, dts, committee, attempts, seed, reps, out):
    """Measure accuracy/cost across diversity thresholds."""
    try:
        thresholds = [float(v) for v in dts.split(",") if v.strip()]
    except ValueError:
        raise click.UsageError(f"--dts {dts!r} is not a list of numbers") from None
    if not thresholds:
        raise click.UsageError("--dts names no threshold")
    # One config per threshold, so a threshold outside [0, 1] fails here.
    configs = [_pipeline_config(k, dt, committee, attempts, seed, "reference", "weac")
               for dt in thresholds]
    dataset = load_csv(data, label_column=label)
    rows = sweep_dt(dataset, configs[0], thresholds, repetitions=reps)
    text = json.dumps(rows, indent=2)
    if out:
        Path(out).write_text(text + "\n")
        click.echo(f"sweep written to {out}")
    else:
        click.echo(text)


def _write_dataset_csv(dataset: Dataset, out: str, raw: bool = True) -> None:
    matrix = dataset.raw if raw else dataset.samples
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = list(dataset.feature_names) or [f"f{i}" for i in range(dataset.d)]
        header = names + (["label"] if dataset.labels is not None else [])
        writer.writerow(header)
        for i in range(dataset.n):
            row = ["" if np.isnan(v) else repr(float(v)) for v in matrix[i]]
            if dataset.labels is not None:
                row.append(int(dataset.labels[i]))
            writer.writerow(row)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help and friends
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except InvalidK as exc:
        click.echo(f"usage error: {exc}", err=True)
        return 1
    except (ParseError, AllMissingColumn, DataFileError,
            UnknownSymbol, StructureError, EmptyGraph) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except CommitteeTooSmall as exc:
        click.echo(f"pipeline failure: {exc}", err=True)
        return 3
    except CeselError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
