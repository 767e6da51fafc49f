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
from .clusterers import ALGORITHM_IDS, Dataset
from .errors import (
    AllMissingColumn,
    CeselError,
    CommitteeTooSmall,
    DataFileError,
    InvalidK,
    ParseError,
)
from .harness import (
    accuracy,
    gen_half_ring,
    inject_missing,
    inject_noise,
    load_csv,
    sweep_dt,
)
from .independency import build_aidm, save_aidm_csv


@click.group()
def cli():
    """Cluster ensemble selection toolkit."""


def _pipeline_config(k, dt, committee, attempts, seed, aidm, consensus_mode,
                     roster=None) -> PipelineConfig:
    kwargs = {}
    if roster:
        ids = tuple(r.strip().upper() for r in roster.split(",") if r.strip())
        unknown = set(ids) - set(ALGORITHM_IDS)
        if unknown:
            raise click.UsageError(f"unknown algorithm IDs: {sorted(unknown)}")
        kwargs["roster"] = ids
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
@click.option("--data", required=True, type=click.Path(exists=True), help="CSV dataset.")
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
@click.option("--out", default=None, type=click.Path(), help="Write the run report JSON here.")
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
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--label", default=None)
@click.option("--k", required=True, type=int)
@click.option("--dt", default=0.1, type=float, show_default=True)
@click.option("--committee", default=10, type=int, show_default=True)
@click.option("--attempts", default=50, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--aidm", default="reference", show_default=True)
@click.option("--roster", default=None,
              help="Comma-separated algorithm IDs (default: all implemented).")
@click.option("--reps", default=10, type=int, show_default=True)
def baseline(method, data, label, k, dt, committee, attempts, seed, aidm, roster, reps):
    """Mean accuracy of one method over repeated seeded runs."""
    from .harness import AccuracyResult, run_method, _rep_seed

    dataset = load_csv(data, label_column=label)
    if dataset.labels is None:
        raise click.UsageError("baseline accuracy needs --label")
    cfg = _pipeline_config(k, dt, committee, attempts, seed, aidm, "weac", roster)
    scores = [
        accuracy(run_method(method, dataset, cfg, _rep_seed(seed, 0, rep)), dataset.labels)
        for rep in range(reps)
    ]
    result = AccuracyResult.from_runs(scores)
    click.echo(f"{method}: {result.mean:.2f} +/- {result.std:.2f} over {reps} runs")


@cli.command()
@click.option("--scripts", default=None, type=click.Path(exists=True),
              help="Directory of .cail scripts (default: bundled).")
@click.option("--scmt", "scmt_path", default=None, type=click.Path(exists=True),
              help="Symbol table file (default: bundled).")
@click.option("--out", required=True, type=click.Path(), help="Output CSV path.")
def aidm(scripts, scmt_path, out):
    """Compute the pairwise independency matrix from modeling scripts."""
    table = load_scmt(scmt_path) if scmt_path else assets.bundled_scmt()
    arrays = assets.load_script_arrays(scripts, table)
    save_aidm_csv(build_aidm(arrays), out)
    click.echo(f"{len(arrays)}x{len(arrays)} matrix written to {out}")


@cli.command()
@click.argument("script", type=click.Path(exists=True))
@click.option("--scmt", "scmt_path", default=None, type=click.Path(exists=True))
@click.option("--dot", "dot_out", default=None, type=click.Path(),
              help="Also write the graph in DOT format here.")
def cail(script, scmt_path, dot_out):
    """Check a modeling script and print its cell array."""
    table = load_scmt(scmt_path) if scmt_path else assets.bundled_scmt()
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
@click.option("--out", required=True, type=click.Path())
def gen_data(n, noise, seed, out):
    """Generate a labelled two-half-ring dataset as CSV."""
    dataset = gen_half_ring(n, noise, seed)
    _write_dataset_csv(dataset, out)
    click.echo(f"{dataset.n}x{dataset.d} dataset written to {out}")


@cli.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--label", default=None)
@click.option("--mode", required=True, type=click.Choice(["missing", "noise"]))
@click.option("--rate", required=True, type=float)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=click.Path())
def perturb(data, label, mode, rate, seed, out):
    """Corrupt a fraction of dataset cells and write the result."""
    dataset = load_csv(data, label_column=label)
    fn = inject_missing if mode == "missing" else inject_noise
    perturbed = fn(dataset, rate, seed)
    _write_dataset_csv(perturbed, out, raw=(mode == "missing"))
    click.echo(f"perturbed dataset written to {out}")


@cli.command("sweep-dt")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--label", default=None)
@click.option("--k", required=True, type=int)
@click.option("--dts", default="0.0,0.1,0.2,0.3", show_default=True,
              help="Comma-separated thresholds.")
@click.option("--committee", default=10, type=int, show_default=True)
@click.option("--attempts", default=50, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--reps", default=3, type=int, show_default=True)
@click.option("--out", default=None, type=click.Path())
def sweep_dt_cmd(data, label, k, dts, committee, attempts, seed, reps, out):
    """Measure accuracy/cost across diversity thresholds."""
    dataset = load_csv(data, label_column=label)
    cfg = _pipeline_config(k, 0.0, committee, attempts, seed, "reference", "weac")
    thresholds = [float(v) for v in dts.split(",") if v.strip()]
    rows = sweep_dt(dataset, cfg, thresholds, repetitions=reps)
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
    except (ParseError, AllMissingColumn, DataFileError) as exc:
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
