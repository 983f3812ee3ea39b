"""Command-line surface: solve single problems, run benchmarks, report."""

from __future__ import annotations

import os
from pathlib import Path

import click

from .geometry import StopRule
from .manifest import (
    classical_manifest,
    load_manifest,
    problem_from_record,
    schoen_manifest,
    write_manifest,
)
from .metrics import (
    REPORT_COLUMNS,
    RunRecord,
    record_from_trace,
    report_table,
    reporting_grid,
    run_benchmark,
    step_curve,
)
from .problems import CLASSICAL_FUNCTIONS, classical_problem
from .schoen import schoen_generate
from .serialize import fmt_float, read_json, write_csv, write_json, write_jsonl
from .solver import VARIANTS, SolverConfig, run


def _solver_config(variant, budget, beta, tol) -> SolverConfig:
    try:  # FloatRange lets NaN through; the library rejects it
        stop = StopRule(max_fun_evals=budget, rel_error_tol=tol)
        return SolverConfig(variant=variant, beta=beta, stop=stop)
    except ValueError as err:
        raise click.UsageError(str(err)) from None


def _load_manifest(path) -> list[dict]:
    try:
        return load_manifest(path)
    except ValueError as err:  # not JSON lines, not objects, or no records
        raise click.UsageError(str(err)) from None


def _check_outputs(outputs, inputs=()) -> None:
    """Reject, before any work, an output that would overwrite a file or has no directory.

    ``outputs`` and ``inputs`` are ``(label, path)`` pairs; an output whose
    path is ``None`` is not written and not checked.
    """
    seen = {Path(path).resolve(): f"{label} {path}" for label, path in inputs}
    for label, path in outputs:
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in seen:
            raise click.UsageError(f"the {label} {path} would overwrite the {seen[resolved]}")
        if not resolved.parent.is_dir():
            raise click.UsageError(f"the {label} {path} has no directory {resolved.parent}")
        seen[resolved] = f"{label} {path}"


def _resolve_problem(ref: str, n: int, seed: int):
    """A problem name ('branin', 'schoen') or a manifest ref 'path#index'."""
    path, _, index = ref.partition("#")
    if os.path.isfile(path):
        records = _load_manifest(path)
        try:
            i = int(index) if index else 0
        except ValueError:
            raise click.UsageError(f"manifest index must be an integer, got #{index}") from None
        if not 0 <= i < len(records):
            raise click.UsageError(f"manifest {path} has {len(records)} records, asked for #{i}")
        try:
            return problem_from_record(records[i])
        except (KeyError, TypeError, ValueError) as err:  # a record that describes no problem
            raise click.UsageError(f"manifest {path} record #{i}: {err}") from None
    if ref == "schoen":
        return schoen_generate(seed, n)
    if ref in CLASSICAL_FUNCTIONS:
        try:
            return classical_problem(ref, n)
        except ValueError as err:  # a dimension the function is not defined at
            raise click.UsageError(str(err)) from None
    known = ", ".join(sorted(CLASSICAL_FUNCTIONS))
    raise click.UsageError(f"unknown problem {ref!r}; use a manifest ref, 'schoen', or one of: {known}")


@click.group()
def main():
    """Deterministic partition-based global optimization toolkit."""


@main.command()
@click.option("--problem", required=True, help="Function name, 'schoen', or manifest ref path#index.")
@click.option("--variant", type=click.Choice(VARIANTS), default=SolverConfig.variant, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=StopRule.max_fun_evals, show_default=True, help="Maximum function evaluations.")
@click.option("--beta", type=click.FloatRange(min=0), default=SolverConfig.beta, show_default=True, help="Half-diagonal gate for local search; 0 turns it off, except on a box with every side at MAX_LEVEL (float resolution).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Seed for generated problems.")
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True, help="Dimension for generic problems.")
@click.option("--tol", type=click.FloatRange(min=0, min_open=True), default=StopRule.rel_error_tol, show_default=True, help="Relative error tolerance.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the evaluation trace (JSONL).")
def solve(problem, variant, budget, beta, seed, n, tol, out):
    """Run one problem and print the outcome."""
    path = problem.partition("#")[0]
    _check_outputs([("trace", out)], [("manifest", path)] if os.path.isfile(path) else [])
    prob = _resolve_problem(problem, n, seed)
    cfg = _solver_config(variant, budget, beta, tol)
    handle = prob.make_handle()
    trace = run(handle, cfg)
    if out:
        rows = zip(trace.eval_values, trace.eval_best)
        write_jsonl(out, ({"eval_index": i, "value": v, "best": b} for i, (v, b) in enumerate(rows, start=1)))
    record = record_from_trace(prob.name, prob.n, variant, trace, prob.known_optimum)
    click.echo(f"problem={prob.name} n={prob.n} variant={variant}")
    click.echo(f"status={trace.status} evals={trace.n_evals} best={fmt_float(trace.best_value)}")
    if prob.known_optimum is not None:
        click.echo(f"known_optimum={fmt_float(prob.known_optimum)} rel_err={fmt_float(record.rel_error)}")
    if record.importance is not None:
        click.echo("importance=" + " ".join(fmt_float(v) for v in record.importance))


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", type=click.Choice(VARIANTS), default=SolverConfig.variant, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=StopRule.max_fun_evals, show_default=True)
@click.option("--beta", type=click.FloatRange(min=0), default=SolverConfig.beta, show_default=True, help="Half-diagonal gate for local search; 0 turns it off, except on a box with every side at MAX_LEVEL (float resolution).")
@click.option("--tol", type=click.FloatRange(min=0, min_open=True), default=StopRule.rel_error_tol, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Worker processes.")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Report document path (.json).")
def bench(manifest_path, variant, budget, beta, tol, jobs, out):
    """Run a whole manifest and write the report (JSON plus flat CSV)."""
    csv_path = str(Path(out).with_suffix(".csv"))
    _check_outputs([("report", out), ("table", csv_path)], [("manifest", manifest_path)])
    records = _load_manifest(manifest_path)
    cfg = _solver_config(variant, budget, beta, tol)
    report = run_benchmark(records, cfg, parallelism=jobs)
    report.metadata["manifest"] = str(manifest_path)
    write_json(out, report.to_document())
    write_csv(csv_path, REPORT_COLUMNS, report_table(report))
    click.echo(
        f"problems={len(report.rows)} percent_solved={fmt_float(report.percent_solved)} "
        f"auoc={fmt_float(report.auoc)} "
        f"avg_evals_solved={'-' if report.average_evals_solved is None else fmt_float(report.average_evals_solved)}"
    )
    click.echo(f"report={out} table={csv_path}")


def _read_report(path, show_auoc: bool):
    """The summary line, rows and ``gamma_max`` of one report document."""
    doc = read_json(path)
    agg = doc["aggregate"]
    rows = [RunRecord(**{**r, "n": int(r["n"])}) for r in doc["rows"]]
    if not rows:
        raise ValueError("no rows")
    for r in rows:
        if not isinstance(r.solved, bool):
            raise ValueError(f"row {r.problem}: solved must be true or false")
        if isinstance(r.fevals, bool) or not isinstance(r.fevals, int):
            raise ValueError(f"row {r.problem}: fevals must be an integer")
        if r.importance is not None and not (
            isinstance(r.importance, list) and all(isinstance(v, (int, float)) for v in r.importance)
        ):
            raise ValueError(f"row {r.problem}: importance must be null or a list of numbers")
    line = (
        f"{path}: problems={agg['problems']} percent_solved={fmt_float(agg['percent_solved'])} "
        f"avg_evals_solved={'-' if agg['average_evals_solved'] is None else fmt_float(agg['average_evals_solved'])}"
    )
    line += f" mean_local_searches={fmt_float(sum(r.n_local_searches for r in rows) / len(rows))}"
    if show_auoc:
        line += f" auoc={fmt_float(agg['auoc'])}"
    return line, rows, float(agg["gamma_max"])


def _load_reports(paths, show_auoc: bool):
    reports = []
    for path in paths:
        try:
            reports.append(_read_report(path, show_auoc))
        except (ValueError, KeyError, TypeError) as err:  # not a report written by bench
            raise click.UsageError(f"cannot read report {path}: {type(err).__name__}: {err}") from None
    return reports


@main.command()
@click.option("--in", "inputs", required=True, multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--auoc", "show_auoc", is_flag=True, help="Print the AUOC of each report.")
@click.option("--oc-csv", type=click.Path(dir_okay=False), default=None, help="Write the step curve (gamma, c).")
@click.option("--importance-csv", type=click.Path(dir_okay=False), default=None)
def report(inputs, show_auoc, oc_csv, importance_csv):
    """Summarize one or more benchmark reports."""
    _check_outputs([("--oc-csv", oc_csv), ("--importance-csv", importance_csv)], [("--in report", p) for p in inputs])
    loaded = _load_reports(inputs, show_auoc)
    all_rows = []
    for line, rows, _ in loaded:
        all_rows.extend(rows)
        click.echo(line)
    if oc_csv:
        gamma_max = max(g for _, _, g in loaded)
        curve = step_curve(all_rows)
        grid = reporting_grid(all_rows, gamma_max)
        write_csv(oc_csv, ("gamma", "c"), [(g, curve.value(g)) for g in grid])
        click.echo(f"oc={oc_csv}")
    if importance_csv:
        rows_out = [(r.problem, r.variant, coord, value)
                    for r in all_rows for coord, value in enumerate(r.importance or ())]
        write_csv(importance_csv, ("problem", "variant", "coordinate", "importance"), rows_out)
        click.echo(f"importance={importance_csv}")


@main.command()
@click.option("--family", type=click.Choice(["schoen", "classical"]), default="schoen", show_default=True)
@click.option("--n", type=click.IntRange(min=1), required=True, help="Problem dimension.")
@click.option("--count", type=click.IntRange(min=1), default=None, help="Number of problems (schoen: required).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def gen(family, n, count, seed, out):
    """Generate a problem manifest."""
    _check_outputs([("manifest", out)])
    if family == "schoen":
        if count is None:
            raise click.UsageError("--count is required for the schoen family")
        records = schoen_manifest(n, count, seed)
    else:
        records = classical_manifest(n, seed, count)
    write_manifest(out, records)
    click.echo(f"wrote {len(records)} problems to {out}")


if __name__ == "__main__":
    main()
