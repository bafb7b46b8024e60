"""Batch front-end.

    crflow run <config.json>       execute one scenario, write artifacts
    crflow verify <manifest.json>  run a suite, aggregate the master table
    crflow list-metrics            show the pointwise metric catalog
    crflow plot <run-dir>          SVG line plots from a run's CSV

Output root: --output, else $CRFLOW_OUTPUT_ROOT, else ./crflow-out.
Exit codes: 0 pass, 1 check failure, 2 config error, 3 flow breakdown.
`run` reports any other exception as "error: <type>: <message>", exit 1.
`verify` exits with the worst code of its scenarios; a scenario whose run or
check raises is listed as an "(error)" row and counts 3 if a flow broke down
(FlowBreakdownError), else 1, and the other scenarios still run.
"""
from __future__ import annotations

import os
import sys

import click

from .errors import ConfigError, FlowBreakdownError, ManifestError
from .metrics import list_metrics
from .scenarios import bundled_manifest, run_scenario, verify_all


def _output_root(opt):
    return opt or os.environ.get("CRFLOW_OUTPUT_ROOT") or "crflow-out"


@click.group()
def main():
    """Numerical laboratory for Chern-Ricci / Kahler-Ricci flows."""


@main.command("run")
@click.argument("config", type=click.Path(exists=True))
@click.option("--output", "-o", default=None, help="output root directory")
def run_cmd(config, output):
    """Run one scenario config and write run.csv / report.json."""
    out = _output_root(output)
    try:
        report = run_scenario(config, out)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    except FlowBreakdownError as e:
        click.echo(f"flow breakdown: {e}", err=True)
        sys.exit(3)
    except Exception as e:
        click.echo(f"error: {type(e).__name__}: {e}", err=True)
        sys.exit(1)
    for c in report["checks"]:
        status = "pass" if c["satisfied"] else "FAIL"
        click.echo(f"[{status}] {c['name']}: slack={c['worst_slack']:.3e}")
    if report["broken"]:
        click.echo(f"flow breakdown: {report['breakdown']}", err=True)
        sys.exit(3)
    click.echo(("PASS" if report["pass"] else "FAIL")
               + f"  ({os.path.join(out, report['scenario'])})")
    sys.exit(0 if report["pass"] else 1)


@main.command("verify")
@click.argument("manifest", type=click.Path(), required=False)
@click.option("--output", "-o", default=None, help="output root directory")
def verify_cmd(manifest, output):
    """Run every scenario in a manifest (default: the bundled suite)."""
    out = _output_root(output)
    manifest = manifest or bundled_manifest()
    try:
        code, master = verify_all(manifest, out)
    except ManifestError as e:
        click.echo(f"manifest error: {e}", err=True)
        sys.exit(2)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    width = max((len(r["scenario"]) + len(r["check"]) for r in master["rows"]),
                default=20)
    for row in master["rows"]:
        tag = "pass" if row["pass"] else "FAIL"
        slack = "n/a" if row["slack"] is None else f"{row['slack']:.3e}"
        click.echo(f"[{tag}] {row['scenario']} :: {row['check']}"
                   f"{' ' * max(1, width - len(row['scenario']) - len(row['check']))}"
                   f"slack={slack}"
                   + (f"  ({row['detail']})" if row.get("detail") else ""))
    click.echo("PASS" if code == 0 else f"FAIL (exit {code})")
    sys.exit(code)


@main.command("list-metrics")
def list_cmd():
    """Show the pointwise metric catalog (`metrics.resolve_metric` keys).

    These are not config keys: a scenario's metrics.h is one of
    `scenarios.H_METRICS` (euclidean, poincare-disk, hyperbolic-ke)."""
    for key, doc in list_metrics().items():
        click.echo(f"{key:38s} {doc}")


@main.command("plot")
@click.argument("run_dir", type=click.Path(exists=True))
def plot_cmd(run_dir):
    """Write SVG line plots for each monitored quantity of a run."""
    from .artifacts import plot_run_csv
    written = plot_run_csv(run_dir)
    for path in written:
        click.echo(path)


if __name__ == "__main__":
    main()
