"""Command-line front end.

Examples:

    ttrspec scan --model dho --kappa 0.7 --x-min -1 --x-max 6 \
        --points 4000 --out scan.csv
    ttrspec roots --model rabi-parity --parity both --kappa 0.7 \
        --delta 0.4 --x-min -1 --x-max 1 --format json
    ttrspec flow --model rabi-parity --kappa 0.7 --sweep delta:0:1:50 \
        --x-min -1 --x-max 4 --out flow.csv
    ttrspec validate

Output schemas are fixed so repeated runs with identical flags produce
byte-identical files: scan CSV has header ``x,F,status,branch_id``,
flow CSV has ``sweep_value,track_id,x_root,energy,parity,residual``,
and numbers carry 17 significant digits.  A flow ``track_id`` names one
(parity, level index) level, numbered in order of first appearance; a
level that leaves the window and comes back keeps its id.  Model
``rabi`` has no parity labels: each of its tracks is its k-th level for
one k.  Exit codes: 0 success, 2 argument error (any argument the
library rejects with ValueError, such as a non-finite bound or a sweep
step the model rejects, and a model flag the model does not read,
included), 3 numerical failure, 4 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from .errors import NumericsError
from .models import (
    ORACLE_ONLY_MODELS,
    RECURRENCE_MODELS,
    DhoParams,
    RabiParams,
    recurrences_for,
)
from .spectrum import flow as run_flow
from .spectrum import resolve_spectrum, scan as run_scan
from .validation import run_validation

_ALL_MODELS = RECURRENCE_MODELS + ORACLE_ONLY_MODELS


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _params_for(model, kappa, delta, parity):
    if kappa is None:
        raise click.UsageError(f"--kappa is required for model '{model}'")
    if model == "dho" and delta != 0.0:
        raise click.UsageError("--delta does not apply to model 'dho'")
    if model != "rabi-parity" and parity != "both":
        raise click.UsageError(f"--parity does not apply to model '{model}'")
    return DhoParams(kappa) if model == "dho" else RabiParams(kappa, delta)


def _require_recurrence(model):
    if model not in RECURRENCE_MODELS:
        raise click.UsageError(
            f"model '{model}' has no recurrence coefficients; only "
            "`validate` applies to it (oracle diagonalization)")


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parity_str(p) -> str:
    return "none" if p is None else f"{p:+d}"


def _roots_payload(model, params, roots) -> dict:
    return {
        "model": model,
        "params": dataclasses.asdict(params),
        "roots": [
            {
                "x": r.x,
                "energy": r.energy,
                "parity": r.parity,
                "residual": r.residual,
                "bracket": [r.bracket[0], r.bracket[1]],
                "classification": r.classification.value,
            }
            for r in roots
        ],
    }


def _solve_options(fn):
    opts = [
        click.option("--model", required=True,
                     type=click.Choice(_ALL_MODELS), help="Model tag."),
        click.option("--kappa", type=float, default=None,
                     help="Coupling / omega."),
        click.option("--delta", type=float, default=0.0,
                     help="Level splitting / omega (rabi, rabi-parity)."),
        click.option("--parity", type=click.Choice(["plus", "minus", "both"]),
                     default="both", show_default=True,
                     help="Reflection sector (rabi-parity)."),
        click.option("--points", type=int, default=4000, show_default=True),
        click.option("--x-min", type=float, default=-1.0, show_default=True),
        click.option("--x-max", type=float, default=6.0, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


class _Command(click.Command):
    """A command whose ValueError is an argument error (exit 2, printed
    with the command's usage line), and whose NumericsError is a
    numerical failure (exit 3)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NumericsError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Cli(click.Group):
    command_class = _Command


@click.group(cls=_Cli)
@click.version_option(version="0.1.0", prog_name="ttrspec")
def cli():
    """Spectra of boson-mode models from their recurrence coefficients."""


@cli.command()
@_solve_options
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def scan(model, kappa, delta, parity, points, x_min, x_max, out, fmt):
    """Tabulate the characteristic function over an energy window."""
    _require_recurrence(model)
    if model == "rabi-parity" and parity == "both":
        raise click.UsageError(
            "scan writes a single F column; choose --parity plus or minus")
    params = _params_for(model, kappa, delta, parity)
    rec, _ = recurrences_for(model, params, parity=parity)[0]
    sr = run_scan(rec, rec.x_of(x_min), rec.x_of(x_max), points)
    if fmt == "csv":
        lines = ["x,F,status,branch_id"]
        for x, ev, bid in zip(sr.xs, sr.fs, sr.branch_ids):
            lines.append(f"{_fmt(float(x))},{_fmt(ev.value)},"
                         f"{ev.status.value},{int(bid)}")
        _write("\n".join(lines) + "\n", out)
    else:
        payload = {
            "model": model,
            "params": dataclasses.asdict(params),
            "parity": parity if model == "rabi-parity" else None,
            "points": [
                {"x": float(x), "F": ev.value, "status": ev.status.value,
                 "branch_id": int(bid)}
                for x, ev, bid in zip(sr.xs, sr.fs, sr.branch_ids)
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", out)


@cli.command()
@_solve_options
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def roots(model, kappa, delta, parity, points, x_min, x_max, out, fmt):
    """Refine and classify the zeros inside an energy window."""
    _require_recurrence(model)
    params = _params_for(model, kappa, delta, parity)
    found = resolve_spectrum(model, params, (x_min, x_max),
                             parity=parity, points=points)
    if fmt == "json":
        _write(json.dumps(_roots_payload(model, params, found), indent=2) + "\n", out)
    else:
        lines = ["x_root,energy,parity,residual,bracket_lo,bracket_hi,classification"]
        for r in found:
            lines.append(
                f"{_fmt(r.x)},{_fmt(r.energy)},{_parity_str(r.parity)},"
                f"{_fmt(r.residual)},{_fmt(r.bracket[0])},{_fmt(r.bracket[1])},"
                f"{r.classification.value}")
        _write("\n".join(lines) + "\n", out)


@cli.command()
@_solve_options
@click.option("--sweep", required=True,
              help="Swept parameter as name:lo:hi:steps, e.g. delta:0:1:50.")
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def flow(model, kappa, delta, parity, points, x_min, x_max, sweep, out, fmt):
    """Track the spectrum along a one-parameter sweep."""
    _require_recurrence(model)
    parts = sweep.split(":")
    if len(parts) != 4:
        raise click.UsageError("--sweep must be name:lo:hi:steps")
    name = parts[0]
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError as exc:
        raise click.UsageError(f"bad --sweep values: {exc}") from exc
    if name == "kappa" and kappa is None:
        kappa = lo  # every step sets kappa, so the sweep's start stands in
    params = _params_for(model, kappa, delta, parity)
    result = run_flow(model, params, (name, lo, hi, steps),
                      (x_min, x_max), parity=parity, points=points)

    rows = []
    for tid, track in enumerate(result.tracks):
        for i, r in track:
            rows.append((i, tid, r))
    rows.sort(key=lambda t: (t[0], t[1]))
    if fmt == "csv":
        lines = ["sweep_value,track_id,x_root,energy,parity,residual"]
        for i, tid, r in rows:
            lines.append(
                f"{_fmt(result.sweep_values[i])},{tid},{_fmt(r.x)},"
                f"{_fmt(r.energy)},{_parity_str(r.parity)},{_fmt(r.residual)}")
        _write("\n".join(lines) + "\n", out)
    else:
        payload = {
            "model": model,
            # every step sets the swept field, so report the sweep's start
            "params": {**dataclasses.asdict(params), name: lo},
            "sweep": {"name": name, "lo": lo, "hi": hi, "steps": steps},
            "tracks": [
                {
                    "track_id": tid,
                    "points": [
                        {"sweep_value": result.sweep_values[i], "x": r.x,
                         "energy": r.energy, "parity": r.parity,
                         "residual": r.residual}
                        for i, r in track
                    ],
                }
                for tid, track in enumerate(result.tracks)
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", out)


@cli.command()
@click.option("--model", type=click.Choice(_ALL_MODELS + ("bessel",)),
              default=None, help="Restrict the battery to one model.")
@click.option("--out", type=click.Path(), default=None,
              help="Also write a JSON report.")
def validate(model, out):
    """Run the oracle/property battery; exit 4 if any check fails."""
    results = run_validation(model)
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        click.echo(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.ok else 1
    if out:
        payload = [{"name": r.name, "ok": r.ok, "detail": r.detail}
                   for r in results]
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        sys.exit(4)


def main():
    cli()


if __name__ == "__main__":
    main()
