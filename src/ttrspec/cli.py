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
one k.  Exit codes: 0 success, 2 argument error (a sweep step the model
rejects included), 3 numerical failure, 4 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import click

from .charfunc import SeriesConfig
from .errors import NumericsError
from .models import (
    ORACLE_ONLY_MODELS,
    RECURRENCE_MODELS,
    DhoParams,
    GenRabiParams,
    JcParams,
    ParityRabiParams,
    RabiParams,
)
from .spectrum import flow as run_flow
from .spectrum import resolve_spectrum, scan as run_scan
from .validation import run_validation

_ALL_MODELS = RECURRENCE_MODELS + ORACLE_ONLY_MODELS


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _params_for(model, kappa, delta, theta, omega, parity=None):
    if kappa is None and model != "jc":
        raise click.UsageError(f"--kappa is required for model '{model}'")
    try:
        if model == "dho":
            return DhoParams(kappa=kappa, omega=omega)
        if model in ("rabi", "rabi-modified"):
            return RabiParams(kappa=kappa, delta=delta, omega=omega)
        if model == "rabi-parity":
            if parity in ("plus", "minus"):
                return ParityRabiParams(kappa=kappa, delta=delta,
                                        omega=omega, parity=parity)
            return RabiParams(kappa=kappa, delta=delta, omega=omega)
        if model == "gen-rabi":
            return GenRabiParams(kappa=kappa, delta=delta, omega=omega,
                                 theta=theta)
        if model == "jc":
            if kappa is None:
                raise click.UsageError("--kappa (coupling/omega) is required")
            return JcParams(omega=omega, omega0=2.0 * delta * omega,
                            lam=kappa * omega)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    raise click.UsageError(f"unknown model '{model}'")


def _require_recurrence(model):
    if model not in RECURRENCE_MODELS:
        raise click.UsageError(
            f"model '{model}' has no recurrence coefficients; only "
            "`validate` applies to it (oracle diagonalization)")


def _check_window(x_min, x_max, points):
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise click.UsageError("--x-min and --x-max must be finite")
    if not x_min < x_max:
        raise click.UsageError("--x-min must be smaller than --x-max")
    if points < 16:
        raise click.UsageError("--points must be >= 16")


def _params_dict(params) -> dict:
    return {k: v for k, v in dataclasses.asdict(params).items()}


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
        "params": _params_dict(params),
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


def _model_options(fn):
    opts = [
        click.option("--model", required=True,
                     type=click.Choice(_ALL_MODELS), help="Model tag."),
        click.option("--kappa", type=float, default=None,
                     help="Coupling / omega."),
        click.option("--delta", type=float, default=0.0,
                     help="Level splitting / omega."),
        click.option("--theta", type=float, default=0.0,
                     help="Deformation / omega (gen-rabi only)."),
        click.option("--omega", type=float, default=1.0,
                     help="Mode frequency (default 1)."),
        click.option("--parity", type=click.Choice(["plus", "minus", "both"]),
                     default="both", show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _numeric_options(fn):
    opts = [
        click.option("--rel-tol", type=float, default=1e-14, show_default=True),
        click.option("--max-terms", type=int, default=20000, show_default=True),
        click.option("--x-tol", type=float, default=1e-10, show_default=True),
        click.option("--points", type=int, default=4000, show_default=True),
        click.option("--x-min", type=float, default=-1.0, show_default=True),
        click.option("--x-max", type=float, default=6.0, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version="0.1.0", prog_name="ttrspec")
def cli():
    """Spectra of boson-mode models from their recurrence coefficients."""


@cli.command()
@_model_options
@_numeric_options
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def scan(model, kappa, delta, theta, omega, parity, rel_tol, max_terms,
         x_tol, points, x_min, x_max, out, fmt):
    """Tabulate the characteristic function over an energy window."""
    _require_recurrence(model)
    _check_window(x_min, x_max, points)
    if model == "rabi-parity" and parity == "both":
        raise click.UsageError(
            "scan writes a single F column; choose --parity plus or minus")
    params = _params_for(model, kappa, delta, theta, omega, parity)
    cfg = SeriesConfig(rel_tol=rel_tol, max_terms=max_terms)
    from .models import recurrences_for

    rec, _ = recurrences_for(model, params, parity=parity)[0]
    try:
        sr = run_scan(rec, rec.x_of(x_min), rec.x_of(x_max), points, cfg)
    except NumericsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    if fmt == "csv":
        lines = ["x,F,status,branch_id"]
        for x, ev, bid in zip(sr.xs, sr.fs, sr.branch_ids):
            lines.append(f"{_fmt(float(x))},{_fmt(ev.value)},"
                         f"{ev.status.value},{int(bid)}")
        _write("\n".join(lines) + "\n", out)
    else:
        payload = {
            "model": model,
            "params": _params_dict(params),
            "points": [
                {"x": float(x), "F": ev.value, "status": ev.status.value,
                 "branch_id": int(bid)}
                for x, ev, bid in zip(sr.xs, sr.fs, sr.branch_ids)
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", out)


@cli.command()
@_model_options
@_numeric_options
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def roots(model, kappa, delta, theta, omega, parity, rel_tol, max_terms,
          x_tol, points, x_min, x_max, out, fmt):
    """Refine and classify the zeros inside an energy window."""
    _require_recurrence(model)
    _check_window(x_min, x_max, points)
    params = _params_for(model, kappa, delta, theta, omega,
                         parity if parity != "both" else None)
    cfg = SeriesConfig(rel_tol=rel_tol, max_terms=max_terms)
    try:
        found = resolve_spectrum(model, params, (x_min, x_max), cfg,
                                 parity=parity, points=points, x_tol=x_tol)
    except NumericsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
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
@_model_options
@_numeric_options
@click.option("--sweep", required=True,
              help="Swept parameter as name:lo:hi:steps, e.g. delta:0:1:50.")
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def flow(model, kappa, delta, theta, omega, parity, rel_tol, max_terms,
         x_tol, points, x_min, x_max, sweep, out, fmt):
    """Track the spectrum along a one-parameter sweep."""
    _require_recurrence(model)
    _check_window(x_min, x_max, points)
    parts = sweep.split(":")
    if len(parts) != 4:
        raise click.UsageError("--sweep must be name:lo:hi:steps")
    name = parts[0]
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError as exc:
        raise click.UsageError(f"bad --sweep values: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise click.UsageError("--sweep bounds must be finite")
    if name not in ("delta", "kappa", "theta", "omega"):
        raise click.UsageError("sweep parameter must be one of "
                               "delta, kappa, theta, omega")
    params = _params_for(model, kappa if kappa is not None else 1.0,
                         delta, theta, omega,
                         parity if parity != "both" else None)
    if not hasattr(params, name):
        raise click.UsageError(
            f"'{name}' is not a parameter of model '{model}'")
    cfg = SeriesConfig(rel_tol=rel_tol, max_terms=max_terms)
    try:
        result = run_flow(model, params, (name, lo, hi, steps),
                          (x_min, x_max), cfg, parity=parity,
                          points=points, x_tol=x_tol)
    except NumericsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(f"bad --sweep: {exc}") from exc

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
            "params": _params_dict(params),
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
    try:
        results = run_validation(model)
    except NumericsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
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
