"""Golden bytes: identical flags give byte-identical output.

Each CLI digest is the md5 of the stdout of one ``ttrspec`` invocation
(help text at a fixed width of 80 columns), each matrix digest the md5
of the entries of one truncated oracle Hamiltonian at cutoff 64, signed
zeros included, and each kernel digest the md5 of the ``repr`` of every
``char_series`` result (or the text of its CoefficientPoleError), or of
every level count, on a fixed grid: the CLI digests see only polished
roots, the kernel digests every series term and every pivot.  A change
that alters any of these bytes on purpose updates the digest and says
why in CHANGES.md.  The pencil branch of each loop must give the bytes
of its generic branch, which calls the coefficient functions.
"""

import hashlib
import math
from dataclasses import replace

import pytest
from click.testing import CliRunner

from ttrspec import (DhoParams, GenRabiParams, JcParams, RabiParams, build_hamiltonian,
                     charfunc, recurrence)
from ttrspec.charfunc import SeriesStatus, char_series
from ttrspec.cli import cli
from ttrspec.errors import NumericsError
from ttrspec.models import (
    dho_recurrence,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
)

GOLDEN = [
    ("roots --model dho --kappa 0.7 --x-min -1 --x-max 6 --points 1000 --format csv",
     "efc3b47f934a6a0f8e7ce267486a0de7"),
    ("roots --model rabi-parity --kappa 0.7 --delta 0.4 --x-min -1 --x-max 4 "
     "--points 1500 --format json",
     "ed3080f9ba4e121d2358f3b367c8cd33"),
    ("roots --model rabi --kappa 0.7 --delta 0.4 --x-min -1 --x-max 2 --points 800 "
     "--format csv",
     "d98d5d9c50abaa8f28f922da08252d50"),
    ("scan --model dho --kappa 0.7 --x-min -1 --x-max 2 --points 200",
     "8b10368f353f124952fc9463a48ea51c"),
    ("scan --model rabi-parity --parity minus --kappa 0.7 --delta 0.4 --x-min -1 "
     "--x-max 1 --points 300",
     "8b6d6a1fe97459f04a584cd6d57e58ea"),
    ("flow --model rabi-parity --kappa 0.7 --sweep delta:0:0.2:3 --x-min -1 "
     "--x-max 0.3 --points 600",
     "754d65efc110c3535801cdd081054ac4"),
    ("flow --model dho --kappa 0.7 --sweep kappa:0.6:0.8:2 --x-min -1 --x-max 0.8 "
     "--points 300 --format json",
     "82540d044412dd90c2f6ae111783ef6d"),
    # six rows: each degenerate level of the delta = 0 ladder twice
    ("roots --model rabi --kappa 0.7 --delta 0 --x-min -1 --x-max 2 --points 800 "
     "--format csv",
     "74cd59ff07f271c5b0f8db2c9da2779a"),
    # x = E + 1 runs over [0, 5]: a pole at both window ends
    ("scan --model rabi --kappa 1 --delta 0.4 --x-min -1 --x-max 4 --points 997",
     "548ee2c1056e05ddd9e898ca5d13bbad"),
]

# the order and text of the flags of the solving commands
HELP = [
    ("scan", "ec21919fcc9069b40fd48857a62631bf"),
    ("roots", "5e53701e24234734d117544b296f6cf0"),
    ("flow", "cc268f4ab19acbecc892fc067095e77b"),
]

# the parameters of ``params_for`` in tests/test_oracle.py
MATRICES = [
    ("dho", DhoParams(0.7), "3032cc2d5c895505e8882caaae12e6e9"),
    ("rabi", RabiParams(0.7, 0.4), "848e461fc13215c83a6f57d37895cd18"),
    ("jc", JcParams(0.25, 0.45), "c46be5da7cb5ea09b9cd482ab7114eae"),
    ("gen-rabi", GenRabiParams(0.7, 0.4, theta=0.2),
     "d63c1e85dd461f34ae235e29d91130cf"),
    ("rabi-modified", RabiParams(0.7, 0.4), "8cd6964e4d1d46985993f762c01b75ab"),
]

# x = -1, -0.95, ..., 4, the integers exact: the coefficient zeros of dho
# at kappa = 1 and the explicit poles of rabi at delta = 0.4
KERNEL_GRID = [i / 20 - 1 for i in range(101)]

# (id, recurrence, char_series digest, levels_below digest); at delta = 0
# both rabi-parity sectors are the dho recurrence, bit for bit
KERNELS = [
    ("dho-0.7", dho_recurrence(DhoParams(0.7)),
     "316591a2102cec806763f9c9d4e71cb7", "72eeae923ef33a144e069d533078b2f9"),
    ("dho-1", dho_recurrence(DhoParams(1.0)),
     "760a072b3773750e531d4951d94007cb", "7063106105cf67028710a2483ca6caa9"),
    ("parity-plus-0.4", parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus"),
     "948fe94b5705118a92a72f9b084906a1", "e60681a9133907c82fb991d09c580293"),
    ("parity-minus-0.4", parity_rabi_recurrence(RabiParams(0.7, 0.4), "minus"),
     "e1c9e14ce6d6ac0339574ee6f81cd320", "c6e184a08c051f339fdef96427ba4d66"),
    ("parity-plus-0", parity_rabi_recurrence(RabiParams(0.7, 0.0), "plus"),
     "316591a2102cec806763f9c9d4e71cb7", "72eeae923ef33a144e069d533078b2f9"),
    ("parity-minus-0", parity_rabi_recurrence(RabiParams(0.7, 0.0), "minus"),
     "316591a2102cec806763f9c9d4e71cb7", "72eeae923ef33a144e069d533078b2f9"),
    ("rabi-0.4", rabi_displaced_recurrence(RabiParams(0.7, 0.4)),
     "8bcdfe60a7fff3da496a24a8b81d4c06", "57a76250d594986149179b42068e0e63"),
    ("rabi-0", rabi_displaced_recurrence(RabiParams(0.7, 0.0)),
     "f3d93ab0d72fe17692fc92e0c4fe7df2", "27f219cb689dfd37b4aa898f9dccda3d"),
    # walks of about 4 kappa^2 levels, pinned by the bits of the generic loops
    ("dho-3", dho_recurrence(DhoParams(3.0)),
     "14e98b805953aa95bff24edfec7d51a2", "02361a0ec3bb525746ad80a4b424b85b"),
    ("parity-plus-2-1.5", parity_rabi_recurrence(RabiParams(2.0, 1.5), "plus"),
     "888e5f06c851b25954cd1b8634518104", "0f783175a1c7ffb7bc45e1a0094ae7e5"),
    ("parity-minus-2-1.5", parity_rabi_recurrence(RabiParams(2.0, 1.5), "minus"),
     "8597a9626926336c79d5dbed20b4390d", "130ba857994ab41f52cd1543bb3eb6e9"),
]

# every recurrence that declares a pencil, each with a generic twin
PENCILS = ([(f"dho-{k}", dho_recurrence(DhoParams(k))) for k in (0.7, 1.0, 3.0, -0.7)]
           + [(f"parity-{s}-{k}-{d}", parity_rabi_recurrence(RabiParams(k, d), s))
              for s in ("plus", "minus") for k in (0.7, 2.0) for d in (0.0, 0.4, 1.5)])
PENCIL_XS = (KERNEL_GRID + [float(n) for n in range(-3, 13)]
             + [24.5, 40.25, math.nan, math.inf, -math.inf])


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except NumericsError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("args, digest", GOLDEN, ids=[a.split()[0] + str(i)
                                                      for i, (a, _) in enumerate(GOLDEN)])
def test_stdout_digest(args, digest):
    res = CliRunner().invoke(cli, args.split())
    assert res.exit_code == 0, res.output
    assert hashlib.md5(res.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, digest", HELP, ids=[h[0] for h in HELP])
def test_help_digest(command, digest):
    res = CliRunner().invoke(cli, [command, "--help"], terminal_width=80)
    assert res.exit_code == 0, res.output
    assert hashlib.md5(res.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("tag, params, digest", MATRICES, ids=[m[0] for m in MATRICES])
def test_matrix_digest(tag, params, digest):
    entries = build_hamiltonian(tag, params, 64).entries
    assert hashlib.md5(entries.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("rec, series_digest, count_digest", [k[1:] for k in KERNELS],
                         ids=[k[0] for k in KERNELS])
def test_kernel_digest(rec, series_digest, count_digest):
    counts = [rec.levels_below(x) for x in KERNEL_GRID]
    series = "\n".join(_outcome(char_series, rec, x) for x in KERNEL_GRID)
    assert _md5(series) == series_digest
    assert _md5(repr(counts)) == count_digest


# the caps, small enough that the loops stop at them
CAPS = [None, (charfunc, "_MAX_TERMS", 5, SeriesStatus.MAX_TERMS.value),
        (recurrence, "_MAX_LEVELS", 20, "did not settle")]


@pytest.mark.parametrize("cap", CAPS, ids=["uncapped", "max-terms-5", "max-levels-20"])
@pytest.mark.parametrize("rec", [p[1] for p in PENCILS], ids=[p[0] for p in PENCILS])
def test_pencil_loops_match_generic_loops(rec, cap, monkeypatch):
    """Series and count through ``rec.pencil`` give the bytes (values,
    statuses, term counts and error texts) of its twin without one."""
    if cap is not None:
        monkeypatch.setattr(*cap[:3])
    pencil = rec.pencil
    assert pencil is not None
    generic = replace(rec, a=lambda n, x: pencil.a(n, x))  # no longer a pencil's
    assert generic.pencil is None
    texts = []
    for x in PENCIL_XS:
        texts.append(_outcome(char_series, rec, x))
        assert texts[-1] == _outcome(char_series, generic, x), x
        texts.append(_outcome(rec.levels_below, x))
        assert texts[-1] == _outcome(generic.levels_below, x), x
    if cap is not None:
        assert any(cap[3] in t for t in texts)


def test_pencil_loops_call_no_coefficient():
    """The pencil is written out in place of ``a`` and ``b``, and new
    coefficients given to ``replace`` leave no pencil behind."""

    class Blind(recurrence.Pencil):
        def a(self, n, x):
            raise RuntimeError("coefficient called")

        b = a

    rec = dho_recurrence(DhoParams(0.7))
    blind = Blind(0.7, (0.0, 0.0))
    blind_rec = replace(rec, a=blind.a, b=blind.b)
    assert blind_rec.pencil is blind
    assert char_series(blind_rec, 0.3) == char_series(rec, 0.3)
    assert blind_rec.levels_below(2.5) == rec.levels_below(2.5) == 3
    for changes in ({"a": blind.a}, {"b": blind.b}):
        assert replace(rec, **changes).pencil is None
        with pytest.raises(RuntimeError, match="coefficient called"):
            char_series(replace(rec, **changes), 0.3)
