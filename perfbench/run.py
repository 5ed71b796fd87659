"""ttrspec benchmark: one closed-loop caller per workload, results checked.

    python3 perfbench/run.py --workload window --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
that root, never from an installed copy.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a timed loop over the workload's seeded pass of cases
that runs for ``--seconds`` seconds and at least one whole pass.  Every
operation's Zero roots are matched against reference levels.  Every timed
operation and set-up child sits between two host-speed probes
(``hostspeed.py``), and the gated times are reported at the reference
host speed, with their wall values printed beside them.

``--trace 1`` measures the per-layer metrics: ``-X importtime`` of the
CLI in fresh interpreters, then the first half of the pass run once
untraced here and once traced in a child process (``tracer.py``), whose
wall time against the untraced run is ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit and sample count, and the
environment.  See README.md in this directory for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import NoReturn

import hostspeed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: BLAS threads, pinned before numpy loads (at most nproc)
BLAS_THREADS = 1
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("window", "sweep", "crosscheck")

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "levels_per_s": "1/s",
    "levels_found_frac": "frac",
    "roots_true_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.import_numpy_ms": "ms", "cli.import_click_ms": "ms",
    "charfunc.evals": "count", "charfunc.terms": "count", "charfunc.ms": "ms",
    "charfunc.ns_per_term": "ns", "charfunc.pole_errors": "count",
    "charfunc.status_pole": "count", "charfunc.status_max_terms": "count",
    "scan.self_ms": "ms", "scan.evals": "count", "scan.grid_points": "count",
    "scan.points_inserted": "count",
    "find_roots.self_ms": "ms", "find_roots.evals": "count",
    "find_roots.zeros": "count", "find_roots.pole_crossings": "count",
    "flow.match_ms": "ms", "flow.steps": "count",
    "oracle.build_ms": "ms", "oracle.eigen_ms": "ms", "oracle.builds": "count",
    "oracle.max_dim": "count",
    "trace.overhead_frac": "frac",
}


def _fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an export that is not a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion, killed after CHILD_TIMEOUT_S.

    The wait blocks in waitpid, so its end is timed to the microsecond
    (``subprocess.run(timeout=...)`` polls in steps of up to 50 ms).
    """
    proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT, **kwargs)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh interpreter: import ttrspec.cli and return one warm-up call.

    Returns the wall times (s) and the host-speed probes (ms) taken
    before the first child and after each.
    """
    argv = [sys.executable, "-c", "import ttrspec.cli, workloads; workloads.warm_up()"]
    wall, probes = [], [hostspeed.probe_ms()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _run_child(argv, stdout=subprocess.DEVNULL).check_returncode()
        wall.append(time.perf_counter() - start)
        probes.append(hostspeed.probe_ms())
    return wall, probes


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def measure_imports() -> dict[str, float]:
    """Cumulative import times (ms) of ttrspec (package + cli), numpy, click."""
    keys = {"cli.import_ms": ("ttrspec", "ttrspec.cli"),
            "cli.import_numpy_ms": ("numpy",), "cli.import_click_ms": ("click",)}
    samples = {k: [] for k in keys}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _run_child([sys.executable, "-X", "importtime", "-c",
                           "import ttrspec.cli"], stderr=subprocess.PIPE, text=True)
        proc.check_returncode()
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative[m.group(2).strip()] = int(m.group(1)) / 1e3
        for key, modules in keys.items():
            samples[key].append(sum(cumulative[name] for name in modules))
    return {k: statistics.median(v) for k, v in samples.items()}


def run_timed(workloads, cases, refs, seconds: float):
    """Cycle the pass until ``seconds`` have elapsed and every case ran once.

    Returns the per-operation wall latencies (s), the host-speed probes
    (ms) taken before the first operation and after each, each
    operation's solves (None where it raised) and the failure messages.
    """
    latencies, outputs, errors = [], [], []
    probes = [hostspeed.probe_ms()]
    start = time.perf_counter()
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        case, ref = cases[i % len(cases)], refs[i % len(cases)]
        t0 = time.perf_counter()
        try:
            solves = workloads.run_case(case, ref)
        except Exception as exc:  # an operation that raises is a failure
            solves = None
            errors.append(f"{case}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        probes.append(hostspeed.probe_ms())
        outputs.append(solves)
        i += 1
    return latencies, probes, outputs, errors


def _per_case_ms(times: list[float], n_cases: int) -> list[float]:
    """Each case of the pass once, at the median of its repeats (ms), so
    the partial last pass of the loop does not shift the mix between runs."""
    by_case = [[] for _ in range(n_cases)]
    for i, t in enumerate(times):
        by_case[i % n_cases].append(1e3 * t)
    return [statistics.median(v) for v in by_case]


def end_to_end(workloads, workload: str, seed: int, seconds: float):
    setup_wall, setup_probes = measure_setup()
    setup = hostspeed.scaled(setup_wall, setup_probes)
    cases = workloads.cases_for(workload, seed)
    refs = [workloads.references_for(c) for c in cases]
    workloads.warm_up()
    latencies, probes, outputs, errors = run_timed(workloads, cases, refs, seconds)

    # Quality over the first pass (repeats of a case give the same roots).
    reference = found = roots = 0
    for solves in outputs[:len(cases)]:
        for solve in solves or ():
            n_ref, n_found, n_roots = workloads.match(solve)
            reference += n_ref
            found += n_found
            roots += n_roots
    ms = _per_case_ms(hostspeed.scaled(latencies, probes), len(cases))
    pass_s = sum(ms) / 1e3
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    beyond = sum(t > p90 for t in ms)
    values = {
        "setup_s": statistics.median(setup),
        "call_p50_ms": statistics.median(ms),
        "levels_per_s": found / pass_s,
        "levels_found_frac": found / reference if reference else 0.0,
        "roots_true_frac": found / roots if roots else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_ms = _per_case_ms(latencies, len(cases))
    lines = [
        f"setup_s {values['setup_s']:.4f} s (median of {len(setup)} fresh interpreters "
        f"at reference speed; wall {statistics.median(setup_wall):.4f} s)",
        f"call_p50_ms {values['call_p50_ms']:.2f} ms (n={len(cases)} cases at "
        f"their median latency, {len(latencies)} operations, at reference speed; "
        f"wall {statistics.median(wall_ms):.2f} ms)",
        f"call_p90_ms {p90:.2f} ms (n={len(cases)} cases, {beyond} beyond; printed only"
        + (", fewer than 10 samples beyond it)" if beyond < 10 else ")"),
        f"levels_per_s {values['levels_per_s']:.3f} 1/s ({found} levels found "
        f"in one pass of {pass_s:.2f} s at median case latency and reference speed; "
        f"wall {found / (sum(wall_ms) / 1e3):.3f} 1/s)",
        f"host_probe_ms {statistics.median(probes):.2f} ms (median of {len(probes)} "
        f"probes; {hostspeed.REF_MS} ms at reference speed)",
        f"levels_found_frac {values['levels_found_frac']:.5f} "
        f"({found} of {reference} reference levels, first pass)",
        f"levels_missed_frac {1 - values['levels_found_frac']:.5f} "
        f"({reference - found} of {reference} reference levels missed)",
        f"roots_true_frac {values['roots_true_frac']:.5f} "
        f"({found} of {roots} Zero roots match a reference level)",
        f"levels_spurious_frac {1 - values['roots_true_frac']:.5f} "
        f"({roots - found} of {roots} Zero roots spurious)",
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (benchmark process)",
    ]
    # A program that loses most levels, or reports levels that are not
    # there, is wrong; the known misses at the seed stay well inside this.
    correct = (not errors and roots == found and reference > 0
               and found >= 0.5 * reference)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return correct, len(latencies), len(errors), metrics, lines, errors


def per_layer(workloads, workload: str, seed: int):
    imports = measure_imports()
    cases = workloads.cases_for(workload, seed)
    ops = (len(cases) + 1) // 2
    refs = [workloads.references_for(c) for c in cases[:ops]]
    workloads.warm_up()
    errors = []
    untraced, probes = [], [hostspeed.probe_ms()]
    for case, ref in zip(cases[:ops], refs):
        t0 = time.perf_counter()
        try:
            workloads.run_case(case, ref)
        except Exception as exc:
            errors.append(f"{case}: {type(exc).__name__}: {exc}")
        untraced.append(time.perf_counter() - t0)
        probes.append(hostspeed.probe_ms())
    untraced = hostspeed.scaled(untraced, probes)
    proc = _run_child(
        [sys.executable, os.path.join(HERE, "tracer.py"), "--workload", workload,
         "--seed", str(seed), "--ops", str(ops)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        errors.append(f"traced child exited {proc.returncode}: {proc.stderr[-2000:]}")
        traced = {"metrics": {}, "broken": [], "op_s": untraced}
    else:
        traced = json.loads(proc.stdout.splitlines()[-1])
    errors += [f"counter identity broken: {b}" for b in traced["broken"]]
    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    values.update(traced["metrics"])
    values.update(imports)
    values["trace.overhead_frac"] = sum(traced["op_s"]) / sum(untraced) - 1.0
    lines = [f"{k} {values[k]:.6g} {u} (traced: first {ops} of {len(cases)} cases)"
             for k, u in PER_LAYER_UNITS.items()]
    correct = not errors
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return correct, ops, len(errors), metrics, lines, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ttrspec benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ttrspec", "__init__.py")):
        _fail(f"no ttrspec sources under {SRC}; run from the repository root")
    _pin_blas()
    sys.path[:0] = [SRC, HERE]
    import numpy
    import ttrspec
    if not os.path.abspath(ttrspec.__file__).startswith(SRC + os.sep):
        _fail(f"imported ttrspec from {ttrspec.__file__}, not from {SRC}")
    import workloads

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "python": platform.python_version(),
           "numpy": numpy.__version__, "git_sha": _git_sha()}
    print("env " + json.dumps(env))
    if args.trace:
        result = per_layer(workloads, args.workload, args.seed)
    else:
        result = end_to_end(workloads, args.workload, args.seed, args.seconds)
    correct, attempted, failed, metrics, lines, errors = result
    for line in lines:
        print("metric " + line)
    for err in errors:
        print("error " + err)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
