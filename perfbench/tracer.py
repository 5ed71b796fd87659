"""Per-layer trace: spans around the package's public call sites.

Run as a script, this is the traced child process: it wraps

    ttrspec.spectrum.char_series, scan, find_roots, resolve_spectrum, flow
    ttrspec.oracle.build_hamiltonian, eigen_lowest

with timing wrappers, runs the first ``--ops`` cases of a workload, and
prints one JSON object with the per-layer metrics and the per-operation
wall times.  Nothing under ``src/`` changes; the wrappers replace module
attributes, which is how ``resolve_spectrum``, ``flow`` and
``eigen_lowest`` reach their callees.

Spans are kept in memory as (name, parent index, start, end, info) and
reduced when the run ends: a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from collections import defaultdict

from ttrspec import oracle, spectrum
from ttrspec.charfunc import SeriesStatus
from ttrspec.errors import CoefficientPoleError

import hostspeed
import workloads

_SCAN_SIG = inspect.signature(spectrum.scan)


def _describe(name, args, kwargs, result):
    """Counts read off one call's result at the call site."""
    if name == "scan":
        points = _SCAN_SIG.bind(*args, **kwargs).arguments["points"]
        return (len(result.xs), points)
    if name == "find_roots":
        zeros = sum(r.classification is spectrum.RootKind.ZERO for r in result)
        return (zeros, len(result) - zeros)
    if name == "build_hamiltonian":
        return (result.dimension,)
    return None


class Tracer:
    """Span recorder.  Records only while ``active`` (inside an operation),
    so set-up and reference work outside the timed operations is not
    attributed to any layer."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.active = False

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, parent, start, time.perf_counter(),
                              type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, parent, start, time.perf_counter(),
                          _describe(name, args, kwargs, result))
            return result
        return traced

    def wrap_leaf(self, name, fn):
        """Cheaper wrapper for ``char_series``, the hot callee, which opens
        no spans of its own; records (terms_used, status)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans.append((name, stack[-1], start, clock(), type(exc).__name__))
                raise
            spans.append((name, stack[-1], start, clock(),
                          (result.terms_used, result.status)))
            return result
        return traced


_TARGETS = ((spectrum, ("char_series", "scan", "find_roots", "resolve_spectrum", "flow")),
            (oracle, ("build_hamiltonian", "eigen_lowest")))


def install(tracer: Tracer) -> list:
    """Wrap every traced call site; returns what ``uninstall`` restores."""
    saved = []
    for module, names in _TARGETS:
        for name in names:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            wrap = tracer.wrap_leaf if name == "char_series" else tracer.wrap
            setattr(module, name, wrap(name, fn))
    return saved


def uninstall(saved: list) -> None:
    for module, name, fn in saved:
        setattr(module, name, fn)


def self_times(spans) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def reduce(spans) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans, and the counter identities that fail."""
    self_s = self_times(spans)
    total_ms = defaultdict(float)
    self_ms = defaultdict(float)
    count = defaultdict(int)
    evals_under = defaultdict(int)
    terms = status_pole = status_max = pole_errors = 0
    scan_points = grid_points = zeros = crossings = max_dim = flow_steps = 0
    for (name, parent, start, end, info), own in zip(spans, self_s):
        total_ms[name] += (end - start) * 1e3
        self_ms[name] += own * 1e3
        count[name] += 1
        if name == "char_series":
            evals_under[spans[parent][0] if parent >= 0 else ""] += 1
            if isinstance(info, str):
                pole_errors += info == CoefficientPoleError.__name__
            else:
                terms += info[0]
                status_pole += info[1] is SeriesStatus.POLE
                status_max += info[1] is SeriesStatus.MAX_TERMS
        elif name == "scan":
            scan_points += info[0]
            grid_points += info[1]
        elif name == "find_roots":
            zeros += info[0]
            crossings += info[1]
        elif name == "build_hamiltonian":
            max_dim = max(max_dim, info[0])
        elif name == "resolve_spectrum" and parent >= 0 and spans[parent][0] == "flow":
            flow_steps += 1
    metrics = {
        "charfunc.evals": count["char_series"],
        "charfunc.terms": terms,
        "charfunc.ms": total_ms["char_series"],
        "charfunc.ns_per_term": total_ms["char_series"] * 1e6 / max(terms, 1),
        "charfunc.pole_errors": pole_errors,
        "charfunc.status_pole": status_pole,
        "charfunc.status_max_terms": status_max,
        "scan.self_ms": self_ms["scan"],
        "scan.evals": scan_points,
        "scan.grid_points": grid_points,
        "scan.points_inserted": scan_points - grid_points,
        "find_roots.self_ms": self_ms["find_roots"],
        "find_roots.evals": evals_under["find_roots"],
        "find_roots.zeros": zeros,
        "find_roots.pole_crossings": crossings,
        "flow.match_ms": self_ms["flow"],
        "flow.steps": flow_steps,
        "oracle.build_ms": total_ms["build_hamiltonian"],
        "oracle.eigen_ms": self_ms["eigen_lowest"],
        "oracle.builds": count["build_hamiltonian"],
        "oracle.max_dim": max_dim,
    }
    broken = []
    if evals_under["scan"] != scan_points:
        broken.append(f"scan.evals: {evals_under['scan']} char_series calls "
                      f"under scan != sum len(xs) = {scan_points}")
    if count["char_series"] != scan_points + evals_under["find_roots"]:
        broken.append(f"charfunc.evals {count['char_series']} != scan.evals "
                      f"{scan_points} + find_roots.evals {evals_under['find_roots']}")
    return metrics, broken


def run_traced(workload: str, seed: int, ops: int) -> dict:
    """Trace the first ``ops`` cases of the workload's pass.  ``op_s`` are
    the operations' times at the reference host speed."""
    cases = workloads.cases_for(workload, seed)[:ops]
    refs = [workloads.references_for(c) for c in cases]
    workloads.warm_up()
    tracer = Tracer()
    install(tracer)
    run_case = tracer.wrap("op", workloads.run_case)
    op_s, probes = [], [hostspeed.probe_ms()]
    for case, ref in zip(cases, refs):
        tracer.active = True
        start = time.perf_counter()
        run_case(case, ref)
        op_s.append(time.perf_counter() - start)
        tracer.active = False
        probes.append(hostspeed.probe_ms())
    metrics, broken = reduce(tracer.spans)
    return {"metrics": metrics, "broken": broken,
            "op_s": hostspeed.scaled(op_s, probes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.PASSES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(run_traced(args.workload, args.seed, args.ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
