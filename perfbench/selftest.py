"""Self-tests of the benchmark's own machinery (not of the package).

    python3 perfbench/selftest.py

Checks, on small inputs: self times from nested spans, the scaling of
wall times by host-speed probes, the reference matching rules, and the exact counter identities of a traced run,

    scan.evals      == sum of len(ScanResult.xs)
    charfunc.evals  == scan.evals + find_roots.evals

on one case of each workload.  Exits 1 on the first failed group.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Case, Solve  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, msg: str) -> None:
    if not cond:
        FAILURES.append(msg)


def test_self_times() -> None:
    spans = [("op", -1, 0.0, 10.0, None),
             ("scan", 0, 1.0, 6.0, None),
             ("char_series", 1, 2.0, 3.0, None),
             ("char_series", 1, 4.0, 5.5, None),
             ("find_roots", 0, 7.0, 9.0, None)]
    got = tracing.self_times(spans)
    check(got == [3.0, 2.5, 1.0, 1.5, 2.0], f"self_times {got}")


def test_scaled() -> None:
    ref = hostspeed.REF_MS
    got = hostspeed.scaled([1.0, 2.0, 0.5], [ref, ref, 2 * ref, 3 * ref])
    check(got == [1.0, 2.0 / 1.5, 0.5 / 2.5], f"scaled {got}")
    check(hostspeed.probe_ms() > 0, "probe_ms not positive")


def test_match() -> None:
    # parity is compared only where both sides are labeled
    check(workloads.match(Solve([(1.0, 1)], [(1.0, -1)])) == (1, 0, 1),
          "parity mismatch must not match")
    check(workloads.match(Solve([(1.0, 1), (1.0, -1)], [(1.0, None), (1.0, None)]))
          == (2, 2, 2), "degenerate unlabeled pair must match both roots")
    check(workloads.match(Solve([(1.0 + 2e-6, None)], [(1.0, None)])) == (1, 0, 1),
          "match tolerance is 1e-6")
    check(workloads.match(Solve([(1.0, None)], [(1.0, None), (1.0 + 1e-7, None)]))
          == (2, 1, 1), "one root matches one level")


def test_identities() -> None:
    cases = {
        "window": Case("dho", 0.7, 0.0, (-1.0, 2.0), 200),
        "sweep": Case("rabi-parity", 0.7, 0.2, (-1.0, 2.0), 100,
                      sweep=("delta", 0.2, 0.4, 3)),
        "crosscheck": workloads._crosscheck_case(0.5, 0.2),
    }
    for name, case in cases.items():
        refs = workloads.references_for(case)
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            tracer.active = True
            solves = tracer.wrap("op", workloads.run_case)(case, refs)
        finally:
            tracing.uninstall(saved)
        metrics, broken = tracing.reduce(tracer.spans)
        check(not broken, f"{name}: {broken}")
        check(metrics["scan.evals"] >= metrics["scan.grid_points"] > 0,
              f"{name}: scan counters {metrics}")
        check(all(n_found for n_found in
                  (workloads.match(s)[1] for s in solves)), f"{name}: no level found")
        steps = case.sweep[3] if case.sweep else 0
        check(metrics["flow.steps"] == steps, f"{name}: flow.steps {metrics['flow.steps']}")
        check((metrics["oracle.builds"] >= 2) == case.crosscheck,
              f"{name}: oracle.builds {metrics['oracle.builds']}")


def main() -> int:
    for test in (test_self_times, test_scaled, test_match, test_identities):
        test()
        if FAILURES:
            print(f"FAIL {test.__name__}: " + "; ".join(FAILURES))
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
