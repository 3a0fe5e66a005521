"""Fast self-test of the benchmark harness.

Run from the repository root with ``python3 benchmarks/selftest.py``
(about 20 s).  It checks the self-time arithmetic on synthetic nested
spans, the recorder's patching of cross-module bindings and pool
threads, and runs every workload at its tiny size through the same
code path as a real run, traced and untraced.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Recorder, Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] on the main thread; a [1, 4] with child c [2, 3]; b [3, 6]
    # on a pool thread overlapping a; d [9, 12] runs past the end of root.
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "analytic.u_rest", 1.0, 4.0),
        Span(2, 1, "special.villat", 2.0, 3.0),
        Span(3, 0, "analytic.u_rest", 3.0, 6.0),
        Span(4, 0, "ide.solve_ide", 9.0, 12.0),
    ]
    got = self_times(spans)
    assert got["cli.main"] == (1, 10.0 - 5.0 - 1.0), got
    assert got["analytic.u_rest"] == (2, (3.0 - 1.0) + 3.0), got
    assert got["special.villat"] == (1, 1.0), got
    assert got["ide.solve_ide"] == (1, 3.0), got


def test_recorder_patches_every_binding_and_restores_them():
    import spherefall
    from spherefall import analysis, analytic, special

    original = special.villat
    rec = Recorder()
    rec.install(spherefall)
    try:
        for ns in (special, analytic, analysis, spherefall):
            assert ns.villat is not original, ns.__name__
        analytic.u_rest(1.0, 2.0)
    finally:
        rec.uninstall()
    for ns in (special, analytic, analysis, spherefall):
        assert ns.villat is original, ns.__name__
    spans = rec.take()
    names = [s.name for s in spans]
    assert names.count("special.villat") == 2 and names.count("special.faddeeva") == 2, names
    root = next(s for s in spans if s.parent is None)
    assert root.name == "analytic.u_rest"
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.name == "special.faddeeva":
            assert by_id[s.parent].name == "special.villat"


def test_recorder_links_pool_threads_to_the_waiting_span():
    rec = Recorder()
    leaf = rec.wrap("special.leaf", lambda x: x)

    def root():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    rec.wrap("cli.main", rec.wrap("cli.run", root))()
    spans = rec.take()
    run_span = next(s for s in spans if s.name == "cli.run")
    leaves = [s for s in spans if s.name == "special.leaf"]
    assert len(leaves) == 4 and all(s.parent == run_span.sid for s in leaves)


def test_every_workload_at_tiny_size():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert bench["command"][1] == "benchmarks/run.py" and bench["paths"] == ["benchmarks"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in bench["end_to_end"])
    for name in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(name, seed=0, seconds=0.2, trace=trace,
                                      size_name="tiny", children=2)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert set(result["metrics"]) == expected, (name, trace)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
