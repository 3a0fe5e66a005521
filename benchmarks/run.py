"""Benchmark of the ``spherefall`` CLI: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 benchmarks/run.py --workload ide_trajectory --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # every workload, one table

Each workload drives ``spherefall.cli.main(argv)`` in process as a closed
loop (one client; each invocation starts when the previous one returns)
inside fresh worker processes (``worker.py``).  The seed draws only the
density ratios; grid sizes are fixed.  Every output is checked against a
reference that does not use ``spherefall.special`` (``workloads.py``),
and every invocation must write the same bytes.

``--trace 0`` starts ``CHILDREN`` worker processes one after another and
reports, over all of them (times scaled to a reference machine speed,
see ``CAL_REF_S``):

* ``wall_s``       median steady-state time of one invocation;
* ``cold_wall_s``  median time of the first invocation in a fresh process;
* ``setup_s``      median time from starting a fresh interpreter until
                   ``import spherefall.cli`` returns;
* ``peak_rss_mb``  median peak resident memory of a worker process;
* ``accuracy_digits``  -log10(max_err), where max_err is the sup-norm
                   error of u for the solve workloads and, for
                   ``verify_suite``, the largest worst_violation/tolerance.

``--trace 1`` starts one worker that alternates untraced and traced
invocations and reports per-layer self time and call counts
(``tracer.py``), the ``solve_ide`` growth exponent and the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric with its unit and sample count, the error rate, and an
environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Worker processes per measured run: setup_s, cold_wall_s and peak_rss_mb
# are medians over them, and wall_s pools their steady-state samples, so
# a process-level effect (memory layout, a noisy neighbour) is averaged.
CHILDREN = 5
# On a shared 2-core Intel Xeon host the speed a process gets drifted by
# up to 1.8x over minutes (other tenants), so raw medians of runs minutes
# apart differed by more than any usable bound.  Every time in the
# end-to-end metrics is therefore scaled by CAL_REF_S / c, where c is the
# time of the worker's fixed calibration kernel (worker.calibrate)
# measured right next to it, and CAL_REF_S is a fixed reference time for
# that kernel, close to its typical time on that host.  Raw seconds are
# printed as well.
CAL_REF_S = 0.034
# solve_ide grid sizes of the growth-exponent fit (full and tiny runs).
GROWTH_NS = {"full": [2500, 5000, 10000, 20000], "tiny": [250, 500, 1000, 2000]}
CHILD_TIMEOUT_S = 150.0



def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def spawn(spec: dict) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time and its report."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return setup, json.loads(lines[-1])


def judge(workload, inputs: dict, size: dict, reports: list[dict], work: str) -> dict:
    """Check the first output; an invocation passes if it exited 0 with the same bytes."""
    records = [r for rep in reports for r in rep["records"]]
    kept = os.path.join(work, "w0", "kept")
    try:
        max_err = workload.check(inputs, size, kept)
        error = None
    except Exception as exc:  # a wrong or unreadable output fails the run, not the harness
        max_err, error = math.inf, f"{type(exc).__name__}: {exc}"
    reference = records[0]["digest"]
    failed = sum(1 for r in records
                 if r["code"] != 0 or r["digest"] != reference or error is not None)
    codes = sorted({str(r["code"]) for r in records if r["code"] != 0})
    return {"attempted": len(records), "failed": failed, "max_err": max_err,
            "error": error, "exit_codes": codes,
            "identical": all(r["digest"] == reference for r in records)}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _line(name: str, value: float, unit: str, samples: list[float] | None = None) -> str:
    text = f"  {name:<36} {value:<14.6g} {unit:<7}"
    if samples:
        q1, q3 = _quartiles(samples)
        text += f" n={len(samples)} q1={q1:.6g} q3={q3:.6g} max={max(samples):.6g}"
    return text


def scaled(reports: list[dict], setups: list[float]) -> dict[str, list[float]]:
    """Times scaled to the reference speed by the calibration measured next to them."""
    walls, colds, setup = [], [], []
    for rep, s in zip(reports, setups):
        cal = rep["calibration_s"]
        walls += [w * CAL_REF_S / (0.5 * (cal[i] + cal[i + 1]))
                  for i, w in enumerate(rep["wall_s"])]
        colds.append(rep["cold_wall_s"] * CAL_REF_S / cal[0])
        setup.append(s * CAL_REF_S / cal[0])
    return {"wall_s": walls, "cold_wall_s": colds, "setup_s": setup}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str = "full",
                 children: int = CHILDREN) -> dict:
    """Measure one workload; print the metric table and return the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.draw(random.Random(seed))
    size = workload.sizes[size_name]
    argv = workload.argv(inputs, size, "{out}")
    print(f"env {json.dumps(fingerprint(name, seed))}")
    print(f"workload {name}: spherefall {' '.join(argv)}")
    work = tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT)
    try:
        if trace:
            specs = [{"mode": "trace", "seconds": seconds, "growth_ns": GROWTH_NS[size_name]}]
        else:
            specs = [{"mode": "measure", "seconds": seconds / children}] * children
        setups, reports = [], []
        for i, spec in enumerate(specs):
            d = os.path.join(work, f"w{i}")
            os.mkdir(d)
            setup, rep = spawn({**spec, "argv": argv, "out_is_dir": workload.out_is_dir,
                                "dir": d})
            setups.append(setup)
            reports.append(rep)
        verdict = judge(workload, inputs, size, reports, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = verdict["attempted"], verdict["failed"]
    print(f"  {'error_rate':<36} {failed / attempted:<14.6g} {'1':<7} "
          f"failed={failed} attempted={attempted} identical_bytes={verdict['identical']}")
    if verdict["error"]:
        print(f"  check failed: {verdict['error']}")
    if verdict["exit_codes"]:
        print(f"  non-zero exits: {', '.join(verdict['exit_codes'])}")
    max_err = verdict["max_err"]
    print(_line("max_err", max_err, "1"))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in reports[0]["layers"].items()}
        print(f"  per-layer metrics, median of {reports[0]['traced_runs']} traced invocations:")
    else:
        raw = {"wall_s": [w for rep in reports for w in rep["wall_s"]],
               "cold_wall_s": [rep["cold_wall_s"] for rep in reports],
               "setup_s": setups}
        raw["calibration_s"] = [c for rep in reports for c in rep["calibration_s"]]
        for k, v in raw.items():
            print(_line(f"{k} (raw, unscaled)", statistics.median(v), "s", v))
        samples = scaled(reports, setups)
        samples["peak_rss_mb"] = [rep["peak_rss_mb"] for rep in reports]
        metrics = {k: {"value": statistics.median(v), "unit": units[k]}
                   for k, v in samples.items()}
        digits = -math.log10(max_err) if 0.0 < max_err < math.inf else 0.0
        metrics["accuracy_digits"] = {"value": digits, "unit": units["accuracy_digits"]}
    for k, m in metrics.items():
        print(_line(k, m["value"], m["unit"], None if trace else samples.get(k)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spherefall", "cli.py")):
        _fail(f"no spherefall sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        _fail(f"no BENCHMARK.json in {ROOT}")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({n: r for n, r in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
