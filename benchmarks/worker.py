"""One workload process: import the CLI, run it in process as a closed loop, report.

Started by ``run.py`` as ``python3 benchmarks/worker.py '<spec json>'``.
It prints ``ready`` as soon as ``spherefall.cli`` is imported (the
parent times that as set-up), then runs ``spherefall.cli.main(argv)``
repeatedly, one invocation after another, with stdout and stderr
captured, and prints one JSON report as its last line.

Each invocation writes to a fresh path; the first output is kept for the
parent to check, later ones are hashed and deleted, so the parent can
tell whether every invocation wrote the same bytes.

Spec keys: ``mode`` ("measure" or "trace"), ``argv`` (with ``{out}``
where the output path goes), ``out_is_dir``, ``seconds``, ``dir``, and
for "trace" ``growth_ns``, the grid sizes of the ``solve_ide`` fit.
"""

import os
import sys

if __name__ == "__main__":
    # First, before the harness's own imports: set-up ends when this returns.
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(_root, "src"))
    import spherefall.cli

    print("ready", flush=True)

import cmath  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

OUT = "{out}"


def _digest(path: str, is_dir: bool) -> tuple[str | None, int]:
    """SHA-256 over the output's file names and bytes, and the byte count."""
    if not os.path.exists(path):
        return None, 0
    files = sorted(os.listdir(path)) if is_dir else [""]
    h, nbytes = hashlib.sha256(), 0
    for name in files:
        with open(os.path.join(path, name) if name else path, "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        nbytes += len(data)
    return h.hexdigest(), nbytes


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.unlink(path)


class Runner:
    """Closed-loop driver of ``spherefall.cli.main`` for one spec."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.records: list[dict] = []

    def invoke(self) -> float:
        """Run one invocation; record exit code, time, output digest and bytes."""
        first = not self.records
        out = os.path.join(self.spec["dir"], "kept" if first else "inv")
        argv = [out if a == OUT else a for a in self.spec["argv"]]
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = spherefall.cli.main(argv)
        except Exception as exc:  # a crash counts as a failed invocation, not a harness error
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        digest, nbytes = _digest(out, self.spec["out_is_dir"])
        if not first:
            _remove(out)
        self.records.append({
            "code": code,
            "wall_s": wall,
            "digest": digest,
            "output_bytes": nbytes + len(captured.getvalue().encode()),
        })
        return wall


def calibrate() -> float:
    """Time a fixed mix of interpreted complex arithmetic and short numpy dot products.

    The mix resembles the library's hot loops but calls none of its code,
    so its time follows only the speed the machine gives this process.
    """
    start = time.perf_counter()
    z, acc = 0.3 + 0.4j, 0j
    for k in range(1, 60001):
        acc += cmath.exp(-z * z) / (z + k)
    a, s = np.arange(4000.0), 0.0
    for k in range(1, 4000):
        s += a[:k] @ a[k - 1::-1]
    return time.perf_counter() - start


def _measure(spec: dict) -> dict:
    """Cold invocation, then steady invocations with a calibration after each.

    ``calibration_s[0]`` follows the cold invocation (a calibration before
    it would warm the process); ``calibration_s[i]`` and
    ``calibration_s[i + 1]`` bracket steady invocation ``i``.
    """
    runner = Runner(spec)
    cold = runner.invoke()
    calibrations = [calibrate()]
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < spec["seconds"]:
        walls.append(runner.invoke())
        calibrations.append(calibrate())
    return {
        "cold_wall_s": cold,
        "wall_s": walls,
        "calibration_s": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": runner.records,
    }


def _growth_exponent(ns: list[int]) -> float:
    """Log-log slope of ``solve_ide`` time over the grid sizes, best of three each."""
    solve = spherefall.ide.solve_ide
    times = []
    for n in ns:
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            solve(2.0, 0.0, 10.0 / n, 10.0)
            runs.append(time.perf_counter() - start)
        times.append(min(runs))  # the least disturbed run
    return float(np.polyfit(np.log(ns), np.log(times), 1)[0])


def _layer_metrics(spans, output_bytes: int) -> dict[str, float]:
    from tracer import LAYERS, self_times

    agg = self_times(spans)

    def total(prefix: str, field: int) -> float:
        return sum(v[field] for k, v in agg.items() if k.startswith(prefix))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(f"{layer}.", 1)
        m[f"{layer}.calls"] = total(f"{layer}.", 0)
    for fn in ("special.villat", "special.faddeeva", "ide.basset_integral"):
        m[f"{fn}.calls"] = agg.get(fn, (0, 0.0))[0]
    for fn in ("ide.solve_ide", "ide.basset_integral", "ide.abel_weights",
               "ode.solve_oscillator",
               "analysis.run_default_suite", "analysis.check_monotone",
               "analysis.proof_integral", "analysis.imag_sqrt_alpha_villat",
               "analysis.abel_identity_residual", "analysis.ode_residual"):
        m[f"{fn}.self_s"] = agg.get(fn, (0, 0.0))[1]
    calls = m["special.calls"]
    m["special.us_per_call"] = 1e6 * m["special.self_s"] / calls if calls else 0.0
    m["cli.output_bytes"] = output_bytes
    return m


def _trace(spec: dict) -> dict:
    """Alternate untraced and traced invocations; per-layer metrics from the traced ones."""
    from tracer import Recorder  # only here, so measured workers do not load it

    growth = _growth_exponent(spec["growth_ns"])
    recorder = Recorder()
    runner = Runner(spec)
    untraced, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < spec["seconds"]:
        untraced.append(runner.invoke())
        recorder.install(spherefall)
        try:
            traced.append(runner.invoke())
        finally:
            recorder.uninstall()
        layer_runs.append(_layer_metrics(recorder.take(), runner.records[-1]["output_bytes"]))
    metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
    metrics["ide.growth_exp"] = growth
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"layers": metrics, "traced_runs": len(traced), "records": runner.records}


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = _measure(spec) if spec["mode"] == "measure" else _trace(spec)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
