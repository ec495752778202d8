"""End-to-end and per-layer benchmark of kernel_spectra.

Run from the repository root:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process

The workloads are defined in ``workloads.py``.  A run imports kernel_spectra
from ``src/`` of the checkout it sits in (and fails when it is not there),
leaves the library at its default single thread, and sets BLAS threads to
the usable core count.  It then

* times ``setup_s``: a fresh interpreter that imports the package and makes
  the workload's first calls (warm-up of lru caches), several times, median;
* repeats passes of the workload until ``--seconds`` would be exceeded, at
  least three, with a gc.collect() before each;
* checks every pass's outputs (each gate is one attempted operation), and
  that a pass over inputs already run returns bit-identical values;
* with ``--trace 0`` reports the end-to-end metrics: ``solve_s`` is the
  median pass wall time, ``peak_rss_mb`` the process's peak resident set;
* with ``--trace 1`` runs passes in pairs, one untraced and one traced over
  the same inputs, at least two pairs, the untraced pass first in even pairs
  and second in odd ones, so that caches warmed by the first pass of a pair
  favour both sides alike.  It reports, per traced function, ``.calls`` of
  the first traced pass and ``.total_s`` and ``.self_s`` of one traced pass
  (median over traced passes), and ``trace.overhead_s``, the median over
  pairs of traced minus untraced pass time.  The spans are written to
  ``bench/traces/<workload>.json``.

``--workload all`` runs the three workloads one after another in the same
process; there ``peak_rss_mb`` is the process's peak so far.

Human-readable lines start with ``#``; the line ``# detail {...}`` holds
everything measured as JSON, and the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / "traces"
WORKLOAD_NAMES = ("spectrum", "k2_xcheck", "pointwise")
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def configure_environment() -> None:
    """Library threads at their default, BLAS threads at the core count; before numpy loads."""
    os.environ.pop("KERNEL_SPECTRA_THREADS", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def load_program() -> None:
    """Import kernel_spectra from this checkout's src/ and nowhere else."""
    package = SRC / "kernel_spectra"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"kernel_spectra sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import kernel_spectra

    if Path(kernel_spectra.__file__).resolve().parent != package:
        raise SystemExit(f"kernel_spectra was imported from {kernel_spectra.__file__}, not {package}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int:
    """OpenBLAS's own thread count when numpy bundles scipy-openblas, else the cap set."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "kernel_spectra_threads": "default (1)",
    }


def time_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import the package and warm it up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait(timeout=...) polls in sleeps of up to 50 ms, which would round the
        # samples up to that step; a blocking wait with a kill timer is exact
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        samples.append(time.perf_counter() - t0)
        watchdog.cancel()
        watchdog.join()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import spans
    from workloads import WORKLOADS, report_exception

    cls = WORKLOADS[name]
    setup = time_setup(name)
    work = cls(seed)
    cls.warm_up()
    tracer = spans.Tracer() if trace else None
    pass_s = {False: [], True: []}
    pairs: dict[int, dict[bool, float]] = {}  # --trace 1: pair -> {traced: pass time}
    layers, traced_spans, latency = [], [], []
    failed_gates: dict[str, int] = {}
    reference = {}  # input key -> outputs of the first pass over it
    attempted = failed = 0
    accuracy = None

    def record(results: dict) -> None:
        nonlocal attempted, failed
        attempted += len(results)
        for g, ok in results.items():
            if not ok:
                failed += 1
                failed_gates[str(g)] = failed_gates.get(str(g), 0) + 1

    last = 0.0
    start = time.perf_counter()
    i = 0
    min_passes = 2 * MIN_TRACE_PAIRS if trace else MIN_PASSES
    while (i < min_passes or (trace and i % 2 == 1)
           or time.perf_counter() - start + last <= seconds):
        pair, second = divmod(i, 2)
        traced = trace and second != pair % 2
        key = work.prepare(pair if trace else i)
        i += 1
        gc.collect()
        try:
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = work.run_pass()
                last = time.perf_counter() - t0
        except Exception:
            report_exception(f"{name} pass")
            record({g: False for g in work.GATES})
            if traced:
                tracer.take()
            continue
        pass_s[traced].append(last)
        if trace:
            pairs.setdefault(pair, {})[traced] = last
        if traced:
            traced_spans.append(tracer.take())
            layers.append(spans.summarize(traced_spans[-1]))
        elif "latency_ns" in out:
            latency.extend(out["latency_ns"].tolist())
        try:
            gates = work.check(out)
            fingerprint = work.fingerprint(out)
        except Exception:
            report_exception(f"{name} gates")
            gates, fingerprint = {g: False for g in work.GATES}, None
        if accuracy is None:
            accuracy = work.accuracy(out)
        # a pass over inputs already run, traced or not, must reproduce it bit for bit
        if key in reference:
            gates = dict(gates, identical_outputs=fingerprint == reference[key])
        else:
            reference[key] = fingerprint
        record(gates)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not pass_s[False] or (trace and not pass_s[True]):
        raise SystemExit(f"{name}: no pass completed")

    record(work.spot_checks())

    solve_s = statistics.median(pass_s[False])
    extra = {}  # end-to-end figures that only one workload has
    if latency:
        p50, p99 = np.percentile(latency, [50, 99]) / 1e6
        extra["call_p50_ms"] = (float(p50), "ms")
        extra["call_p99_ms"] = (float(p99), "ms")
        extra["call_samples"] = (len(latency), "count")
    if "k2_route_err" in accuracy:
        extra["k2_route_err"] = (accuracy["k2_route_err"], "1")
    end_to_end = {"setup_s": (statistics.median(setup), "s"), "solve_s": (solve_s, "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB")}
    per_layer = {}
    if trace:
        for layer in spans.LAYER_NAMES:
            # counts of the first traced pass, whose inputs depend on the seed only
            per_layer[f"{layer}.calls"] = (layers[0][layer][0], "count")
            per_layer[f"{layer}.total_s"] = (statistics.median(s[layer][1] for s in layers) / 1e9, "s")
            per_layer[f"{layer}.self_s"] = (statistics.median(s[layer][2] for s in layers) / 1e9, "s")
        overhead = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
        if not overhead:
            raise SystemExit(f"{name}: no traced and untraced pair completed")
        per_layer["trace.overhead_s"] = (statistics.median(overhead), "s")
        TRACE_DIR.mkdir(exist_ok=True)
        spans.dump(TRACE_DIR / f"{name}.json", traced_spans)

    return {
        "workload": name, "seed": seed, "trace": int(trace), "why": cls.why, "roadmap": cls.roadmap,
        "passes": {"untraced_s": pass_s[False], "traced_s": pass_s[True]},
        "setup_samples_s": setup,
        "end_to_end": end_to_end, "extra": extra, "per_layer": per_layer,
        "accuracy": accuracy, "attempted": attempted, "failed": failed,
        "failed_gates": failed_gates,
    }


def report(r: dict) -> dict:
    """Print one workload's figures and return its metrics for the result line."""
    n_u, n_t = len(r["passes"]["untraced_s"]), len(r["passes"]["traced_s"])
    print(f"# workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"passes {n_u} untraced, {n_t} traced")
    print(f"#   why: {r['why']}")
    print(f"#   roadmap: {r['roadmap']}")
    shown = r["per_layer"] if r["trace"] else r["end_to_end"]
    for key, (value, unit) in {**shown, **r["extra"]}.items():
        print(f"#   {key:44s} {value:>16.6g} {unit}")
    for key, value in r["accuracy"].items():
        print(f"#   accuracy {key}: {value}")
    print(f"#   operations {r['attempted']} attempted, {r['failed']} failed"
          + (f" {r['failed_gates']}" if r["failed_gates"] else ""))
    return {key: {"value": value, "unit": unit} for key, (value, unit) in shown.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    configure_environment()
    load_program()
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].warm_up()
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    print(f"# env {json.dumps(env)}")
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        shown = report(r)
        print("# detail " + json.dumps(dict(r, env=env)))
        attempted += r["attempted"]
        failed += r["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in shown.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
