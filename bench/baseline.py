"""Run the benchmark over several seeds and record the figures.

    python3 bench/baseline.py --seeds 10 --out bench/baseline.json

Each run is a separate ``bench/run.py`` process, as in a single benchmark
run: for every workload, one untraced run per seed 1..N (seeds outermost,
so slow spells of the machine spread over all workloads) and one traced
run with seed 1.  For every end-to-end figure, in BENCHMARK.json or not,
it records the median, the quartiles from ``statistics.quantiles(n=4)``
and the spread, (q3 - q1) / median; a spread above a third of the
metric's bound is flagged, setup_s included.  Per-layer figures come from
the traced run.  With ``--against`` an earlier output of this script, every
median with a bound must also lie within that bound of the earlier median:

    python3 bench/baseline.py --seeds 10 --against bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          check=True)
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return json.loads(lines[-1]), detail


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default="spectrum,k2_xcheck,pointwise")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="", help="what code was measured")
    parser.add_argument("--against", type=Path, help="earlier output whose medians must agree")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = args.workloads.split(",")
    runs = {name: [] for name in names}
    for seed in range(1, args.seeds + 1):
        for name in names:
            t0 = time.perf_counter()
            result, detail = run(name, seed, 0, seconds)
            runs[name].append(detail)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {shown} "
                  f"in {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)

    out = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        _, traced = run(name, 1, 1, seconds)
        details = runs[name]
        figures = {}
        merged = [d["end_to_end"] | d["extra"] for d in details]
        for key, (_, unit) in merged[0].items():
            bound = bounds.get(key)
            fig = figures[key] = dict(summarize([m[key][0] for m in merged]), unit=unit, bound=bound)
            flag = ""
            if bound is not None and fig["spread"] > bound / 3:
                flag, steady = "  above bound/3", False
            print(f"{name:10s} {key:14s} median {fig['median']:12.6g} {unit:5s} "
                  f"spread {fig['spread']:.4f}" + (f" (bound {bound})" if bound is not None else "") + flag)
        out["env"] = details[0]["env"]
        out["workloads"][name] = {
            "why": details[0]["why"],
            "roadmap": details[0]["roadmap"],
            "failed": sum(d["failed"] for d in details) + traced["failed"],
            "attempted": sum(d["attempted"] for d in details) + traced["attempted"],
            "end_to_end": figures,
            "accuracy": details[0]["accuracy"],
            "per_layer_seed1": {k: v[0] for k, v in traced["per_layer"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    agree = True
    if args.against:
        earlier = json.loads(args.against.read_text())["workloads"]
        for name in names:
            for key, fig in out["workloads"][name]["end_to_end"].items():
                if fig["bound"] is None:
                    continue
                before = earlier[name]["end_to_end"][key]["median"]
                change = fig["median"] / before - 1.0
                ok = abs(change) <= fig["bound"]
                agree &= ok
                print(f"{name:10s} {key:14s} median {change:+.4f} against {args.against}"
                      + ("" if ok else f"  outside bound {fig['bound']}"))
        print("agree" if agree else f"NOT in agreement with {args.against}")
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
