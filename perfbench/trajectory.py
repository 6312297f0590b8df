"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/trajectory.py --label seed --seeds 1-10

For each workload of BENCHMARK.json, runs `run.py --trace 0` once per
seed, one run at a time, then one `--trace 1` run on the first seed, and
writes
perfbench/BENCH_<label>.json: per end-to-end metric its values, median,
quartiles and spread (quartile distance over the median, the measure the
bounds in BENCHMARK.json apply to), plus the traced per-layer metrics and
the details of every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2].removeprefix("detail "))}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    out = {"label": args.label, "seeds": seeds, "run_seconds": config["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for s in seeds:
            runs.append(run(workload, s, config["run_seconds"], 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{workload} seed {s}: {values}", flush=True)
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bounds[name], "values": values}
            print(f"{workload:11s} {name:12s} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bounds[name]}", flush=True)
        traced = run(workload, seeds[0], config["run_seconds"], 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "details": [r["detail"] for r in runs] + [traced["detail"]],
        }
    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
