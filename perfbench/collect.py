"""Repeat benchmark runs and summarize each metric's spread.

    python3 perfbench/collect.py --workload cli-session --seeds 1 2 3 \\
        [--seconds 25] [--trace 0] [--out perfbench_out/set.json]

Run from the repository root.  For each end-to-end (or, with --trace 1,
per-layer) metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, the sample count and the spread
(Q3 - Q1) / median, and writes every run's record and final line to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"record": record, "result": result})
        print(seed, result["correct"], result["attempted"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()
               if k in ("setup_s", "throughput_per_s",
                        "peak_rss_mb")}, flush=True)

    names = runs[0]["result"]["metrics"].keys()
    stats = {name: summary([r["result"]["metrics"][name]["value"]
                            for r in runs]) for name in names}
    for name, st in stats.items():
        if args.trace == 0:
            print(f"{name:20s} median {st['median']:.5g}  spread "
                  f"{st.get('spread')}")
    out = {"workload": args.workload, "seconds": seconds,
           "trace": args.trace, "seeds": args.seeds,
           "failed": sum(r["result"]["failed"] for r in runs),
           "attempted": sum(r["result"]["attempted"] for r in runs),
           "metrics": stats, "runs": runs}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
