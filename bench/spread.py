"""Run a workload once per seed and report each end-to-end metric's spread.

    python3 bench/spread.py --workload box-custom --seeds 0 1 2 3 4 [--out FILE]

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median; BENCHMARK.json fixes the bound it is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="also write the summary to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(json.dumps(runs[-1]), flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "metrics": {}}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        summary["metrics"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": metric["bound"], "values": values}
        print(f"{metric['name']:>12}: median {median:.6g}  spread {(q3 - q1) / median:.4f}"
              f"  (bound {metric['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
