#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json, each in its own fresh process, and
print every metric with its unit, plus failed jobs over jobs attempted.

    python3 bench/report.py --seed 1            # end-to-end metrics
    python3 bench/report.py --seed 1 --trace 1  # per-layer metrics
"""

import argparse
import json
import subprocess
import sys

from run import BENCH, ROOT, clean_env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in manifest["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(manifest["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=180,
        )
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name} (seed {args.seed})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_frac':36s} {result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']} of {result['attempted']} jobs)")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
