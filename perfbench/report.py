"""Run every workload untraced and traced, and print the metric tables.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 20

Each run is a separate ``perfbench/run.py`` process. The first table holds
the end-to-end metrics and the failed fraction of operations; the second
the per-layer metrics of the traced runs, ``trace.overhead_s`` included.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dense_two_block", "graphene_spectrum", "implicit_lattice")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, check=True)
    lines = completed.stdout.strip().splitlines()
    env = next((line.split(" env ", 1)[1] for line in lines if " env " in line), "{}")
    return env, json.loads(lines[-1])


def table(title: str, results: dict[str, dict], extra: dict[str, dict]) -> list[str]:
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(name) for name in names + list(extra)) + 2
    header = f"{'metric':<{width}}{'unit':<7}" + "".join(f"{w:>20}" for w in results)
    lines = [title, header]
    rows = {name: {w: r["metrics"][name] for w, r in results.items()} for name in names}
    rows.update(extra)
    for name, cells in rows.items():
        unit = next(iter(cells.values()))["unit"]
        values = "".join(f"{cells[w]['value']:>20.6g}" for w in results)
        lines.append(f"{name:<{width}}{unit:<7}{values}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    untraced, traced = {}, {}
    for workload in WORKLOADS:
        env, untraced[workload] = run(workload, args.seed, args.seconds, 0)
        _, traced[workload] = run(workload, args.seed, args.seconds, 1)
    print(f"environment {env}")
    fail_frac = {
        w: {"value": r["failed"] / r["attempted"], "unit": "ratio"}
        for w, r in untraced.items()
    }
    operations = {
        w: {"value": r["attempted"], "unit": "count"} for w, r in untraced.items()
    }
    for line in table(
        "end to end (untraced)",
        untraced,
        {"fail_frac": fail_frac, "operations": operations},
    ):
        print(line)
    print()
    for line in table("per layer (traced)", traced, {}):
        print(line)
    return 0 if all(r["correct"] for r in (*untraced.values(), *traced.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
