"""Paired benchmark runs of this checkout against a base revision.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --workload implicit_lattice --pairs 10 --seconds 20

The base revision is checked out into a temporary local ``git worktree``,
removed when the command ends. Each pair runs both trees' own
``perfbench/run.py --trace 0`` on one seed, the same for both sides: pair
``k`` uses seed ``k + 1``, and the side that runs first flips from pair to
pair, the base first on even ``k``. The other side is the
working tree this file sits in, committed or not. Bounds and metric
directions are read from ``BENCHMARK.json``, which is never written.

The result is written to ``BENCH_<base>.json`` at the root of the checkout
(``<base>`` is the base's short hash), or to ``--out``. It holds the
environment, every raw pair, and per workload and end-to-end metric each
side's median and quartiles, the paired ratios ``change / base``, the
number of pairs that read lower and higher, and two verdicts.
``bound_verdict`` is ``failing`` when the change fails a larger share of
operations than the base or any of its runs reports ``"correct": false``
(its timings then do not measure working code), ``worse`` when the
change's median is worse than the base's by more than the metric's bound,
``unresolved`` when either side's interquartile distance is wider than the
bound and the runs overlap, and ``within`` otherwise. ``gain`` applies the
claim rule: no failing change, the change better in at least nine tenths
of the pairs, ties counting for neither, and the medians apart by more than
the base's interquartile distance. A run that exits non-zero stops the
command; nothing is written then.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# A claimed gain needs the change better in this share of the pairs.
GAIN_SHARE = 0.9


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run of ``tree``: the result
    object of its last output line, and the environment it reported."""
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{shlex.join(command)} exited with {done.returncode}:\n"
            f"{done.stderr.strip()[-2000:]}"
        )
    marker = f"# {workload} trace=0 env "
    environment = next(
        (json.loads(line[len(marker):]) for line in lines if line.startswith(marker)),
        {},
    )
    return {"result": json.loads(lines[-1]), "environment": environment}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], metric: dict, failing: bool) -> dict:
    """Both sides' spread, the paired ratios and the verdicts of one
    end-to-end metric over the pairs of one workload; ``failing`` says
    whether the change fails operations that the base does not."""
    name, lower_is_better = metric["name"], metric["better"] == "lower"
    values = {
        side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES
    }
    spread = {side: _quartiles(values[side]) for side in SIDES}
    base, change = spread["base"][1], spread["change"][1]
    lower = sum(c < b for b, c in zip(values["base"], values["change"]))
    higher = sum(c > b for b, c in zip(values["base"], values["change"]))
    better = lower if lower_is_better else higher
    worse_by = (change - base) if lower_is_better else (base - change)
    widest = max(spread[side][2] - spread[side][0] for side in SIDES)
    if failing:
        verdict = "failing"
    elif worse_by > metric["bound"] * abs(base):
        verdict = "worse"
    elif widest > metric["bound"] * abs(base) and not _apart(values, lower_is_better):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "unit": pairs[0]["base"]["metrics"][name]["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **{
            side: dict(zip(("q1", "median", "q3"), spread[side]), n=len(values[side]))
            for side in SIDES
        },
        "ratios": [c / b if b else None for b, c in zip(values["base"], values["change"])],
        "median_ratio": change / base if base else None,
        "lower": lower,
        "higher": higher,
        "bound_verdict": verdict,
        "gain": bool(
            not failing
            and better >= GAIN_SHARE * len(pairs)
            and -worse_by > spread["base"][2] - spread["base"][0]
        ),
    }


def _apart(values: dict, lower_is_better: bool) -> bool:
    """Whether every run of the change reads better than every run of the base."""
    if lower_is_better:
        return max(values["change"]) < min(values["base"])
    return min(values["change"]) > max(values["base"])


def _fail_fraction(pairs: list[dict], side: str) -> float:
    attempted = sum(pair[side]["attempted"] for pair in pairs)
    return sum(pair[side]["failed"] for pair in pairs) / attempted if attempted else 0.0


def run_pairs(base_tree: Path, workloads, pairs: int, seconds: float,
              benchmark: dict) -> tuple[dict, dict]:
    """Every raw pair and the summary of each workload; and the
    environment of the first run."""
    trees = {"base": base_tree, "change": ROOT}
    report, environment = {}, {}
    for workload in workloads:
        raw = []
        for k in range(pairs):
            seed = k + 1
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(trees[side], workload, seed, seconds)
                pair[side] = run["result"]
                environment = environment or run["environment"]
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(run['result']['metrics'])}", file=sys.stderr)
            raw.append(pair)
        fail_frac = {side: _fail_fraction(raw, side) for side in SIDES}
        failing = fail_frac["change"] > fail_frac["base"] or not all(
            pair["change"]["correct"] for pair in raw
        )
        report[workload] = {
            "pairs": raw,
            "fail_frac": fail_frac,
            "metrics": {
                metric["name"]: summarize(raw, metric, failing)
                for metric in benchmark["end_to_end"]
            },
        }
    return report, environment


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workload", action="append", choices=[w["name"] for w in benchmark["workloads"]],
        help="workload to run, repeatable (default: every workload)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<base>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    short = _git("rev-parse", "--short", base)
    out = args.out or ROOT / f"BENCH_{short}.json"

    # A terminated command still removes its worktree, in the finally below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        base_tree = Path(scratch) / "base"
        try:
            _git("worktree", "add", "--detach", str(base_tree), base)
            report, environment = run_pairs(
                base_tree, workloads, args.pairs, args.seconds, benchmark
            )
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        finally:
            # The add may have been cut short, leaving its tree locked:
            # unlock it, delete its files and prune its registration. A
            # second SIGTERM no longer interrupts this.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "unlock", str(base_tree)],
                capture_output=True,
            )
            shutil.rmtree(base_tree, ignore_errors=True)
            _git("worktree", "prune")

    environment.pop("seed", None)
    arguments = sys.argv[1:] if argv is None else argv
    document = {
        "command": shlex.join(["python3", "tools/bench_pairs.py", *arguments]),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "base": base,
        "change": {
            "head": _git("rev-parse", "HEAD"),
            "dirty": bool(_git("status", "--porcelain")),
        },
        "environment": environment,
        "plan": {
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": [k + 1 for k in range(args.pairs)],
        },
        "workloads": report,
    }
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
