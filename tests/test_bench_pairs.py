"""The file that `tools/bench_pairs.py` writes, on a stub repository whose
`perfbench/run.py` answers at once with metrics read from its own tree."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [{"name": "stub_a", "why": "."}, {"name": "stub_b", "why": "."}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "memo_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ],
}

# Reads the tree's SETUP file (fails below 0, hangs at 0) and its FAILED file, if any, the
# operations that fail; logs "<SETUP> <seed>" to the file named by STUB_LOG, and prints an
# environment line and the result, as run.py does.
STUB = '''
import json, os, sys, time
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--trace"] != "0":
    sys.exit(2)
root = Path(__file__).resolve().parent.parent
setup = float((root / "SETUP").read_text())
seed = int(args["--seed"])
failed = int((root / "FAILED").read_text()) if (root / "FAILED").exists() else 0
if setup < 0:
    print("boom", file=sys.stderr)
    sys.exit(1)
if setup == 0:
    time.sleep(60)
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{setup} {seed}\\n")
workload = args["--workload"]
print(f"# {workload} trace=0 env " + json.dumps({"python": "stub", "seed": seed}))
metrics = {"setup_s": {"value": setup * (1 + seed / 100), "unit": "s"},
           "memo_mb": {"value": 10.0, "unit": "MB"}}
print(json.dumps({"correct": failed == 0, "attempted": 4, "failed": failed,
                  "metrics": metrics}))
'''


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


@pytest.fixture
def stub_repo(tmp_path):
    """A repository whose last commit reads SETUP 1.0; the working tree,
    the change, reads 0.5."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK, indent=2))
    (repo / "SETUP").write_text("1.0")
    shutil.copy(TOOL, repo / "tools" / "bench_pairs.py")
    _git(tmp_path, "init", "-q", str(repo))
    _git(repo, "add", "-A")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base")
    (repo / "SETUP").write_text("0.5")
    return repo


def _run(repo, tmp_path, *args):
    return subprocess.run(
        [sys.executable, "tools/bench_pairs.py", *args],
        cwd=repo,
        capture_output=True,
        text=True,
        env=dict(os.environ, STUB_LOG=str(tmp_path / "log")),
        timeout=60,
    )


def test_pairs_file_holds_raw_pairs_spread_and_verdicts(stub_repo, tmp_path):
    benchmark_before = (stub_repo / "BENCHMARK.json").read_text()
    done = _run(stub_repo, tmp_path, "--base", "HEAD", "--workload", "stub_a",
                "--pairs", "3", "--seconds", "0.1")
    assert done.returncode == 0, done.stderr
    short = _git(stub_repo, "rev-parse", "--short", "HEAD")
    document = json.loads((stub_repo / f"BENCH_{short}.json").read_text())

    # The seed plan, and the side that runs first flipping on every pair.
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        "1.0 1", "0.5 1", "0.5 2", "1.0 2", "1.0 3", "0.5 3"
    ]
    assert document["plan"] == {"pairs": 3, "seconds": 0.1, "seeds": [1, 2, 3]}
    assert document["base"] == _git(stub_repo, "rev-parse", "HEAD")
    assert document["change"] == {"head": document["base"], "dirty": True}
    assert document["environment"] == {"python": "stub"}
    assert list(document["workloads"]) == ["stub_a"]

    workload = document["workloads"]["stub_a"]
    assert [(p["seed"], p["first"]) for p in workload["pairs"]] == [
        (1, "base"), (2, "change"), (3, "base")
    ]
    assert workload["pairs"][1]["base"]["metrics"]["setup_s"]["value"] == 1.02
    assert workload["fail_frac"] == {"base": 0.0, "change": 0.0}

    setup = workload["metrics"]["setup_s"]
    assert setup["unit"] == "s" and setup["bound"] == 0.25
    assert setup["base"] == pytest.approx(
        {"q1": 1.015, "median": 1.02, "q3": 1.025, "n": 3}
    )
    assert setup["change"]["median"] == pytest.approx(0.51)
    assert setup["ratios"] == pytest.approx([0.5, 0.5, 0.5])
    assert setup["median_ratio"] == pytest.approx(0.5)
    assert (setup["lower"], setup["higher"]) == (3, 0)
    assert setup["bound_verdict"] == "within" and setup["gain"] is True

    memo = workload["metrics"]["memo_mb"]
    assert (memo["lower"], memo["higher"]) == (0, 0)
    assert memo["bound_verdict"] == "within" and memo["gain"] is False

    # BENCHMARK.json is read, never written, and the worktree is gone.
    assert (stub_repo / "BENCHMARK.json").read_text() == benchmark_before
    assert _git(stub_repo, "worktree", "list").count("\n") == 0


def test_a_worse_change_is_flagged(stub_repo, tmp_path):
    (stub_repo / "SETUP").write_text("2.0")
    done = _run(stub_repo, tmp_path, "--base", "HEAD", "--pairs", "2",
                "--seconds", "0.1", "--out", str(tmp_path / "out.json"))
    assert done.returncode == 0, done.stderr
    document = json.loads((tmp_path / "out.json").read_text())
    assert list(document["workloads"]) == ["stub_a", "stub_b"]
    for workload in document["workloads"].values():
        setup = workload["metrics"]["setup_s"]
        assert (setup["lower"], setup["higher"]) == (0, 2)
        assert setup["bound_verdict"] == "worse" and setup["gain"] is False


def test_a_change_that_fails_operations_claims_no_gain(stub_repo, tmp_path):
    # Faster, but one operation of four fails in every run of the change.
    (stub_repo / "FAILED").write_text("1")
    done = _run(stub_repo, tmp_path, "--base", "HEAD", "--workload", "stub_a",
                "--pairs", "3", "--seconds", "0.1", "--out", str(tmp_path / "out.json"))
    assert done.returncode == 0, done.stderr
    workload = json.loads((tmp_path / "out.json").read_text())["workloads"]["stub_a"]
    assert workload["fail_frac"] == {"base": 0.0, "change": 0.25}
    for metric in workload["metrics"].values():
        assert metric["bound_verdict"] == "failing" and metric["gain"] is False
    assert workload["metrics"]["setup_s"]["lower"] == 3


def test_a_failed_run_writes_nothing_and_removes_the_worktree(stub_repo, tmp_path):
    (stub_repo / "SETUP").write_text("-1")
    done = _run(stub_repo, tmp_path, "--base", "HEAD", "--pairs", "2",
                "--seconds", "0.1")
    assert done.returncode == 1
    assert "boom" in done.stderr
    assert not list(stub_repo.glob("BENCH_*.json"))
    assert _git(stub_repo, "worktree", "list").count("\n") == 0


def test_a_terminated_command_removes_the_worktree(stub_repo, tmp_path):
    (stub_repo / "SETUP").write_text("0")
    command = subprocess.Popen(
        [sys.executable, "tools/bench_pairs.py", "--base", "HEAD", "--seconds", "0.1"],
        cwd=stub_repo,
        stderr=subprocess.PIPE,
        env=dict(os.environ, STUB_LOG=str(tmp_path / "log")),
    )
    try:
        deadline = time.monotonic() + 30
        while _git(stub_repo, "worktree", "list").count("\n") == 0:
            assert time.monotonic() < deadline and command.poll() is None
            time.sleep(0.05)
        command.terminate()
        assert command.wait(timeout=30) == 143
    finally:
        command.kill()
        command.communicate()
    assert _git(stub_repo, "worktree", "list").count("\n") == 0
    assert not list(stub_repo.glob("BENCH_*.json"))
