"""One benchmark run of one workload, in a process of its own.

Start it through ``perfbench/run.py``, which sets one BLAS thread and the
import path before this module loads numpy. The run is a closed loop with
one caller: after inputs and references are generated and one warm-up
repetition, repetitions of set-up, solve and sweep follow each other until
``--seconds`` have passed. Each timed region starts after ``gc.collect()``,
is framed by the workload's host-speed probe (`perfbench.speed`), and
every output is gated outside the timed regions.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` untraced and traced repetitions alternate and it
holds the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse import issparse
from scipy.sparse.linalg import LinearOperator

import blockpert
from blockpert.operators import CountedMatrix

from perfbench import speed
from perfbench.tracing import LAYER_METRICS, NullTracer, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sweep_s", "s"),
    ("memo_mb", "MB"),
    ("peak_rss_mb", "MB"),
)


# -- measurement helpers ---------------------------------------------------
def memo_bytes(context) -> int:
    """Bytes of the arrays held by the memoized entries of every series.

    Arrays are counted once each, by the buffer that owns their memory, and
    are found through views and lazy `LinearOperator` compositions.
    Matrix-free input operators are not entered: what they hold are the
    problem's inputs.
    """
    owners: dict[int, int] = {}

    def visit(value):
        if isinstance(value, CountedMatrix):
            value = value.array
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif issparse(value):
            for part in (value.data, value.indices, value.indptr):
                visit(part)
        elif isinstance(value, LinearOperator) and not isinstance(
            value, blockpert.MatrixFreeOperator
        ):
            for attribute in ("A", "args"):
                visit(getattr(value, attribute, None))
        elif isinstance(value, tuple):
            for item in value:
                visit(item)

    for series in context.values():
        for key in series.stored_keys():
            visit(series.get(key[:2], key[2:]))
    return sum(owners.values())


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            models = (
                line.split(":", 1)[1].strip()
                for line in info
                if line.startswith("model name")
            )
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _median(values):
    """The statistic of every timing.

    A run whose every set-up failed has no samples; it reports 0 beside
    ``"correct": false``.
    """
    return statistics.median(values) if values else 0.0


def _at_reference_speed(samples):
    """Seconds at the reference speed of (wall seconds, slowness) pairs."""
    return [wall / slowness for wall, slowness in samples]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4, method="inclusive")


# -- the run ---------------------------------------------------------------
class Run:
    """Repetitions of one workload, their timings, verdicts and spans."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.memo: list[int] = []
        self._reported = False

    def _fail(self, error: BaseException):
        if not self._reported:  # one traceback per run is enough
            traceback.print_exception(error, file=sys.stderr)
            self._reported = True

    def _gate(self, check, n_ops: int, *args) -> int:
        """Failed operations of one gate; a gate that raises fails them all.

        An entry that raised is handed to the gate as its exception, so the
        gate raises too.
        """
        try:
            for arg in args[-1]:
                if isinstance(arg, Exception):
                    raise arg
            return list(check(*args)).count(False)
        except Exception as error:
            self._fail(error)
            return n_ops

    def _slowness(self) -> float:
        return speed.slowness(self.workload.probe)

    def repetition(self, tracer, setups: int = 1) -> dict[str, list[tuple[float, float]]]:
        """One set-up (or several), solve and sweep, then their gates.

        Every timing is a pair: wall seconds and the host's slowness around
        the timed region. The result is dropped before the sweep, which
        builds its own, so that two results are never held at once.
        """
        w = self.workload
        times: dict[str, list] = {"setup": [], "solve": [], "sweep": []}
        self.attempted += len(w.orders) + 1
        with tracer.instrument():
            try:
                walls = []
                gc.collect()
                before = self._slowness()
                for _ in range(setups):
                    result = None
                    gc.collect()
                    started = time.perf_counter()
                    result = w.setup(tracer)
                    walls.append(time.perf_counter() - started)
                around = speed.between(before, self._slowness())
                times["setup"] = [(wall, around) for wall in walls]
            except Exception as error:  # the run keeps going and counts it
                self._fail(error)
                self.failed += len(w.orders) + 1
                return times

            values = []
            gc.collect()
            first = len(getattr(tracer, "names", ()))
            before = self._slowness()
            started = time.perf_counter()
            for order in w.orders:
                try:
                    values.append(result.h_tilde.get(w.block, order))
                except Exception as error:
                    values.append(error)
            wall = time.perf_counter() - started
            times["solve"].append((wall, speed.between(before, self._slowness())))
            if isinstance(tracer, Tracer):
                tracer.solve_range = (first, len(tracer.names))

        self.memo.append(memo_bytes(result.context))
        self.failed += self._gate(w.check_entries, len(values), values)
        del result

        with tracer.instrument():
            gc.collect()
            before = self._slowness()
            started = time.perf_counter()
            try:
                output = w.sweep(tracer)
            except Exception as error:
                output = error
            wall = time.perf_counter() - started
            times["sweep"].append((wall, speed.between(before, self._slowness())))

        if isinstance(output, Exception):
            self._fail(output)
            self.failed += 1
        else:
            self.failed += self._gate(lambda *a: [w.check_sweep(*a)], 1, output, values)
        return times


def run(name: str, seed: int, seconds: float, trace: bool, **sizes) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the sample lists."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[name](seed, workdir=workdir, **sizes)
        bench = Run(workload)
        bench.repetition(NullTracer())  # warm-up, excluded
        samples: dict[str, list] = {"setup": [], "solve": [], "sweep": []}
        untraced_totals, traced_totals = [], []
        layers: list[dict[str, float]] = []
        deadline = time.perf_counter() + seconds
        count = 0
        while time.perf_counter() < deadline or count < 2:
            traced = trace and count % 2 == 1
            tracer = Tracer() if traced else NullTracer()
            setups = 1 if trace else workload.setup_repeats
            times = bench.repetition(tracer, setups)
            total = sum(_at_reference_speed(times["setup"][-1:] + times["solve"] + times["sweep"]))
            if traced:
                traced_totals.append(total)
                layers.append(tracer.layers())
                del tracer
            else:
                untraced_totals.append(total)
                for phase, values in times.items():
                    samples[phase].extend(values)
            count += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        units = dict(LAYER_METRICS)
        metrics = {}
        for metric in layers[0]:
            value = _median([layer[metric] for layer in layers])
            metrics[metric] = int(value) if units[metric] == "count" else value
        metrics["implicit.eigsh_ref_s"] = getattr(workload, "eigsh_s", 0.0)
        metrics["trace.overhead_s"] = _median(traced_totals) - _median(untraced_totals)
        metrics["fail_frac"] = bench.failed / bench.attempted
        metrics = {metric: metrics[metric] for metric in units}
    else:
        metrics = {
            "setup_s": _median(_at_reference_speed(samples["setup"])),
            "solve_s": _median(_at_reference_speed(samples["solve"])),
            "sweep_s": _median(_at_reference_speed(samples["sweep"])),
            "memo_mb": _median(bench.memo) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = dict(END_TO_END)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    return result, samples


def _table(result: dict, samples: dict) -> list[str]:
    """Sample count and quartiles of each timing at the reference speed,
    and the median wall time and slowness beside them."""
    lines = [
        f"{'metric':<34} {'value':>14} {'unit':<6} {'n':>4} "
        f"{'q1':>10} {'median':>10} {'q3':>10} {'wall':>10} {'slowness':>9}"
    ]
    for metric, entry in result["metrics"].items():
        phase = metric[:-2] if metric in ("setup_s", "solve_s", "sweep_s") else None
        pairs = samples.get(phase) or []
        spread = ""
        if pairs:
            q1, median, q3 = _quartiles(_at_reference_speed(pairs))
            wall = _median([wall for wall, _ in pairs])
            slowness = _median([slowness for _, slowness in pairs])
            spread = (f"{len(pairs):>4} {q1:>10.4g} {median:>10.4g} {q3:>10.4g} "
                      f"{wall:>10.4g} {slowness:>9.3f}")
        lines.append(f"{metric:<34} {entry['value']:>14.6g} {entry['unit']:<6} {spread}")
    lines.append(
        f"operations: {result['failed']} failed of {result['attempted']} attempted"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(blockpert.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: blockpert was imported from {blockpert.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} trace={args.trace} env {json.dumps(environment(args.seed))}")
    for line in _table(result, samples):
        print(f"# {line}")
    print(f"# samples {json.dumps(samples)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
