"""Sweep-job benchmark: cells/s on five workloads, timed from outside.

Run from the repository root (the script finds ``src/`` itself)::

    python3 bench/run.py --seed 0 [--out results.json]         # all workloads
    python3 bench/run.py --workload crash-scalar --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --seed 0 --trace 1 --out layers.json   # per-layer run
    python3 bench/run.py --compare A.json B.json                # repeatability

Load model: a closed loop, one job at a time.  For each workload the
driver first times ``python -m repro.sim.job run`` cold starts on a one-cell
grid (``setup_s``), then prepares the invocation (``rep.py prepare``), then
runs reps one after another, each in a fresh process (``rep.py rep``),
until the reps' timed regions add up to ``--seconds``.  ``--trace 1`` adds
one rep with the ``trace.py`` wrappers installed and reports the per-layer
table instead of the end-to-end metrics.

The reference host is shared and its speed drifts by up to 2x, so
``cells_per_s`` and ``setup_s`` are scaled to the reference host speed,
which is measured by a fixed kernel timed around every child process
(``HostSpeed``; README, Noise).  The values as measured are kept in
``--out``.

Every metric is printed by name with its unit; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output failed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold starts timed per invocation for ``setup_s`` (their median is reported).
SETUP_STARTS = 9
#: Reps per invocation: at least MIN_REPS, then more until the timed regions
#: add up to ``--seconds``, never more than MAX_REPS.
MIN_REPS = 3
MAX_REPS = 15
#: Untraced reps in a ``--trace 1`` invocation, the baseline for
#: ``trace.overhead_frac``.
TRACE_BASELINE_REPS = 3
#: Seconds any one child process may take before the invocation gives up.
CHILD_TIMEOUT = 150
#: Host kernel runs in the window before each child process.
KERNEL_RUNS = 4
#: Median time of :func:`host_kernel` on the reference host (2-core VM,
#: CPython 3.11).  Timed metrics are scaled to this host speed (README, Noise).
REFERENCE_KERNEL_S = 0.0115
#: How cold starts follow the kernel: when it runs ``f`` times slower, a
#: cold start takes about ``f ** 0.75`` times longer (README, Noise).  Each
#: workload's cells/s has its own exponent, ``Workload.host_exponent``.
SETUP_HOST_EXPONENT = 0.75


class BenchError(RuntimeError):
    """A child process failed; the invocation prints no result."""


def load_benchmark() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(calibration: Path, tmp: Path) -> Dict[str, str]:
    """The environment of every child: ``src`` on the path, one BLAS/OpenMP
    thread, this invocation's calibration dir, and no other ``REPRO_*``
    setting (chaos plans, forced thresholds) leaking in from the caller."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    env["REPRO_CALIBRATION_DIR"] = str(calibration)
    env["TMPDIR"] = str(tmp)
    return env


def host_kernel() -> int:
    """A fixed slice of pure-Python work, independent of the program:
    JSON encode and decode, SHA-256 digests and a sort."""
    digest = 0
    for i in range(1500):
        text = json.dumps({"protocol": "witness", "n": i % 97, "seed": i, "spread": i / 7.0},
                          sort_keys=True)
        digest ^= int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)
        digest += len(json.loads(text))
    values = sorted((i * 7919) % 10007 for i in range(20000))
    return digest + sum(values[::7])


class HostSpeed:
    """How fast the shared host runs around each timed child process.

    The host's speed drifts by up to 2x within minutes (README, Noise) and
    moves every wall time with it.  The kernel is timed in a *window* of
    KERNEL_RUNS runs, spread over the CPUs this process may use, before
    every child process and once after the last one.  A child's ``factor``
    is the median kernel time of the windows on either side of it over
    REFERENCE_KERNEL_S: above 1 means the host ran slower than the
    reference.
    """

    def __init__(self) -> None:
        self.windows: List[List[float]] = []
        getaffinity = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(getaffinity(0)) if getaffinity else []

    def sample(self) -> int:
        """Time one window of kernel runs; returns its index."""
        times = []
        for run in range(KERNEL_RUNS):
            if self.cpus:
                os.sched_setaffinity(0, {self.cpus[run % len(self.cpus)]})
            start = time.perf_counter()
            host_kernel()
            times.append(time.perf_counter() - start)
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)  # children inherit the affinity
        self.windows.append(times)
        return len(self.windows) - 1

    def factor(self, window: int) -> float:
        """The slowdown around the child that ran after ``window``."""
        around = self.windows[window] + self.windows[window + 1]
        return statistics.median(around) / REFERENCE_KERNEL_S


def run_child(command: List[str], env: Dict[str, str]) -> str:
    """Run one child to completion and return its stdout.

    The child gets its own process group, so a child that overruns
    CHILD_TIMEOUT is killed together with any pool workers it started.
    """
    child = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{' '.join(command[1:4])} ran over {CHILD_TIMEOUT} s") from None
    if child.returncode != 0:
        raise BenchError(
            f"{' '.join(command[1:4])} exited with {child.returncode}:\n{stderr[-2000:]}"
        )
    return stdout


def cold_start(workload, seed: int, directory: Path, calibration: Path, env: Dict,
               host: HostSpeed) -> Tuple[float, int]:
    """Wall time of one ``python -m repro.sim.job run`` on a one-cell grid,
    with an empty calibration dir so the ``ndbatch_min_work`` probe runs
    wherever auto reaches it, and the host window before it."""
    calibration.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, "-m", "repro.sim.job", "run", "--dir", str(directory)]
    window = host.sample()
    start = time.perf_counter()
    run_child(command + workload.setup_args(seed),
              dict(env, REPRO_CALIBRATION_DIR=str(calibration)))
    return time.perf_counter() - start, window


def rep_child(mode: str, workload, seed: int, directory: Path, env: Dict, host: HostSpeed,
              index: int = 0, traced: bool = False, quick: bool = False) -> Dict:
    command = [sys.executable, str(HERE / "rep.py"), mode, "--workload", workload.name,
               "--seed", str(seed), "--dir", str(directory), "--rep", str(index)]
    if traced:
        command.append("--trace")
    if quick:
        command.append("--quick")
    window = host.sample()
    report = json.loads(run_child(command, env).strip().splitlines()[-1])
    report["window"] = window
    return report


def summary(samples: List[float], unit: str) -> Dict:
    """Median, quartiles and every sample of one metric."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "unit": unit, "q1": q1, "q3": q3,
            "samples": samples}


def run_workload(workload, seed: int, seconds: float, traced: bool, quick: bool,
                 work: Path, trace_out: Optional[Path]) -> Dict:
    """Measure one workload; returns its entry of the results document."""
    directory = work / workload.name
    calibration = directory / "calibration"
    tmp = directory / "tmp"
    tmp.mkdir(parents=True)
    env = child_env(calibration, tmp)
    host = HostSpeed()

    # The last cold start fills the calibration dir the reps then reuse.
    starts = 1 if traced or quick else SETUP_STARTS
    setup = [
        cold_start(
            workload, seed, directory / f"setup-{index}",
            calibration if index == starts - 1 else directory / f"setup-calibration-{index}",
            env,
            host,
        )
        for index in range(starts)
    ]
    prepared = rep_child("prepare", workload, seed, directory, env, host, quick=quick)
    attempted, failed = prepared["attempted"], prepared["failed"]
    failures = list(prepared["failures"])

    reports: List[Dict] = []
    wanted = 1 if quick else (TRACE_BASELINE_REPS if traced else MIN_REPS)
    while len(reports) < wanted or (
        not traced and not quick
        and sum(report["wall_s"] for report in reports) < seconds
        and len(reports) < MAX_REPS
    ):
        reports.append(rep_child("rep", workload, seed, directory, env, host,
                                 index=len(reports), quick=quick))
    traced_report = None
    if traced:
        traced_report = rep_child("rep", workload, seed, directory, env, host,
                                  index=len(reports), traced=True, quick=quick)
    for report in reports + ([traced_report] if traced_report else []):
        attempted += report["attempted"]
        failed += report["failed"]
        failures.extend(report["failures"])

    host.sample()  # the window after the last child
    rates = [report["cells"] / report["wall_s"] for report in reports]
    rep_factors = [host.factor(report["window"]) for report in reports]
    setup_factors = [host.factor(window) for _, window in setup]
    entry = {
        "cells": workload.cell_count(quick),
        "reps": len(reports),
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted if attempted else 0.0,
        "failures": failures[:10],
        # Timed metrics at the reference host speed.
        "metrics": {
            "cells_per_s": summary(
                [rate * factor ** workload.host_exponent
                 for rate, factor in zip(rates, rep_factors)],
                "cells/s",
            ),
            "setup_s": summary(
                [seconds / factor ** SETUP_HOST_EXPONENT
                 for (seconds, _), factor in zip(setup, setup_factors)],
                "s",
            ),
            "peak_rss_mb": summary([report["rss_mb"] for report in reports], "MiB"),
        },
        "measured": {
            "cells_per_s": summary(rates, "cells/s"),
            "setup_s": summary([seconds for seconds, _ in setup], "s"),
            "rep_host_factor": summary(rep_factors, "ratio"),
            "setup_host_factor": summary(setup_factors, "ratio"),
        },
    }
    if traced_report is not None:
        layers = dict(traced_report["layers"])
        traced_rate = (traced_report["cells"] / traced_report["wall_s"]
                       * host.factor(traced_report["window"]) ** workload.host_exponent)
        layers["trace.overhead_frac"] = (
            entry["metrics"]["cells_per_s"]["value"] / traced_rate - 1
        )
        entry["layers"] = layers
        entry["traced_wall_s"] = traced_report["wall_s"]
        if trace_out is not None:
            with open(trace_out, "a", encoding="utf-8") as sink:
                with open(traced_report["trace_path"], encoding="utf-8") as source:
                    shutil.copyfileobj(source, sink)
    return entry


# ---- output ----------------------------------------------------------------


def print_workload(name: str, entry: Dict, benchmark: Dict) -> None:
    print(f"== {name}: {entry['cells']} cells x {entry['reps']} reps, "
          f"failed {entry['failed']}/{entry['attempted']} "
          f"(failed_fraction {entry['failed_fraction']:.4g})")
    for failure in entry["failures"]:
        print(f"   FAILED {failure}")
    for metric in benchmark["end_to_end"]:
        value = entry["metrics"][metric["name"]]
        print(f"   {metric['name']:<14} {value['value']:>12.6g} {value['unit']:<8} "
              f"q1 {value['q1']:.6g}  q3 {value['q3']:.6g}  "
              f"({len(value['samples'])} samples)")
    measured = entry["measured"]
    print(f"   host ran {measured['rep_host_factor']['value']:.3f}x the reference kernel "
          f"time; as measured: "
          f"cells_per_s {measured['cells_per_s']['value']:.6g} cells/s, "
          f"setup_s {measured['setup_s']['value']:.6g} s")
    layers = entry.get("layers")
    if layers is None:
        return
    wall = entry["traced_wall_s"]
    print(f"   traced rep {wall:.3f} s, overhead "
          f"{layers['trace.overhead_frac']:+.1%} over the untraced median (host-scaled)")
    print(f"   {'layer':<30} {'calls':>9} {'s':>9} {'self_s':>9} {'self %':>7}")
    names = sorted({key.rsplit('.', 1)[0] for key in layers if key.endswith(".self_s")})
    for layer in sorted(names, key=lambda layer: -layers[f"{layer}.self_s"]):
        if layers[f"{layer}.calls"]:
            print(f"   {layer:<30} {layers[f'{layer}.calls']:>9} "
                  f"{layers[f'{layer}.s']:>9.4f} {layers[f'{layer}.self_s']:>9.4f} "
                  f"{layers[f'{layer}.self_s'] / wall:>7.1%}")
    for metric in benchmark["per_layer"]:
        if not metric["name"].endswith((".calls", ".s", ".self_s")):
            print(f"   {metric['name']:<30} {layers[metric['name']]:>12.6g} {metric['unit']}")


def result_line(results: Dict, benchmark: Dict, traced: bool, prefix: bool) -> Dict:
    """The contract's last line: metrics of one workload, or of all with
    ``<workload>.`` prefixed to each name."""
    metrics = {}
    for name, entry in results["workloads"].items():
        for metric in benchmark["per_layer" if traced else "end_to_end"]:
            if traced:
                value = entry["layers"][metric["name"]]
            else:
                value = entry["metrics"][metric["name"]]["value"]
            key = f"{name}.{metric['name']}" if prefix else metric["name"]
            metrics[key] = {"value": value, "unit": metric["unit"]}
    attempted = sum(entry["attempted"] for entry in results["workloads"].values())
    failed = sum(entry["failed"] for entry in results["workloads"].values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def compare(path_a: str, path_b: str, benchmark: Dict) -> int:
    """Print B/A for every workload x end-to-end metric with its verdict."""
    first = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    second = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    outside = 0
    print(f"{'workload':<15} {'metric':<13} {'A':>11} {'B':>11} {'B/A':>7}  verdict")
    for name in [name for name in first if name in second]:
        for metric in benchmark["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            within = worse <= metric["bound"]
            outside += not within
            print(f"{name:<15} {metric['name']:<13} {a:>11.5g} {b:>11.5g} {b / a:>7.3f}  "
                  f"{'within' if within else 'OUTSIDE'} bound {metric['bound']:.0%} "
                  f"(worse by {worse:+.1%})")
    return 1 if outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every grid's seed axis")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds of reps per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced rep and report the per-layer metrics")
    parser.add_argument("--out", help="write the full results document here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny grids and one rep: a smoke test of the harness")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out documents against the bounds")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], benchmark)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = HERE / ".work" / f"run-{os.getpid()}"
    trace_out = HERE / ".work" / "trace.jsonl" if args.trace else None
    results = {"seed": args.seed, "seconds": seconds, "trace": bool(args.trace),
               "quick": args.quick, "cpus": os.cpu_count(), "workloads": {}}
    try:
        work.mkdir(parents=True)
        if trace_out is not None:
            trace_out.write_text("", encoding="utf-8")
        for name in names:
            entry = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace),
                                 args.quick, work, trace_out)
            results["workloads"][name] = entry
            print_workload(name, entry, benchmark)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    line = result_line(results, benchmark, bool(args.trace), prefix=args.workload is None)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
