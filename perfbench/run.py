"""End-to-end benchmark of the eigenfem command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (child.py) that imports
``eigenfem.cli`` from ``src/`` and calls ``main(argv)`` once, because every
real ``eigenfem`` invocation is a new process.  Repetitions run one at a
time, each with its own empty ``--out`` directory, until the next one would
overrun ``--seconds``; every repetition's output files are checked (see
workloads.py).  ``EIGENFEM_THREADS`` is cleared and BLAS threads are capped
at the number of usable CPUs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median ``wall_s`` of ``main(argv)``, median ``setup_s`` of the import (also
sampled by import-only interpreters), median ``peak_rss_mb`` and
``ok_frac``, the share of repetitions that passed.  Both times are scaled
to a nominal CPU speed by a probe that samples the interpreter's speed
while they run (see child.py); the unscaled times are recorded beside
them.  With ``--trace 1`` untraced and traced repetitions alternate, and
the line reports the
per-layer metrics of layers.py, the output size and the tracing overhead.
The line before it records the inputs, sample counts and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Relative to ROOT, the working directory of the run and of every child, so
# that the paths the program records in its outputs do not depend on where
# the checkout lives.
WORK = ".bench_work"

IMPORT_SAMPLES = 4      # import-only interpreters per run, after one warm-up
HARD_LIMIT_S = 160.0    # no repetition may run past this point of the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("EIGENFEM_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(usable_cpus())
    return env


class Runner:
    """Runs child interpreters one at a time inside one work directory."""

    def __init__(self, work: str, t_start: float):
        self.work = work
        self.t_start = t_start
        self.env = child_env()
        self.n = 0

    def child(self, flags: list, argv: list) -> dict:
        """Run child.py once; return its result, with 'error' set on a crash or timeout."""
        self.n += 1
        result_path = os.path.join(self.work, f"result{self.n}.json")
        log_path = os.path.join(self.work, f"child{self.n}.log")
        timeout = max(HARD_LIMIT_S - (time.perf_counter() - self.t_start), 5.0)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, *flags, "--", *argv]
        t0 = time.perf_counter()
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(cmd, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                return {"error": f"timed out after {timeout:.0f} s",
                        "elapsed": time.perf_counter() - t0}
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            return {"error": f"interpreter exited with {proc.returncode}:\n{tail}",
                    "elapsed": time.perf_counter() - t0}
        with open(result_path) as fh:
            result = json.load(fh)
        if not os.path.abspath(result["module"]).startswith(SRC + os.sep):
            raise SystemExit(f"eigenfem was imported from {result['module']}, not from {SRC}")
        result["elapsed"] = time.perf_counter() - t0
        return result


def output_bytes(out: str) -> int:
    if not os.path.isdir(out):
        return 0
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


def run(args, workload, t_start: float) -> int:
    import numpy
    import scipy

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{workload.name}-{os.getpid():07d}")
    os.makedirs(work)
    try:
        inputs = workload.prepare(args.seed, work)
        runner = Runner(work, t_start)

        setup_runs = []
        for i in range(IMPORT_SAMPLES + 1):
            r = runner.child(["--import-only"], [])
            if "error" in r:
                print(f"import failed: {r['error']}", file=sys.stderr)
                return 1
            if i > 0:  # the first interpreter also compiles bytecode
                setup_runs.append(r)

        reps = []
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            out = os.path.join(work, f"out{len(reps)}")
            r = runner.child(["--trace"] if traced else [], workload.argv(out))
            r["traced"] = traced
            if "error" not in r:
                try:
                    problems = workload.check(out, r["exit_code"])
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problems = [f"output unreadable: {exc!r}"]
                if problems:
                    r["error"] = "; ".join(problems)
                if traced:
                    r["trace"]["cli.output_bytes"] = output_bytes(out)
            shutil.rmtree(out, ignore_errors=True)
            if "error" in r:
                print(f"repetition {len(reps) + 1} failed: {r['error']}", file=sys.stderr)
            reps.append(r)
            longest = max(longest, r["elapsed"])
            now = time.perf_counter()
            need_traced = bool(args.trace) and not any(x["traced"] for x in reps)
            if now - t_start + longest > HARD_LIMIT_S or "timed out" in r.get("error", ""):
                break
            if now + longest > deadline and not need_traced:
                break

        plain = [r for r in reps if not r["traced"] and "wall_s" in r]
        traced = [r for r in reps if r["traced"] and "trace" in r]
        timed = setup_runs + [r for r in reps if "setup_s" in r]
        failed = sum(1 for r in reps if "error" in r)
        if not plain or (args.trace and not traced):
            print("no repetition completed", file=sys.stderr)
            return 1

        wall = statistics.median(r["wall_s"] for r in plain)
        if args.trace:
            metrics = {name: statistics.median(r["trace"][name] for r in traced)
                       for name in traced[0]["trace"]}
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        else:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(r["setup_s"] for r in timed),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "ok_frac": (len(reps) - failed) / len(reps),
            }
        declared = spec["per_layer" if args.trace else "end_to_end"]
        if set(metrics) != {m["name"] for m in declared}:
            raise SystemExit("measured metrics do not match BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
        print(json.dumps({
            "workload": workload.name, "inputs": inputs,
            "samples": {"wall_s": [r["wall_s"] for r in plain],
                        "raw_wall_s": [r["raw"]["wall_s"] for r in plain],
                        "traced_wall_s": [r["wall_s"] for r in traced],
                        "setup_s": [r["setup_s"] for r in timed],
                        "raw_setup_s": [r["raw"]["setup_s"] for r in timed],
                        "probe_mean_s": [r["probe_mean_s"] for r in timed],
                        "probe_samples": [r["probe_samples"] for r in timed]},
            "env": {"nproc": usable_cpus(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        }))
        print(json.dumps({
            "correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def main() -> int:
    t_start = time.perf_counter()
    os.chdir(ROOT)
    # On SIGTERM, unwind so that subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:
        os.environ[var] = str(usable_cpus())
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "eigenfem", "cli.py")):
        print(f"no eigenfem sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run(args, WORKLOADS[args.workload](), t_start)


if __name__ == "__main__":
    sys.exit(main())
