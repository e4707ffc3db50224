"""evoalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds src/evoalg.  Workloads:
classify-bulk, classify-edge, chain, rbo (see perfbench/README.md).  The
run measures set-up in several fresh interpreters, then runs the workload
in one more child process with BLAS/OpenMP pinned to one thread, checks
every result against its oracle and prints one line per metric followed by
the JSON result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reruns the same cycles
with the layer boundaries wrapped and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15     # measured fresh-interpreter set-ups; the median is setup_s
TIME_LIMIT = 170.0    # whole run, seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# The specific name and unit of each generic metric, per workload.
NAMED = {
    "classify-bulk": {"primary_per_s": ("classify_per_s[complex]", "matrices/s"),
                      "secondary_per_s": ("classify_per_s[real]", "matrices/s"),
                      "p50_ms": ("classify_p50_ms", "ms")},
    "classify-edge": {"primary_per_s": ("classify_per_s[complex]", "matrices/s"),
                      "secondary_per_s": ("classify_per_s[real]", "matrices/s"),
                      "p50_ms": ("classify_p50_ms", "ms")},
    "chain": {"primary_per_s": ("diagram_cells_per_s", "cells/s"),
              "secondary_per_s": ("ck_triples_per_s", "triples/s"),
              "p50_ms": ("diagram_p50_ms", "ms")},
    "rbo": {"primary_per_s": ("search_starts_per_s", "starts/s"),
            "secondary_per_s": ("rbo_verify_samples_per_s", "samples/s"),
            "p50_ms": ("search_p50_ms", "ms")},
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(mode, root, workdir, args, deadline) -> dict:
    out_path = os.path.join(workdir, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, root, workdir,
           args.workload, str(args.seed), str(args.seconds), str(args.trace), out_path]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # not a checkout; do not report an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="evoalg benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "evoalg", "__init__.py")):
        print("error: run from the root of an evoalg source tree (src/evoalg missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    workdir = os.path.join(root, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workloads.setup_inputs(args.workload, args.seed, workdir)
        # the first probe also fills the bytecode cache; it is not counted
        probes = [_child("setup", root, workdir, args, deadline)
                  for _ in range(SETUP_PROBES + 1)][1:]
        run = _child("run", root, workdir, args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_parent = os.path.dirname(workdir)
        if os.path.isdir(with_parent) and not os.listdir(with_parent):
            os.rmdir(with_parent)

    print(f"# env {json.dumps(provenance(root), sort_keys=True)}")
    for err in run["errors"]:
        print(f"# failed: {err}")
    e2e = dict(run["metrics"], setup_s=statistics.median(pr["setup_s"] for pr in probes))
    attempted, failed = run["attempted"], run["failed"]
    names = NAMED[args.workload]
    for key, unit in END_TO_END.items():
        alias = f" ({names[key][0]}, {names[key][1]})" if key in names else ""
        print(f"# {args.workload} {key} = {e2e[key]:.6g} {unit}{alias}")
    if e2e.get("p99_ms") is not None:
        print(f"# {args.workload} classify_p99_ms = {e2e['p99_ms']:.6g} ms")
    print(f"# {args.workload} fail_ratio = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} operations)")

    if args.trace:
        layer = dict(run["per_layer"],
                     **{"setup.import_s": statistics.median(pr["import_s"] for pr in probes)})
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
