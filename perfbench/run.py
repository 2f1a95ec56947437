"""glsnum benchmark: run one workload, end to end or traced.

    python3 perfbench/run.py --workload wide-atoms --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout (the one holding src/glsnum).  Every
sample runs in a fresh interpreter started by this script, one at a time:

* `--trace 0`: two set-up-only processes around one measuring process; the
  end-to-end metrics declared in BENCHMARK.json, with `setup_s` the median of
  the three set-ups.
* `--trace 1`: one process that runs untraced, then traced over the same
  queries; the per-layer metrics declared in BENCHMARK.json.

Informational lines (one JSON `meta` object) come first; the last stdout line
is the result: {"correct", "attempted", "failed", "metrics"}.  `correct`,
`attempted` and `failed` count the timed queries; the workload's probe
queries (wide-atoms: the 10^k-scaled inputs) are reported in the meta line
under `probe`, and their failure share as `scale_probe.fail_frac` per layer.  Exits non-zero
without a result when glsnum's sources are missing or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a later claim must also hold on this seed, which tuning never used
HELD_OUT_SEED = 7919
#: every run, workers included, ends within this many seconds
RUN_BUDGET_S = 175.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def machine() -> dict:
    """Machine facts recorded with every result."""
    info = {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (
                index / "size").read_text().strip()
        except OSError:
            continue
    return info


def worker_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_ENV:
        env.setdefault(name, "1")  # no BLAS or OpenMP worker threads
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (start time, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker overran the run budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "glsnum" / "__init__.py").is_file():
        print(f"no glsnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, main_out = spawn(args, "trace", deadline)
            values = dict(main_out["layers"])
            values["fail_frac"] = main_out["failed"] / main_out["attempted"]
            probe = main_out["probe"]
            values["scale_probe.fail_frac"] = (
                probe["failed"] / probe["attempted"] if probe["attempted"]
                else 0.0)
            declared = spec["per_layer"]
            setups = []
        else:
            setups = []
            started, first = spawn(args, "setup", deadline)
            setups.append(first["setup_end"] - started)
            started, main_out = spawn(args, "run", deadline)
            setups.append(main_out["first_query"] - started)
            started, last = spawn(args, "setup", deadline)
            setups.append(last["setup_end"] - started)
            if not (first["input_digest"] == main_out["input_digest"]
                    == last["input_digest"]):
                raise WorkerError("input digests differ between processes")
            values = {key: main_out[key] for key in (
                "ops_per_s", "latency_p50_ms", "latency_tail_ms",
                "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups)
            declared = spec["end_to_end"]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = worker_env()
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED,
        "input_digest": main_out["input_digest"],
        "result_digest": main_out["result_digest"],
        "queries_by_kind": main_out["kinds"],
        "fail_frac": main_out["failed"] / main_out["attempted"],
        "failures": main_out["messages"],
        "probe": main_out["probe"],
        "setup_samples_s": setups,
        "import_s": main_out["import_s"],
        "numpy": main_out["numpy"], "scipy": main_out["scipy"],
        "thread_env": {name: env[name] for name in THREAD_ENV},
        **machine(),
    }
    for key in ("tail_percentile", "samples", "spans", "dropped_spans",
                "span_file"):
        if key in main_out:
            meta[key] = main_out[key]
    print(json.dumps({"meta": meta}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": main_out["failed"] == 0,
                      "attempted": main_out["attempted"],
                      "failed": main_out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
