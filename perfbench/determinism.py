"""Determinism check for the glsnum benchmark.

    python3 perfbench/determinism.py [--seed N] [--seconds S]

For every workload in BENCHMARK.json: two runs with the same seed must report
identical input and result digests, and a run with the next seed must report
a different input digest.  Runs are one cycle long by default.  Exits 1 on
any mismatch.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def digests(workload: str, seed: int, seconds: float) -> tuple[str, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    meta = json.loads(proc.stdout.splitlines()[0])["meta"]
    return meta["input_digest"], meta["result_digest"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first = digests(workload, args.seed, args.seconds)
        again = digests(workload, args.seed, args.seconds)
        other = digests(workload, args.seed + 1, args.seconds)
        same = first == again
        differs = other[0] != first[0]
        ok &= same and differs
        print(f"{workload}: seed {args.seed} inputs {first[0]} results "
              f"{first[1]}; repeat {'identical' if same else 'DIFFERS'}; "
              f"seed {args.seed + 1} inputs {other[0]} "
              f"({'changed' if differs else 'UNCHANGED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
