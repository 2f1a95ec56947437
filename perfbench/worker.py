"""One workload in a fresh interpreter: import, set-up, then a closed loop.

Started by run.py, one process per sample; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace

`setup` stops after set-up.  `run` issues round(S / cycle_seconds) whole
cycles of queries (at least one; about S seconds on the reference machine)
with no wrappers installed.  `trace` installs the tracer before set-up
(set-up spans carry query id -1), runs one untimed warm-up cycle and about
S/2 seconds of queries untraced, replays the same queries traced, and
reports per-layer figures and the traced/untraced time ratio.  Both then run
the workload's probe queries once, untimed and untraced, and report their
failures apart from the run's own.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_out"


def closed_loop(stream, *, cycles: int | None = None,
                count: int | None = None, tracer=None) -> dict:
    """Issue queries one after another: `cycles` whole cycles, or the first
    `count` queries.  Each query is timed on its own; its check runs
    afterwards, untimed and untraced."""
    latencies: list[float] = []
    kinds: dict[str, list[int]] = {}
    messages: list[str] = []
    results = hashlib.sha256()
    opened = 0
    start = time.monotonic()
    for i, query in enumerate(stream):
        opened += query.opens_cycle
        if i == count or (cycles is not None and opened > cycles):
            break
        if tracer is not None:
            tracer.query_id = i
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = query.run()
            error = None
        except Exception as exc:  # a failing query is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        token = "raised"
        if error is None:
            try:
                error, token = query.check(result)
            except Exception as exc:  # a result the check cannot read
                error = f"check raised {type(exc).__name__}: {exc}"
        latencies.append(elapsed)
        tally = kinds.setdefault(query.kind, [0, 0])
        tally[0] += 1
        if error is not None:
            tally[1] += 1
            if len(messages) < 8:
                messages.append(f"#{i} {query.kind}: {error}")
        results.update(f"{query.kind}:{token}\n".encode())
    return {"start": start, "latencies": latencies, "kinds": kinds,
            "messages": messages,
            "result_digest": results.hexdigest()[:16],
            "failed": sum(t[1] for t in kinds.values())}


def cycles_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.cycle_seconds))


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above
    it (the maximum when a run has fewer than eleven samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 11:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {"latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_tail_ms": tail * 1e3, "tail_percentile": pct,
            "samples": n, "ops_per_s": n / sum(ordered)}


def traced_comparison(workload, seconds: float, tracer, out: dict
                      ) -> list[dict]:
    """Untraced queries for about seconds/2, then the same queries traced.

    One untimed cycle runs first, so that the first-use costs of a fresh
    process fall on neither side of the traced/untraced ratio.
    """
    closed_loop(workload.queries(), cycles=1)
    plain = closed_loop(workload.queries(),
                        cycles=cycles_for(workload, seconds / 2))
    traced = closed_loop(workload.queries(), count=len(plain["latencies"]),
                         tracer=tracer)
    if traced["result_digest"] != plain["result_digest"]:
        traced["messages"].append("traced results differ from untraced")
        traced["failed"] += 1
    layers = tracer.metrics()
    layers["import.glsnum_s"] = out["import_s"]
    layers["trace.overhead_frac"] = (sum(traced["latencies"])
                                     / sum(plain["latencies"]) - 1.0)
    out.update(layers=layers, spans=len(tracer.spans),
               dropped_spans=tracer.dropped_spans)
    return [plain, traced]


def write_spans(tracer, workload: str, seed: int) -> str:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for span_id, parent, query, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent,
                                 "query": query, "name": name,
                                 "start": start, "end": end}) + "\n")
    return str(path.relative_to(ROOT))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import glsnum
    import_s = time.perf_counter() - t0
    if Path(glsnum.__file__).resolve().parent != (src / "glsnum").resolve():
        print(f"imported glsnum from {glsnum.__file__}, not {src}",
              file=sys.stderr)
        return 3
    import numpy
    import scipy
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True  # set-up spans carry query id -1
    try:
        workload = WORKLOADS[args.workload](args.seed)
        workload.setup()
        out = {"import_s": import_s, "setup_end": time.monotonic(),
               "input_digest": workload.digest.hexdigest(),
               "numpy": numpy.__version__, "scipy": scipy.__version__}
        if tracer is not None:
            tracer.enabled = False
        if args.mode == "setup":
            print(json.dumps(out))
            return 0
        if args.mode == "run":
            loops = [closed_loop(workload.queries(),
                                 cycles=cycles_for(workload, args.seconds))]
            out.update(latency_summary(loops[0]["latencies"]))
        else:
            loops = traced_comparison(workload, args.seconds, tracer, out)
            out["span_file"] = write_spans(tracer, args.workload, args.seed)
        probe = closed_loop(workload.probe())
    finally:
        if tracer is not None:
            tracer.uninstall()

    kinds: dict[str, list[int]] = {}
    for one in loops:
        for kind, (n, failed) in one["kinds"].items():
            tally = kinds.setdefault(kind, [0, 0])
            tally[0] += n
            tally[1] += failed
    out.update(
        first_query=loops[0]["start"],
        attempted=sum(len(one["latencies"]) for one in loops),
        failed=sum(one["failed"] for one in loops),
        kinds=kinds,
        messages=sum((one["messages"] for one in loops), []),
        result_digest=loops[0]["result_digest"],
        probe={"attempted": len(probe["latencies"]),
               "failed": probe["failed"], "kinds": probe["kinds"],
               "messages": probe["messages"],
               "result_digest": probe["result_digest"]},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
