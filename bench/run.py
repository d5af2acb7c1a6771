"""Run one benchmark workload against the dmuss sources of this checkout.

    python3 bench/run.py --workload store|retrieve|provision \\
        --seed N --seconds S --trace 0|1

Set-up runs several times and ``setup_s`` is the median; the timed loop
then runs for about ``--seconds`` (see ``workloads.timed_loop``).  Every
time reported is calibrated: scaled to a nominal host speed by a
reference kernel read next to it (see ``calib.py``); the wall-clock
figures are in the metadata line.
With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported; with ``--trace 1`` the layer boundaries are wrapped (see
``tracer.py``), the spans are written to ``.bench_out/`` and the
per-layer metrics are reported.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the run's metadata and ``failed_share``.  Exit
code 2 means the checkout has no dmuss sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Set-up is repeated at least SETUP_MIN_RUNS times and until SETUP_MIN_S
# have passed, so a short set-up still gets a steady median.
SETUP_MIN_RUNS = 3
SETUP_MAX_RUNS = 50
SETUP_MIN_S = 1.0


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` in the checkout, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile_ms(latencies: list, q: int) -> float:
    """The q-th percentile of the latencies, in milliseconds."""
    ms = [x * 1000.0 for x in latencies]
    if len(ms) == 1:
        return ms[0]
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


def set_up(workload, once: bool) -> tuple:
    """Run the workload's set-up, repeatedly unless ``once``.

    Returns the wall time of each run and its calibrated time, scaled by
    reference readings taken before and after it (see ``calib.py``).
    """
    wall, scaled = [], []
    before = calib.reading()
    while True:
        began = time.perf_counter()
        workload.setup()
        took = time.perf_counter() - began
        after = calib.reading()
        wall.append(took)
        scaled.append(took * calib.scale(before, after))
        before = after
        if once or len(wall) >= SETUP_MAX_RUNS:
            return wall, scaled
        if len(wall) >= SETUP_MIN_RUNS and sum(wall) >= SETUP_MIN_S:
            return wall, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("store", "retrieve", "provision"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dmuss" / "__init__.py").is_file():
        print(f"bench: no dmuss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dmuss

    if Path(dmuss.__file__).resolve().parent != SRC / "dmuss":
        print(f"bench: imported dmuss from {dmuss.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    tracer = Tracer() if args.trace else None
    tally = workloads.Tally()
    try:
        if tracer is not None:
            tracer.install()
            tracer.op = -1  # set-up spans
        # a traced run reports no set-up time, so it sets up once
        setup_wall, setup_times = set_up(workload, once=tracer is not None)
        loop_s = workloads.timed_loop(workload.batches(), tally, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    latencies = tally.calibrated()
    ops_per_s = tally.attempted / sum(latencies)
    failed_share = tally.failed / tally.attempted
    samples = len(latencies)
    readings = sorted(tally.readings)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loop_s": loop_s,
        "ops_s": sum(tally.latencies),  # wall time inside ops, readings excluded
        "setup_runs_s": setup_wall,
        "calibration": {
            "ref_nominal_s": calib.REF_NOMINAL_S,
            "readings": len(readings),
            "ref_s_min_median_max": [readings[0], statistics.median(readings), readings[-1]],
        },
        "wall": {
            "ops_per_s": tally.attempted / sum(tally.latencies),
            "op_ms_p50": percentile_ms(tally.latencies, 50),
            "op_ms_p90": percentile_ms(tally.latencies, 90),
            "setup_s": statistics.median(setup_wall),
        },
        "samples": {"op_ms_p50": samples, "op_ms_p90": samples},
        "failed_share": {"value": failed_share, "unit": "share"},
        "failures": tally.failures,
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (percentile_ms(latencies, 50), "ms"),
            "op_ms_p90": (percentile_ms(latencies, 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(tally.attempted)
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        meta["spans"] = len(tracer.spans)
        meta["trace_file"] = str(trace_path.relative_to(ROOT))

    for failure in tally.failures:
        print(f"bench: failed op: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
