"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 bench/steady.py --workloads store retrieve provision \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 35 [--trace 1] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
reports for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
for the calibrated metrics and for the same figures in wall-clock time.
Traced runs also report, from their span files, where the wall time of
the timed loop's ops went: self time per layer, and the inclusive share
of the groups the benchmark's predictions name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Inclusive-time groups: a span counts when no ancestor is also in the group.
GROUPS = {
    "codec.encode_with_pads": ("codec.encode_with_pads",),
    "codec.decode": ("codec.decode",),
    "access+verify+transfer_map": ("access.", "verify.", "codec.transfer_map"),
    "access": ("access.",),
    "verify+transfer_map": ("verify.", "codec.transfer_map"),
    "files.plan_from_dict": ("files.plan_from_dict",),
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def loop_shares(trace_file: Path, ops_s: float) -> dict:
    """Shares of the wall time spent in the timed loop's ops, from one span file."""
    doc = json.loads(trace_file.read_text())
    names = doc["names"]
    spans = [(names[i], a, b, parent, op) for i, a, b, parent, op in doc["spans"]]
    child = [0] * len(spans)
    for _, a, b, parent, _ in spans:
        if parent >= 0:
            child[parent] += b - a
    layer_self: Counter = Counter()
    grouped: Counter = Counter()
    for idx, (name, a, b, parent, op) in enumerate(spans):
        if op < 0:  # set-up
            continue
        layer_self[name.split(".")[0]] += (b - a - child[idx]) / 1e9
        for group, prefixes in GROUPS.items():
            if not name.startswith(prefixes):
                continue
            up = parent
            while up >= 0 and not spans[up][0].startswith(prefixes):
                up = spans[up][3]
            if up < 0:
                grouped[group] += (b - a) / 1e9
    return {
        "layer_self_share": {k: v / ops_s for k, v in sorted(layer_self.items())},
        "group_inclusive_share": {k: grouped[k] / ops_s for k in GROUPS},
    }


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["store", "retrieve", "provision"])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report here as JSON")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        metrics: dict = {}
        wall: dict = {}  # the same figures, not calibrated
        shares: dict = {}
        failed = attempted = 0
        meta = None
        for seed in args.seeds:
            meta, result = run_once(workload, seed, args.seconds, args.trace)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, v in meta["wall"].items():
                wall.setdefault(name, []).append(v)
            if args.trace:
                for kind, values in loop_shares(ROOT / meta["trace_file"], meta["ops_s"]).items():
                    for key, v in values.items():
                        shares.setdefault(kind, {}).setdefault(key, []).append(v)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if not args.trace or k == "trace.ops_per_s"), file=sys.stderr)
        entry = {
            "failed": failed,
            "attempted": attempted,
            "failed_share": failed / attempted,
            "samples_per_run": meta["samples"],
            "params": meta["params"],
            "metrics": {name: summary(v) for name, v in metrics.items()},
            "wall_metrics": {name: summary(v) for name, v in wall.items()},
        }
        if shares:
            entry["loop_shares_median"] = {
                kind: {k: statistics.median(v) for k, v in values.items()}
                for kind, values in shares.items()
            }
        report[workload] = entry
        if not args.trace:
            for name, s in entry["metrics"].items():
                print(f"  {workload:9s} {name:12s} median {s['median']:.5g}"
                      f"  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}",
                      file=sys.stderr)
            for name, s in entry["wall_metrics"].items():
                print(f"  {workload:9s} {name:12s} (wall) median {s['median']:.5g}"
                      f"  spread {s['spread']:.3f}", file=sys.stderr)
    doc = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
           "machine": {k: meta[k] for k in ("git_sha", "python", "nproc", "cpu")},
           "workloads": report}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
