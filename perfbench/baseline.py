#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/baseline.py --seeds 0-9 [--workloads op-sweep,hs-sweep]
        [--trace-seeds 0,1] [--out perfbench/BENCH_1.json]

Runs ``run.py`` once per (seed, workload), one run at a time, cycling the
workloads inside each seed so that a slow drift of the machine touches
every workload alike.  For each end-to-end metric it prints the median,
the quartiles and the quartile spread as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--trace-seeds`` adds traced
runs, whose per-layer medians and exact counts go into the ``--out`` file
together with the environment, the seeds and every run's values.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": info["env"], "detail": info["detail"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def is_count(metric: str) -> bool:
    return (metric.endswith("_per_trial") or metric in (
        "runner.chunks", "scalar.points", "linalg.pow_cache_hit_ratio"))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--out")
    args = p.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seed_list(args.seeds):
        for w in names:
            r = one_run(w, seed, args.seconds, traced=False)
            runs[w].append(r)
            print(f"{w:<14} seed={seed:<3} correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']}  " + "  ".join(f"{k}={v:.5g}" for k, v in
                                                    r["metrics"].items()), flush=True)
    for seed in seed_list(args.trace_seeds) if args.trace_seeds else []:
        for w in names:
            traced[w].append(one_run(w, seed, args.seconds, traced=True))
    ok = True
    summary: dict[str, dict] = {}
    print(f"\n{'workload':<14} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in names:
        summary[w] = {"end_to_end": {}}
        for name, m in bounds.items():
            s = spread([r["metrics"][name] for r in runs[w]])
            s["unit"] = m["unit"]
            summary[w]["end_to_end"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > m["bound"] / 3:
                flag = "  > bound/3"
                ok = False
            print(f"{w:<14} {name:<16} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {m['bound']:>6}{flag}")
        summary[w]["failed_ops_ratio"] = (sum(r["failed"] for r in runs[w])
                                          / sum(r["attempted"] for r in runs[w]))
        if traced[w]:
            layers = traced[w][0]["metrics"]
            summary[w]["per_layer"] = {
                k: statistics.median(t["metrics"][k] for t in traced[w]) for k in layers}
            summary[w]["trace_detail"] = [t["detail"] for t in traced[w]]
            # exact counts do not depend on the seed, so every traced run agrees
            counts = [{k: v for k, v in t["metrics"].items() if is_count(k)}
                      for t in traced[w]]
            summary[w]["counts_identical_across_runs"] = all(c == counts[0] for c in counts)
            if not summary[w]["counts_identical_across_runs"]:
                print(f"{w}: exact counts differ between traced runs")
                ok = False
    env = runs[names[0]][0]["env"]
    if args.out:
        doc = {"benchmark": spec["command"], "run_seconds": args.seconds,
               "seeds": seed_list(args.seeds),
               "trace_seeds": seed_list(args.trace_seeds) if args.trace_seeds else [],
               "env": env, "workloads": summary,
               "runs": {w: runs[w] for w in names}}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print("\nall spreads within bound/3, counts repeat" if ok
          else "\nsome spread exceeds bound/3, or counts differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
