"""Run-to-run spread of the end-to-end metrics, and the held-out seed check.

    python3 perfbench/spread.py --workloads train,eval,gradcheck \
        --seeds 1-10 [--held-out 101-105]

Runs the benchmark once per seed and workload, one run at a time, with
the run length BENCHMARK.json fixes. For each end-to-end metric it
prints the median and the spread, (Q3 - Q1) / median with the quartiles
of `statistics.quantiles(values, n=4)`, against the metric's bound. A
spread above a third of the bound is marked "wide", above the bound
"FAIL" (setup_s is exempt: only its median is compared). With
--held-out, the held-out seeds' median of every metric must not be
worse than the first seeds' median by more than the bound. Summaries go
to .perfbench/spread-<workload>.json; the exit code is 1 if any run
failed its checks or any comparison failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(f"  {workload} seed {seed}: exit {proc.returncode}, {wall:.1f} s wall",
          flush=True)
    return result, wall


def collect(workload, seeds, seconds, metrics):
    values = {m["name"]: [] for m in metrics}
    ok, walls = True, []
    for seed in seeds:
        result, wall = run_once(workload, seed, seconds)
        walls.append(wall)
        if result is None or not result["correct"]:
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values, ok, walls


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="train,eval,gradcheck")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--held-out", type=seed_range, dest="held_out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    good = True
    for workload in args.workloads.split(","):
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}", flush=True)
        values, ok, walls = collect(workload, args.seeds, spec["run_seconds"],
                                    metrics)
        held = None
        if args.held_out:
            held, held_ok, more = collect(workload, args.held_out,
                                          spec["run_seconds"], metrics)
            ok, walls = ok and held_ok, walls + more
        good = good and ok
        summary = {"seeds": args.seeds, "held_out": args.held_out,
                   "wall_s": walls, "values": values, "held_out_values": held,
                   "metrics": {}}
        print(f"{workload}: mean wall {statistics.mean(walls):.1f} s per run")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = values[name]
            if len(vals) < 2:
                good = False
                continue
            s = spread(vals)
            verdict = "ok" if s < bound / 3 else "wide" if s <= bound else "FAIL"
            if name == "setup_s" and verdict != "ok":
                verdict += " (exempt)"
            elif verdict == "FAIL":
                good = False
            line = (f"  {name:<18} median {statistics.median(vals):>14.6g} "
                    f"{m['unit']:<5} spread {s:.4f} (bound {bound}): {verdict}")
            entry = {"median": statistics.median(vals), "spread": s,
                     "verdict": verdict}
            if held and len(held[name]) >= 2:
                w = worse_by(m, statistics.median(vals), statistics.median(held[name]))
                held_verdict = "ok" if w <= bound else "FAIL"
                good = good and held_verdict == "ok"
                line += (f"; held-out median {statistics.median(held[name]):.6g}"
                         f" spread {spread(held[name]):.4f}, worse by {w:+.4f}:"
                         f" {held_verdict}")
                entry.update(held_out_median=statistics.median(held[name]),
                             held_out_spread=spread(held[name]),
                             held_out_worse_by=w)
            summary["metrics"][name] = entry
            print(line, flush=True)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench", f"spread-{workload}.json"),
                  "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
