"""Benchmark of the mmseqseg engine.

    python3 perfbench/run.py --workload train|eval|gradcheck|all \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from any directory; the program is imported from `src/` next to
this directory, never from an installed copy. One process issues the
load as a closed loop: each timed unit (a train step, an eval case, a
gradient-check battery pass) starts when the previous one has finished
and its outputs have been checked.

--trace 0 prints the end-to-end metrics; --trace 1 traces every second
unit and prints the per-layer metrics, the tracing overhead and the
coverage check. The
last line of standard output is one JSON object; the lines before it
are a readable report. Set-up inputs, results and spans go under
`.perfbench/` at the repository root. The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 5
COVERAGE_TOLERANCE = 0.10  # per-layer self times vs the traced unit time

END_TO_END = (("setup_s", "s"), ("latency_ms_p50", "ms"),
              ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB"))

# Per workload, the report's names for throughput and for the p50 and
# p90 latency, with the latency's unit and its scale from seconds.
REPORT_NAMES = {
    "train": ("train_seq_per_s", "seq/s", "train_step_ms_p50",
              "train_step_ms_p90", "ms", 1e3),
    "eval": ("eval_vox_per_s", "vox/s", "eval_case_s_p50", "eval_case_s_p90",
             "s", 1.0),
    "gradcheck": ("gradcheck_checks_per_s", "check/s", "gradcheck_s",
                  "gradcheck_s_p90", "s", 1.0),
}


def cap_blas_threads():
    """Keep BLAS at no more threads than this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def load_program():
    package = os.path.join(SRC, "mmseqseg")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no mmseqseg sources under {SRC}")
    sys.path.insert(0, SRC)
    import mmseqseg
    if os.path.dirname(os.path.abspath(mmseqseg.__file__)) != package:
        raise SystemExit(f"error: imported mmseqseg from {mmseqseg.__file__}")


def time_import():
    """Seconds a fresh interpreter takes to import the package's CLI."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import mmseqseg.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True)
    return time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds, tracer=None):
    """Closed loop for `seconds` (and at least workload.min_units units).

    With a tracer, every second unit runs traced, so that traced and
    untraced units share the machine's state as it drifts.
    Returns (untraced unit times, traced unit times, attempted, failed,
    error messages).
    """
    plain, traced, attempted, failed, errors = [], [], 0, 0, []
    i = 0
    deadline = time.perf_counter() + seconds
    while i < workload.min_units or time.perf_counter() < deadline:
        tracing = tracer is not None and i % 2 == 1
        run = workload.run_unit
        if tracing:
            tracer.install()
            tracer.unit_index = i
            run = tracer.unit_span(run)
        t0 = time.perf_counter()
        out = run(i)
        elapsed = time.perf_counter() - t0
        if tracing:
            tracer.unit_index = -1
            tracer.uninstall()
        (traced if tracing else plain).append(elapsed)
        n, errs = workload.check(i, out)
        attempted += n
        failed += bool(errs)
        errors += errs
        i += 1
    return plain, traced, attempted, failed, errors


def set_up(workload):
    """Run the set-up SETUP_REPS times; returns (total s, import s) per rep."""
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        imp = time_import()
        workload.setup()
        reps.append((time.perf_counter() - t0, imp))
    return reps


def end_to_end(workload, samples, setups):
    return {
        "setup_s": statistics.median(t for t, _ in setups),
        "latency_ms_p50": statistics.median(samples) * 1e3,
        "throughput_per_s": workload.items_per_unit() * len(samples) / sum(samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_rows(workload, samples, setups, attempted, failed):
    """The readable report, under the names each workload's users know."""
    thr, thr_unit, p50, p90, lat_unit, scale = REPORT_NAMES[workload.name]
    e2e = end_to_end(workload, samples, setups)
    cut = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    beyond = sum(s > cut for s in samples)
    rows = [("setup_s", e2e["setup_s"], "s",
             f"median of {len(setups)}; fresh-interpreter import "
             f"{statistics.median(i for _, i in setups):.3f} s"),
            (thr, e2e["throughput_per_s"], thr_unit, ""),
            (p50, statistics.median(samples) * scale, lat_unit,
             f"n={len(samples)} {workload.units}"),
            (p90, cut * scale if beyond >= 10 else float("nan"), lat_unit,
             f"{beyond} beyond" + ("" if beyond >= 10 else ", fewer than 10"))]
    if workload.name == "train":
        rows.append(("train_loss_end", workload.loss_end(), "loss",
                     "mean of the last 10 steps"))
    rows += [("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
             ("fail_ratio", failed / attempted, "ratio",
              f"{failed} of {attempted} {workload.ops} failed")]
    return e2e, rows


def run_workload(args):
    import envinfo
    import tracer as tracing
    import workloads

    env = envinfo.environment()
    print("env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    tracer = tracing.Tracer(sys.modules) if args.trace else None

    if tracer is not None:
        tracer.install()
    setups = set_up(workload)
    if tracer is not None:
        tracer.uninstall()
    workload.reference()

    samples, traced, attempted, failed, errors = measure(workload, args.seconds,
                                                         tracer)
    trend = workload.finish()
    failed += len(trend)
    errors += trend

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(samples)} {workload.units} in {sum(samples):.1f} s"
          + (f" untraced, {len(traced)} traced" if tracer else ""))
    e2e, rows = report_rows(workload, samples, setups, attempted, failed)
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<8} {note}")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        values = tracer.layer_metrics(len(traced), len(setups))
        values["trace.overhead_ratio"] = \
            statistics.median(traced) / statistics.median(samples) - 1.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_names()}
        print_layers(values)
        coverage = values["trace.coverage_ratio"]
        ok = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
        print(f"  coverage: layer self times are {coverage:.4f} of the traced "
              f"unit time: {'PASS' if ok else 'FAIL'}")
        print(f"  tracing overhead: {values['trace.overhead_ratio']:+.4f} of "
              f"the untraced median ({statistics.median(samples) * 1e3:.1f} ms "
              f"untraced, {statistics.median(traced) * 1e3:.1f} ms traced)")
        if not ok:
            errors.append(f"coverage {coverage:.4f} outside 1 +/- "
                          f"{COVERAGE_TOLERANCE}")
        spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.npz")
        tracer.write(spans)
        print(f"  {len(tracer.start)} spans written to {os.path.relpath(spans, ROOT)}")

    for err in errors:
        print(f"  CHECK FAILED: {err}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-"
                                 f"trace{args.trace}.json"), "w") as f:
        json.dump({"env": env, "args": vars(args), "errors": errors,
                   "report": rows, "unit_s": samples,
                   "setup_s": [t for t, _ in setups], **result}, f, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


def print_layers(values):
    timed = sorted(((v, k) for k, v in values.items() if k.endswith("ms")),
                   reverse=True)
    print("  per-layer self time per unit (ms), largest first:")
    for v, k in timed:
        if v > 0:
            print(f"    {k:<40} {v:>12.4f}")


def run_all(args):
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("train", "eval", "gradcheck"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result.get("correct"):
            merged["correct"] = False
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "eval", "gradcheck", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the smoke test")
    args = p.parse_args(argv)
    cap_blas_threads()
    load_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
