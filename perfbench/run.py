#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ltinfomax.

    python3 perfbench/run.py --workload ablate-default --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. Each
workload runs closed loop: a pass is one call of the workload's entry
point, and the next pass starts when the previous one returns, until
the next pass would overrun ``--seconds`` (at least one pass is made).
Every pass writes its result files under .bench_out/ and is checked:
the run count, every accuracy finite and in [0, 1], and the mean
accuracy (and, on ablate-default, the alpha gain) against
perfbench/reference.json for the seeds it lists.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus trace.overhead_frac. BLAS thread settings are left as found and
recorded with the environment.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
check passed, 1 when one failed and 2 when the package is missing.
"""

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "steps_per_s": "1/s",
    "run_s_p50": "s",
    "run_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "objectives.infomax_loss_and_grad.us_p50": "us",
    "objectives.infomax_loss_and_grad.calls": "count",
    "numerics.softmax.calls_per_step": "count",
    "trainer.train_step.us_p50": "us",
    "trainer.train_step.self_us_p50": "us",
    "data.augment_pair.us_p50": "us",
    "trainer.train.self_ms": "ms",
    "trainer.evaluate.ms_p50": "ms",
    "experiments.split_sources.ms_p50": "ms",
    "experiments.build_domains.ms": "ms",
    "experiments.build_domains.calls": "count",
    "experiments.write.ms": "ms",
    "experiments.write.bytes": "bytes",
    "experiments.pool.util": "fraction",
    "experiments.pool.overhead_s": "s",
    "objectives.accepted_fraction": "fraction",
    "trace.overhead_frac": "fraction",
}

# Timed in a fresh interpreter: import plus the workload's world build.
SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ltinfomax
from ltinfomax.experiments import ExperimentConfig, build_domains
build_domains(ExperimentConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def blas_info():
    """BLAS name, version and thread count as numpy's OpenBLAS reports them."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "start_method": multiprocessing.get_start_method(),
    }


def measure_setup(config):
    """Median over fresh processes of import ltinfomax + build_domains."""
    fields = {k: v for k, v in vars(config).items() if k != "out_dir"}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(fields)],
                             cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def load_reference(seed, workload):
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    return ref["tolerance"], ref["seeds"].get(str(seed), {}).get(workload)


def run_pass(workload, config, tracer, steps_per_pass):
    """One call of the workload's entry point, timed, then checked.

    Raises CheckFailure (or whatever the package raised) when the pass
    cannot be counted.
    """
    if tracer:
        tracer.install()
    try:
        t0 = perf_counter()
        result = workload.run(config)
        wall = perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    runs, failed, problems = workloads.check_pass(workload, config, result)
    record = {"traced": bool(tracer), "wall": wall, "runs": runs, "failed": failed,
              "problems": problems,
              "mean_accuracy": statistics.fmean(a for a, _ in runs) if runs else math.nan}
    if workload.alpha_gain(result) is not None:
        record["alpha_gain"] = workload.alpha_gain(result)
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer, steps_per_pass)
    return record


def check_results(record, reference, tolerance, first):
    """Results must match the first pass exactly and the reference within tolerance."""
    for key in ("mean_accuracy", "alpha_gain"):
        if key not in record:
            continue
        value = record[key]
        if reference is not None and not abs(value - reference[key]) <= tolerance[key]:
            raise workloads.CheckFailure(
                f"{key} {value!r} differs from the reference {reference[key]!r}")
        if first is not None and value != first[key]:
            raise workloads.CheckFailure(
                f"{key} {value!r} differs from the first pass's {first[key]!r}")


def end_to_end(workload, config, plain, runs_per_pass, steps_per_pass, details):
    """Medians over the run's passes, so one slow pass does not set a figure."""
    walls = [p["wall"] for p in plain]
    run_walls = [[w for _, w in p["runs"]] for p in plain]
    # before measure_setup, whose interpreters would count as children
    rss = peak_rss_mb(with_children=workload.base.jobs > 1)
    setup, setup_samples = measure_setup(config)
    details.update(run_samples=sum(map(len, run_walls)), setup_samples=setup_samples,
                   pass_walls=walls)
    return {
        "runs_per_s": statistics.median(runs_per_pass / w for w in walls),
        "steps_per_s": statistics.median(steps_per_pass / w for w in walls),
        "run_s_p50": statistics.median(statistics.median(w) for w in run_walls),
        "run_s_p90": statistics.median(statistics.quantiles(w, n=10)[8] for w in run_walls),
        "setup_s": setup,
        "peak_rss_mb": rss,
    }


def per_layer(plain, traced, details):
    values = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    values["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced)
                                     / statistics.median(p["wall"] for p in plain) - 1.0)
    details["pass_walls"] = {"plain": [p["wall"] for p in plain],
                             "traced": [p["wall"] for p in traced]}
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ltinfomax" / "__init__.py").is_file():
        print(f"perfbench: no ltinfomax package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ltinfomax
    if Path(ltinfomax.__file__).resolve().parent != SRC / "ltinfomax":
        print(f"perfbench: imported ltinfomax from {ltinfomax.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    global tracing, workloads  # importable only once src/ is on the path
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{workload.name}-{os.getpid()}"
    config = workload.config(args.seed, run_dir)
    runs_per_pass, steps_per_pass = workloads.plan(workload, config)
    tolerance, reference = load_reference(args.seed, workload.name)
    tracer = tracing.Tracer()

    # warm-up: first-call costs users pay once per process, not per run
    warm = replace(config, seeds=config.seeds[:1], held_out=0, epochs=1, jobs=1)
    ltinfomax.experiments.run_suite(warm, write=False)

    # closed loop; with --trace 1 odd passes are traced
    passes, problems = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_dir = run_dir / f"pass{len(passes)}"
        attempted += runs_per_pass
        try:
            record = run_pass(workload, workload.config(args.seed, pass_dir),
                              tracer if traced else None, steps_per_pass)
            check_results(record, reference, tolerance, passes[0] if passes else None)
        except Exception as exc:  # a failed pass is reported, not raised
            traceback.print_exc(file=sys.stderr)
            problems.append(f"pass {len(passes)}: {exc!r}")
            failed = attempted - sum(len(p["runs"]) for p in passes)
            break
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(record)
        failed += record["failed"]
        problems += record["problems"]
        if failed:
            break
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        similar = [p["wall"] for p in passes if p["traced"] == next_traced] or [record["wall"]]
        if (len(passes) >= 1 + args.trace
                and perf_counter() - start + statistics.median(similar) > args.seconds):
            break
    shutil.rmtree(run_dir, ignore_errors=True)

    details = {
        "workload": workload.name, "seed": args.seed, "passes": len(passes),
        "runs_per_pass": runs_per_pass, "steps_per_pass": steps_per_pass,
        "failed_run_frac": failed / attempted, "problems": problems[:20],
    }
    if passes:
        details["mean_accuracy"] = passes[0]["mean_accuracy"]
        if "alpha_gain" in passes[0]:
            details["alpha_gain"] = passes[0]["alpha_gain"]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if failed == 0 and not args.trace:
        values = end_to_end(workload, config, plain, runs_per_pass, steps_per_pass, details)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    elif failed == 0:
        values = per_layer(plain, [p for p in passes if p["traced"]], details)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        with open(dump, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
        details["trace_file"] = str(dump.relative_to(ROOT))
    details["environment"] = environment()

    for name, m in metrics.items():
        print(f"{workload.name:16s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
