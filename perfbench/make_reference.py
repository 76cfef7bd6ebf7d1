#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: one checked pass per workload and seed.

    python3 perfbench/make_reference.py --seeds 0-19

Run from the repository root after a change that is meant to alter
results, and say so where the change is described. Tolerances already
in the file are kept.
"""

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    lo, hi = (int(t) for t in parser.parse_args().seeds.split("-"))
    path = HERE / "reference.json"
    with open(path) as fh:
        ref = json.load(fh)
    out = ROOT / ".bench_out" / "reference"
    for seed in range(lo, hi + 1):
        entry = {}
        for name, workload in workloads.WORKLOADS.items():
            config = workload.config(seed, out)
            result = workload.run(config)
            runs, failed, problems = workloads.check_pass(workload, config, result)
            shutil.rmtree(out)
            if failed:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            entry[name] = {"mean_accuracy": statistics.fmean(a for a, _ in runs)}
            if workload.alpha_gain(result) is not None:
                entry[name]["alpha_gain"] = workload.alpha_gain(result)
        ref["seeds"][str(seed)] = entry
        print(seed, json.dumps(entry), flush=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
