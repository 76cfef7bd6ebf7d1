#!/usr/bin/env python3
"""Ablation and sensitivity protocols at reduced scale.

Reproduces the experiment suite's three headline analyses with a small
seed budget so the script finishes in well under a minute:

  a. the three-row marginal-entropy ablation (none / Shannon / alpha),
  b. a gamma sweep showing the accuracy gap widening with imbalance,
  c. an alpha sweep around the configured value.

Full-scale variants of (a) and (b) run inside the acceptance tests;
the command-line interface exposes all three (run / ablate / sweep).

Run: python3 demos/04_ablation_and_sweeps.py
"""

import tempfile
from dataclasses import replace

import numpy as np

from ltinfomax import ExperimentConfig, ablation, run_suites, sweep

SEEDS = (0, 1, 2)
GAMMAS = (1.0, 10.0, 50.0)

with tempfile.TemporaryDirectory() as tmp:
    config = ExperimentConfig(seeds=SEEDS, out_dir=tmp)

    print("=" * 70)
    print(f"a. Ablation on the marginal-entropy term ({len(SEEDS)} seeds x "
          f"{config.num_domains} hold-outs)")
    print("=" * 70)
    for label, mean, std, delta in ablation(config):
        print(f"{label:26s} {mean:.4f} +/- {std:.4f}  ({delta:+.4f} vs baseline)")

    print()
    print("=" * 70)
    print("b. Imbalance sweep: gap (full objective - baseline) per gamma")
    print("=" * 70)
    # the six (gamma, marginal_weight) suites share one world: one run_suites call
    suites = run_suites([replace(config, gamma=g, marginal_weight=w)
                         for g in GAMMAS for w in (1.0, 0.0)], write=False)
    means = [np.mean([r.accuracy for r in records]) for records in suites]
    for gamma, full, base in zip(GAMMAS, means[::2], means[1::2]):
        bar = "#" * max(0, int(round((full - base) * 400)))
        print(f"gamma={gamma:4g}  baseline={base:.4f}  full={full:.4f}  "
              f"gap={full - base:+.4f} {bar}")

    print()
    print("=" * 70)
    print("c. Alpha sweep (written to sweep_alpha.dat for plotting)")
    print("=" * 70)
    table = sweep(config, "alpha", [1.0, 1.5, 2.0, 3.0])
    for value, mean, std in table:
        print(f"alpha={value:3g}  accuracy {mean:.4f} +/- {std:.4f}")
    print(f"\nplot data files live under {tmp} (deleted on exit);")
    print("use the CLI with --out to keep them, e.g.")
    print("  ltinfomax --out results --seed-list 0,1,2,3,4 sweep --axis gamma "
          "--values 1,5,10,20,50")
