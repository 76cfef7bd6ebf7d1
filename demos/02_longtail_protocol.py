#!/usr/bin/env python3
"""The long-tail labeling protocol on synthetic multi-domain data.

Shows the exponentially decaying per-class labeled counts for several
imbalance factors, builds a four-domain synthetic world and carves the
long-tailed labeled subset out of one domain.

Run: python3 demos/02_longtail_protocol.py
"""

import numpy as np

from ltinfomax import (
    ExperimentConfig,
    LongTailSpec,
    build_domains,
    long_tail_counts,
    split_labeled_unlabeled,
)

print("=" * 70)
print("1. Per-class labeled counts: K = 5 classes, m_L = 5 per class")
print("=" * 70)
print("gamma   counts (head -> tail)       sum   head/tail")
for gamma in (1, 2, 5, 10, 20, 50):
    counts = long_tail_counts(LongTailSpec(5, 5, float(gamma)))
    print(f"{gamma:5d}   {str(counts.tolist()):26s} {counts.sum():4d}   "
          f"{counts.max() / counts.min():6.1f}")

print("\nSame decay at K = 11 classes, m_L = 5 (budget 55):")
for gamma in (1, 10, 50):
    counts = long_tail_counts(LongTailSpec(11, 5, float(gamma)))
    print(f"gamma={gamma:3d}: {counts.tolist()} (sum {counts.sum()})")

print()
print("=" * 70)
print("2. A four-domain synthetic world (shared centroids, per-domain shift)")
print("=" * 70)
config = ExperimentConfig()
world = build_domains(config)
for d in range(config.num_domains):
    features, _ = world.domain(d)
    mean_norm = np.linalg.norm(features.mean(axis=0))
    print(f"domain {d}: {len(features)} samples, dim {features.shape[1]}, "
          f"|grand mean| = {mean_norm:.2f}")

print()
print("=" * 70)
print("3. Long-tail split of domain 0 (gamma = 10, seed-drawn class order)")
print("=" * 70)
spec = LongTailSpec(config.num_classes, config.m_l, config.gamma)
_, labels = world.domain(0)
for seed in (0, 1):
    split = split_labeled_unlabeled(world, 0, spec, seed=seed)
    hist = np.bincount(labels[split.labeled_indices],
                       minlength=config.num_classes)
    print(f"seed {seed}: labeled per class {hist.tolist()} "
          f"({len(split.labeled_indices)} labeled / "
          f"{len(split.unlabeled_indices)} unlabeled)")
unl_hist = np.bincount(labels[split.unlabeled_indices],
                       minlength=config.num_classes)
print(f"unlabeled pool stays (approximately) balanced: {unl_hist.tolist()}")
