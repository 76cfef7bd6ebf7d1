#!/usr/bin/env python3
"""Tour of the objective's building blocks.

Walks the entropy family (Shannon as the alpha -> 1 limit of the Tsallis
entropy), shows how the relaxation flattens the penalty for non-uniform
marginals, then evaluates the composite loss on a tiny hand-made batch
and verifies one analytic gradient against finite differences.

Run: python3 demos/01_entropies_and_objective.py
"""

import numpy as np

from ltinfomax import (
    ExperimentConfig,
    branch_rows,
    finite_diff_gradient,
    infomax_loss_and_grad,
    relative_error,
    shannon_entropy,
    tsallis_entropy,
    tsallis_entropy_grad,
)

print("=" * 70)
print("1. Entropy of a 5-class marginal as it drifts away from uniform")
print("=" * 70)
K = 5
uniform = np.full(K, 1 / K)
skews = [0.0, 0.2, 0.4, 0.6, 0.8]
alphas = [1.0, 1.5, 2.0]
print(f"{'skew':>6} " + " ".join(f"H_a={a:<4}" for a in alphas))
for s in skews:
    head = np.zeros(K)
    head[0] = 1.0
    p = (1 - s) * uniform + s * head
    vals = [tsallis_entropy(p, a) for a in alphas]
    print(f"{s:6.1f} " + " ".join(f"{v:7.4f}" for v in vals))
print("\nEach column is normalized by its uniform maximum below; larger "
      "alpha\npenalizes a skewed marginal less (the 'relaxation'):")
for s in skews:
    head = np.zeros(K)
    head[0] = 1.0
    p = (1 - s) * uniform + s * head
    vals = [tsallis_entropy(p, a) / tsallis_entropy(uniform, a) for a in alphas]
    print(f"{s:6.1f} " + " ".join(f"{v:7.4f}" for v in vals))

print()
print("=" * 70)
print("2. The alpha -> 1 limit recovers the Shannon entropy")
print("=" * 70)
p = np.array([0.55, 0.25, 0.12, 0.05, 0.03])
print(f"shannon_entropy(p)          = {shannon_entropy(p):.10f}")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    print(f"tsallis_entropy(p, 1+{eps:<5g}) = {tsallis_entropy(p, 1 + eps):.10f}")

print()
print("=" * 70)
print("3. Composite loss on a tiny mixed batch (K = 3)")
print("=" * 70)
# the kernel takes one stacked array of rows [labeled; weak; strong]
logits = np.array([[2.0, -0.5, 0.1], [-0.3, 0.2, 1.4],   # labeled
                   [4.0, 0.0, 0.0],     # weak: confident -> pseudo-labeled
                   [0.8, 0.6, 0.0],     # weak: hedged    -> rejected by tau
                   [1.0, 0.2, -0.1], [0.1, 0.4, -0.2]])  # strong
labels, n_unl = np.array([0, 2]), 2
for cfg in (ExperimentConfig(alpha=1.0, tau=0.9),
            ExperimentConfig(alpha=1.5, tau=0.9),
            ExperimentConfig(alpha=1.5, tau=0.9, marginal_weight=0.0)):
    b, _ = infomax_loss_and_grad(logits, labels, n_unl, cfg)
    tag = f"alpha={cfg.alpha}, w={cfg.marginal_weight}"
    print(f"{tag:22s} -H_a(pi)={b['neg_marginal_entropy']:+.4f} "
          f"ce={b['labeled_ce']:.4f} pseudo={b['pseudo_ce']:.4f} "
          f"total={b['total']:+.4f} accepted={b['accepted_fraction']:.2f}")

print()
print("=" * 70)
print("4. Analytic gradient vs central finite differences")
print("=" * 70)
cfg = ExperimentConfig(alpha=1.5, tau=0.9)
_, grad = infomax_loss_and_grad(logits, labels, n_unl, cfg)
fd = finite_diff_gradient(
    lambda flat: infomax_loss_and_grad(flat.reshape(logits.shape), labels, n_unl, cfg)[0]["total"],
    logits.ravel())
print(f"relative error over all 18 logits: {relative_error(grad, fd):.2e}")
print("note the weak-branch gradient flows only through the marginal term:")
print("d total / d weak_logits =")
print(np.array2string(grad[branch_rows(len(labels), n_unl)[1]], precision=5))

# small check on the entropy gradient as well
p = np.array([0.5, 0.3, 0.2])
g = tsallis_entropy_grad(p, 2.0)
fd_g = finite_diff_gradient(lambda v: tsallis_entropy(v, 2.0, validate=False), p)
print(f"\ntsallis_entropy_grad vs FD at alpha=2: rel err {relative_error(g, fd_g):.2e}")
