"""The semi-supervised InfoMax training objective and its pieces.

The composite loss has three terms:

    total = marginal_weight * (-H_alpha(pi)) + H(Y|X_L) + H(Yhat|X_U)

where ``pi`` is the predicted class marginal, averaged over the batch's
labeled rows and weak-view unlabeled rows,
``H_alpha`` is the Tsallis alpha-entropy (Shannon at alpha = 1),
``H(Y|X_L)`` is plain cross-entropy on labeled logits and
``H(Yhat|X_U)`` is confidence-thresholded pseudo cross-entropy between a
weak and a strong view of each unlabeled sample. Every operation here is
a pure function and comes with an analytic gradient with respect to the
input logits, verified against central finite differences in the tests.
"""

import numpy as np

from .errors import ConfigError
from .numerics import LOG_EPS, check_labels, check_prob_vector, softmax


# the kernel's loss terms in order: neg_marginal_entropy is the unweighted
# -H_alpha(pi), total applies marginal_weight to it and adds the two others
LOSS_TERMS = ("neg_marginal_entropy", "labeled_ce", "pseudo_ce", "total", "accepted_fraction")


def shannon_entropy(p, validate=True):
    """-sum(p log p) with natural log, in [0, log K]."""
    p = check_prob_vector(p) if validate else np.asarray(p, dtype=np.float64)
    return float(-np.add.reduce(p * np.log(np.maximum(p, LOG_EPS)), axis=None))


def tsallis_entropy(p, alpha, validate=True):
    """Tsallis alpha-entropy (1 - sum(p^alpha)) / (alpha - 1).

    alpha = 1 returns the Shannon entropy (the analytic limit). Raises
    ConfigError for alpha <= 0.
    """
    if not (alpha > 0):
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    p = check_prob_vector(p) if validate else np.asarray(p, dtype=np.float64)
    if alpha == 1:
        return shannon_entropy(p, validate=False)
    return float((1.0 - np.add.reduce(np.maximum(p, 0.0) ** alpha, axis=None)) / (alpha - 1.0))


def tsallis_entropy_grad(p, alpha, validate=True):
    """Per-coordinate derivative of ``tsallis_entropy``.

    -alpha * p^(alpha-1) / (alpha - 1) for alpha != 1, -(log p + 1) at the
    Shannon limit. Inputs are clamped to >= LOG_EPS so one-hot vectors are
    safe even for alpha < 1.
    """
    if not (alpha > 0):
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    if validate:
        p = check_prob_vector(p)
    p = np.maximum(np.asarray(p, dtype=np.float64), LOG_EPS)
    if alpha == 1:
        return -(np.log(p) + 1.0)
    return -alpha / (alpha - 1.0) * p ** (alpha - 1.0)


def branch_rows(n_lab, n_unl):
    """Row slices of the labeled, weak and strong branches in stacked logits."""
    return (slice(0, n_lab), slice(n_lab, n_lab + n_unl),
            slice(n_lab + n_unl, n_lab + 2 * n_unl))


def _cross_entropy(probs, logp, rows, targets, mask, grad):
    """-sum(mask * logp[rows][i, targets]) / n over the n ``rows``; adds its
    logit gradient mask * (p - onehot) / n into grad[rows]."""
    n, idx = len(targets), np.arange(len(targets))
    g = probs[rows].copy()
    g[idx, targets] -= 1.0
    grad[rows] += (mask[:, None] * g) / n
    return float(-np.add.reduce(logp[rows][idx, targets] * mask) / n)


def infomax_loss_and_grad(logits, labels, n_unl, cfg):
    """The composite objective and its gradient w.r.t. stacked logits.

    ``logits`` stacks the rows [labeled; weak; strong]: len(labels)
    labeled rows, then the weak and the strong view of n_unl unlabeled
    samples (branch_rows gives the slices). One softmax gives the
    probabilities, and its shift and normaliser also give the
    log-probabilities. pi is the mean of the labeled and weak rows'
    probabilities. Weak logits receive gradient only through pi;
    pseudo-labels and the acceptance indicator are constants of the
    forward pass.

    Args:
        logits: (len(labels) + 2 * n_unl, K) stacked logits.
        labels: integer labels in [0, K) of the labeled rows.
        n_unl: number of unlabeled samples, an integer >= 0.
        cfg: an ExperimentConfig; reads alpha (Tsallis order, 1 is Shannon),
            tau (pseudo-label threshold; above 1 rejects every unlabeled
            sample) and marginal_weight (the weight of -H_alpha(pi)).

    Returns (a dict of the LOSS_TERMS in that order, gradient shaped like
    ``logits``). Raises ValueError, before any arithmetic, unless the
    arguments are as above, and when both branches are empty or a logit is
    not finite.
    """
    n_lab = np.size(labels)
    if np.ndim(logits) != 2:
        raise ValueError(f"logits must be 2-D (rows, classes), got ndim {np.ndim(logits)}")
    if isinstance(n_unl, bool) or not isinstance(n_unl, (int, np.integer)) or n_unl < 0:
        raise ValueError(f"n_unl must be a non-negative integer, got {n_unl!r}")
    if len(logits) != n_lab + 2 * n_unl:
        raise ValueError(f"expected {n_lab} + 2 * {n_unl} stacked rows, got {len(logits)}")
    labels = check_labels(labels, np.shape(logits)[1], n_lab)
    if n_lab == 0 and n_unl == 0:
        raise ValueError("both batches are empty")
    probs, logp = softmax(logits, with_log=True)
    lab, weak, strong = branch_rows(n_lab, n_unl)

    n_marg = n_lab + n_unl
    pi = np.add.reduce(probs[:n_marg], axis=0) / n_marg
    neg_marg = -tsallis_entropy(pi, cfg.alpha, validate=False)

    grad = np.zeros(probs.shape)
    if cfg.marginal_weight > 0:
        # d(-H_a)/dpi chained through each labeled and weak softmax row
        g_pi = -tsallis_entropy_grad(pi, cfg.alpha, validate=False)
        inner = probs[:n_marg] @ g_pi
        coef = cfg.marginal_weight / n_marg
        np.multiply(coef * probs[:n_marg], g_pi[None, :] - inner[:, None], out=grad[:n_marg])

    # conditional terms: labeled rows on labels, strong rows on accepted pseudo-labels
    labeled_ce = pseudo_ce = accepted_fraction = 0.0
    if n_lab:
        labeled_ce = _cross_entropy(probs, logp, lab, labels, np.ones(n_lab, bool), grad)
    if n_unl:
        # the value at the argmax is the row max, so it decides acceptance
        pseudo = np.argmax(probs[weak], axis=-1)
        accepted = probs[weak][np.arange(n_unl), pseudo] >= cfg.tau
        if accepted.any():
            pseudo_ce = _cross_entropy(probs, logp, strong, pseudo, accepted, grad)
            accepted_fraction = float(np.count_nonzero(accepted) / n_unl)

    total = cfg.marginal_weight * neg_marg + labeled_ce + pseudo_ce
    terms = (neg_marg, labeled_ce, pseudo_ce, total, accepted_fraction)
    return dict(zip(LOSS_TERMS, terms)), grad
