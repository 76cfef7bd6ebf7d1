"""Acceptance suite: one test per criterion, each printing a summary line.

Criteria (all tolerances pinned here, nothing deferred):
  1. gradient fidelity against central finite differences (h = 1e-5)
  2. Tsallis -> Shannon limit as alpha -> 1
  3. closed-form entropy identities (one-hot, uniform)
  4. long-tail count protocol over a (K, m_L, gamma) grid
  5. supervised-only reduction is bit-identical
  6. marginal-entropy ablation trend on the default synthetic setting
  7. imbalance-sweep trend (accuracy gap grows with gamma)
  8. suite-level determinism of persisted results

Criterion 4 note: the cell (K=2, m_L=10, gamma=50) is mathematically
infeasible as stated: with the budget fixed at m_L*K = 20 and a floor of
one sample per class, the head/tail ratio cannot exceed 19, below the
required lower bound gamma/2 = 25. The check is asserted as stated and
that single cell is expected to fail; see the analysis in the project
notes.
"""

import copy
import csv
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from ltinfomax.data import LongTailSpec, augment_pair, long_tail_counts
from ltinfomax.experiments import ExperimentConfig, _suite_tasks, open_runner, run_suite
from ltinfomax.numerics import finite_diff_gradient, relative_error, softmax
from ltinfomax.objectives import (
    infomax_loss_and_grad,
    shannon_entropy,
    tsallis_entropy,
    tsallis_entropy_grad,
)
from ltinfomax.trainer import (
    forward,
    init_mlp,
    make_state,
    train,
    train_step,
)

ALPHAS = (0.5, 1.0, 1.5, 2.0)
LOSS_RTOL = 1e-5
NETWORK_RTOL = 1e-4


def _safe_unlabeled(rng, n, k, tau):
    """Logits kept away from the threshold and from argmax ties so the
    indicator and pseudo-labels are locally constant under FD steps."""
    while True:
        weak = rng.normal(size=(n, k)) * 3
        strong = rng.normal(size=(n, k)) * 2
        wp = softmax(weak)
        top = np.sort(wp, axis=1)
        if np.any(np.abs(wp.max(axis=1) - tau) < 1e-3):
            continue
        if np.any(top[:, -1] - top[:, -2] < 1e-3):
            continue
        return weak, strong


class TestCriterion1GradientFidelity:
    def test_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0

        # tsallis entropy: 25 instances per alpha
        for alpha in ALPHAS:
            for _ in range(25):
                p = 0.9 * rng.dirichlet(np.ones(6)) + 0.1 / 6
                fd = finite_diff_gradient(
                    lambda v: tsallis_entropy(v, alpha, validate=False), p
                )
                err = relative_error(tsallis_entropy_grad(p, alpha, validate=False), fd)
                worst = max(worst, err)
                assert err < LOSS_RTOL

        # pseudo cross-entropy alone: 100 instances (strong branch; weak is zero)
        tau = 0.8
        pseudo_cfg = ExperimentConfig(tau=tau, marginal_weight=0.0)
        for _ in range(100):
            n, k = int(rng.integers(2, 7)), int(rng.integers(3, 6))
            weak, strong = _safe_unlabeled(rng, n, k, tau)
            _, grad = infomax_loss_and_grad(np.concatenate([weak, strong]), [], n, pseudo_cfg)
            assert not np.any(grad[:n])
            fd = finite_diff_gradient(
                lambda flat: infomax_loss_and_grad(
                    np.concatenate([weak, flat.reshape(n, k)]), [], n, pseudo_cfg)[0].pseudo_ce,
                strong.ravel(),
            )
            err = relative_error(grad[n:].ravel(), fd)
            worst = max(worst, err)
            assert err < LOSS_RTOL

        # composite loss: 25 instances per alpha, all three logit groups of
        # the stacked [labeled; weak; strong] rows
        for alpha in ALPHAS:
            cfg = ExperimentConfig(alpha=alpha, tau=tau)
            for _ in range(25):
                nl, nu, k = 3, 5, 4
                lab_logits = rng.normal(size=(nl, k)) * 2
                labels = rng.integers(0, k, size=nl)
                weak, strong = _safe_unlabeled(rng, nu, k, tau)
                logits = np.concatenate([lab_logits, weak, strong])
                _, grad = infomax_loss_and_grad(logits, labels, nu, cfg)
                fd = finite_diff_gradient(
                    lambda flat: infomax_loss_and_grad(flat.reshape(logits.shape), labels, nu,
                                                       cfg)[0].total,
                    logits.ravel())
                err = relative_error(grad.ravel(), fd)
                worst = max(worst, err)
                assert err < LOSS_RTOL

        # through the network: 25 instances per alpha, d=4 hidden=6 K=3; the
        # gradient is the one train_step applies, read from state.grads
        for alpha in ALPHAS:
            cfg = ExperimentConfig(hidden=(6,), alpha=alpha, tau=tau)
            for _ in range(25):
                state = make_state(cfg, 4, 3, seed=0)
                state.model.flat[...] = init_mlp([4, 6, 3], rng).flat
                before = state.model.flat.copy()
                lab_x = rng.normal(size=(3, 4))
                lab_y = rng.integers(0, 3, size=3)
                unl_x = rng.normal(size=(5, 4))
                views = augment_pair(unl_x, copy.deepcopy(state.rngs["augment"]))
                x = np.concatenate([lab_x, *views])

                def f(flat):
                    m = state.model.copy()
                    m.flat[...] = flat
                    return infomax_loss_and_grad(forward(m, x), lab_y, len(unl_x), cfg)[0].total

                fd = finite_diff_gradient(f, before)
                train_step(state, lab_x, lab_y, unl_x)
                # from zero velocity the step moves by exactly -lr times that gradient
                lr = state.config.learning_rate
                assert np.array_equal(state.model.flat, before - lr * state.grads.flat)
                err = relative_error(state.grads.flat, fd)
                worst = max(worst, err)
                assert err < NETWORK_RTOL

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
        print(f"\n[criterion 1] PASS gradient fidelity: 300 loss-level + 100 "
              f"network instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2ShannonLimit:
    def test_limit_is_monotone_and_exact_at_one(self):
        rng = np.random.default_rng(71)
        points = [rng.dirichlet(np.ones(int(rng.integers(2, 9))))
                  for _ in range(1000)]
        eps_grid = (1e-2, 1e-3, 1e-4)
        diffs = np.empty((3, 1000))
        for j, eps in enumerate(eps_grid):
            for i, p in enumerate(points):
                diffs[j, i] = abs(tsallis_entropy(p, 1 + eps) - shannon_entropy(p))
        assert np.all(diffs[0] >= diffs[1])
        assert np.all(diffs[1] >= diffs[2])
        for p in points[:100]:
            assert tsallis_entropy(p, 1.0) == shannon_entropy(p)
        print(f"\n[criterion 2] PASS Shannon limit: per-point monotone over "
              f"eps {eps_grid}, alpha=1 branch exact")


class TestCriterion3EntropyIdentities:
    def test_identities(self):
        for k in (2, 5, 11):
            one_hot = np.zeros(k)
            one_hot[0] = 1.0
            assert abs(shannon_entropy(one_hot)) < 1e-12
            uniform = np.full(k, 1.0 / k)
            assert abs(shannon_entropy(uniform) - math.log(k)) < 1e-12
            for alpha in (0.5, 1.5, 2.0, 3.0):
                assert abs(tsallis_entropy(one_hot, alpha)) < 1e-12
                expected = (1.0 - k ** (1.0 - alpha)) / (alpha - 1.0)
                assert abs(tsallis_entropy(uniform, alpha) - expected) < 1e-12
        print("\n[criterion 3] PASS entropy identities: one-hot -> 0, "
              "uniform -> log K and (1 - K^(1-a))/(a-1), all < 1e-12")


GRID = [(k, m, g) for k in (2, 5, 11) for m in (5, 10) for g in (1.0, 10.0, 50.0)]


class TestCriterion4LongTailProtocol:
    @pytest.mark.parametrize("k,m_l,gamma", GRID,
                             ids=[f"K{k}-m{m}-g{g:g}" for k, m, g in GRID])
    def test_grid_cell(self, k, m_l, gamma):
        counts = long_tail_counts(LongTailSpec(k, m_l, gamma))
        assert counts.sum() == m_l * k
        assert np.all(np.diff(counts) <= 0)
        assert counts.min() >= 1
        if m_l == 10:
            ratio = counts.max() / counts.min()
            assert gamma / 2 <= ratio <= 2 * gamma, (
                f"head/tail ratio {ratio} outside [{gamma / 2}, {2 * gamma}]"
            )

    def test_summary(self):
        print("\n[criterion 4] long-tail protocol grid: see per-cell results "
              "(K2-m10-g50 is infeasible as specified; analysis in notes)")


class TestCriterion5ReductionEquivalence:
    def test_bit_identical_supervised_reduction(self):
        from ltinfomax.experiments import build_domains, split_sources

        config = ExperimentConfig(seeds=(0,), epochs=6, n_per_class=30,
                                  num_domains=3, num_classes=3, feature_dim=6,
                                  hidden=(16,), marginal_weight=0.0,
                                  tau=1.0 + 1e-9)
        domains = build_domains(config)
        sources, _ = split_sources(config, domains, seed=0, heldout=2)
        full = train(config, sources, seed=0)
        sup = train(config, sources, seed=0, supervised_only=True)
        assert np.array_equal(full.model.flat, sup.model.flat)
        assert all(h["pseudo_ce"] == 0.0 and h["accepted_fraction"] == 0.0
                   for h in full.history)
        print("\n[criterion 5] PASS reduction: marginal_weight=0, tau>1 is "
              "bit-identical to the supervised-only code path")


GAMMAS = (1.0, 5.0, 10.0, 20.0, 50.0)
# criterion 6's baseline, Shannon and alpha suites, then criterion 7's
# (marginal_weight 1, 0) pair per gamma; the gamma=10 pair repeats criterion
# 6's baseline and alpha suites
TREND_SUITES = ([dict(marginal_weight=0.0), dict(marginal_weight=1.0, alpha=1.0),
                 dict(marginal_weight=1.0, alpha=1.5)]
                + [dict(gamma=g, marginal_weight=w) for g in GAMMAS for w in (1.0, 0.0)])


@pytest.fixture(scope="module")
def trend_suites():
    """Criteria 6 and 7's suites on seeds 0-9, each distinct config run once
    through one runner. Returns (accuracies, elapsed): accuracies(**overrides)
    is that suite's per-run accuracies by seed, then held-out id, and elapsed
    the wall time of all of them."""
    base = ExperimentConfig(seeds=tuple(range(10)), jobs=min(2, os.cpu_count() or 1))
    # a runner keys its queued runs by task, so each config is queued once
    configs = list(dict.fromkeys(replace(base, **kw) for kw in TREND_SUITES))
    start = time.perf_counter()
    with open_runner(base, [t for c in configs for t in _suite_tasks(c)]) as runner:
        accuracies = {c: np.array([r.accuracy for r in run_suite(c, write=False, runner=runner)])
                      for c in configs}
    elapsed = time.perf_counter() - start
    return (lambda **kw: accuracies[replace(base, **kw)]), elapsed


class TestCriterion6AblationTrend:
    def test_ordering_on_default_setting(self, trend_suites):
        accuracies, elapsed = trend_suites
        base_cfg = ExperimentConfig(seeds=tuple(range(10)))
        assert (base_cfg.num_domains, base_cfg.num_classes,
                base_cfg.gamma, base_cfg.m_l) == (4, 5, 10.0, 5)

        def seed_means(**kw):
            return accuracies(**kw).reshape(10, -1).mean(axis=1)

        baseline = seed_means(marginal_weight=0.0)
        shannon = seed_means(marginal_weight=1.0, alpha=1.0)
        alpha_ent = seed_means(marginal_weight=1.0, alpha=1.5)

        gap = alpha_ent - baseline
        assert baseline.mean() <= shannon.mean() <= alpha_ent.mean(), (
            f"ordering violated: {baseline.mean():.4f}, {shannon.mean():.4f}, "
            f"{alpha_ent.mean():.4f}"
        )
        assert gap.mean() > 0
        assert np.sum(gap > 0) >= 7, f"gap positive in only {np.sum(gap > 0)}/10 seeds"
        assert elapsed < 600.0
        print(f"\n[criterion 6] PASS ablation trend: baseline {baseline.mean():.4f} "
              f"<= +shannon {shannon.mean():.4f} <= +alpha {alpha_ent.mean():.4f}, "
              f"gap>0 in {np.sum(gap > 0)}/10 seeds, {elapsed:.0f}s")


class TestCriterion7ImbalanceTrend:
    def test_gap_grows_with_imbalance(self, trend_suites):
        accuracies, _ = trend_suites
        gaps = {}
        for gamma in GAMMAS:
            imax = np.mean(accuracies(gamma=gamma, marginal_weight=1.0))
            plain = np.mean(accuracies(gamma=gamma, marginal_weight=0.0))
            gaps[gamma] = imax - plain
        assert all(g >= 0 for g in gaps.values()), f"negative gap: {gaps}"
        low = np.mean([gaps[1.0], gaps[5.0]])
        high = np.mean([gaps[10.0], gaps[20.0], gaps[50.0]])
        assert high > low, f"gap means: low {low:.4f}, high {high:.4f}"
        pretty = {g: round(float(v), 4) for g, v in gaps.items()}
        print(f"\n[criterion 7] PASS imbalance trend: gaps {pretty}, "
              f"mean gap gamma>=10 ({high:.4f}) > gamma<=5 ({low:.4f})")


class TestCriterion8Determinism:
    def test_identical_runs_csv_modulo_wall_time(self, tmp_path):
        cfg = ExperimentConfig(seeds=(0, 1), out_dir=str(tmp_path / "a"))
        run_suite(cfg)
        run_suite(replace(cfg, out_dir=str(tmp_path / "b")))

        def rows_without_wall(path):
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                drop = header.index("wall_s")
                return [tuple(v for i, v in enumerate(row) if i != drop)
                        for row in reader]

        a = rows_without_wall(tmp_path / "a" / "runs.csv")
        b = rows_without_wall(tmp_path / "b" / "runs.csv")
        assert a == b and len(a) == 8
        print(f"\n[criterion 8] PASS determinism: {len(a)} runs.csv rows "
              "identical across invocations (wall time excluded)")
