"""Loss mathematics: entropies, composite objective and its stacked kernel.

Every analytic gradient is checked against central finite differences;
the composite loss is additionally checked against a straight-line
reimplementation written with explicit loops and math.exp/math.log.
"""

import math

import numpy as np
import pytest

from ltinfomax.errors import ConfigError
from ltinfomax.numerics import finite_diff_gradient, relative_error, softmax
from ltinfomax.objectives import (
    LabeledBatch,
    LossConfig,
    UnlabeledBatch,
    branch_rows,
    infomax_loss,
    infomax_loss_and_grad,
    shannon_entropy,
    tsallis_entropy,
    tsallis_entropy_grad,
)

LN2 = 0.6931471805599453


def random_simplex(rng, k):
    """Dirichlet(1) point: uniform over the simplex."""
    return rng.dirichlet(np.ones(k))


class TestShannonEntropy:
    def test_one_hot_is_zero(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_log_k(self):
        for k in (2, 3, 5, 11):
            assert shannon_entropy(np.full(k, 1 / k)) == pytest.approx(math.log(k), rel=1e-12)

    def test_fair_coin_is_ln2(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, rel=1e-15)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.7, 0.7])


class TestTsallisEntropy:
    def test_one_hot_is_zero_any_alpha(self):
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert tsallis_entropy([0.0, 1.0], alpha) == pytest.approx(0.0, abs=1e-12)

    def test_fair_coin_alpha_2(self):
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_frozen_value_alpha_15(self):
        # (1 - sum p^1.5) / 0.5 at p = (0.7, 0.2, 0.1)
        assert tsallis_entropy([0.7, 0.2, 0.1], 1.5) == pytest.approx(
            0.5865449714489435, rel=1e-13
        )

    def test_alpha_one_is_exactly_shannon(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_simplex(rng, 5)
            assert tsallis_entropy(p, 1.0) == shannon_entropy(p)

    def test_uniform_value(self):
        """Uniform gives (1 - K^(1-alpha)) / (alpha - 1)."""
        for k in (2, 5, 11):
            for alpha in (0.5, 1.5, 2.0, 3.0):
                expected = (1 - k ** (1 - alpha)) / (alpha - 1)
                assert tsallis_entropy(np.full(k, 1 / k), alpha) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_shannon_limit(self):
        """|H_(1+eps) - H_1| shrinks monotonically as eps -> 0."""
        rng = np.random.default_rng(0)
        points = [random_simplex(rng, rng.integers(2, 8)) for _ in range(1000)]
        diffs = np.empty((3, len(points)))
        for j, eps in enumerate((1e-3, 1e-4, 1e-5)):
            for i, p in enumerate(points):
                diffs[j, i] = abs(tsallis_entropy(p, 1 + eps) - shannon_entropy(p))
        assert np.all(diffs[0] >= diffs[1])
        assert np.all(diffs[1] >= diffs[2])

    def test_maximized_at_uniform(self):
        rng = np.random.default_rng(1)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for k in (2, 4, 7):
                uniform_val = tsallis_entropy(np.full(k, 1 / k), alpha)
                for _ in range(250):
                    p = random_simplex(rng, k)
                    assert tsallis_entropy(p, alpha) <= uniform_val + 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            tsallis_entropy([0.5, 0.5], 0.0)
        with pytest.raises(ConfigError):
            tsallis_entropy([0.5, 0.5], -1.0)


class TestTsallisGradient:
    def test_fair_coin_alpha_2(self):
        np.testing.assert_allclose(
            tsallis_entropy_grad([0.5, 0.5], 2.0), [-1.0, -1.0], rtol=1e-15
        )

    def test_uniform_symmetry(self):
        for alpha in (0.5, 1.0, 1.7):
            g = tsallis_entropy_grad(np.full(4, 0.25), alpha)
            np.testing.assert_allclose(g, g[0], rtol=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(99)
        for _ in range(25):
            p = 0.9 * random_simplex(rng, 5) + 0.1 / 5  # keep clear of the boundary
            fd = finite_diff_gradient(
                lambda v: tsallis_entropy(v, alpha, validate=False), p
            )
            analytic = tsallis_entropy_grad(p, alpha, validate=False)
            assert relative_error(analytic, fd) < 1e-5


def cross_entropy(batch):
    """Mean -log softmax(logits)[label]: the labeled term of the objective."""
    return infomax_loss(batch, None, LossConfig(marginal_weight=0.0))[0].labeled_ce


class TestCrossEntropy:
    def test_perfect_predictions(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        batch = LabeledBatch(logits, np.array([0, 1]))
        assert cross_entropy(batch) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_predictions_give_log_k(self):
        batch = LabeledBatch(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert cross_entropy(batch) == pytest.approx(math.log(3), rel=1e-12)

    def test_fair_coin_single_sample(self):
        batch = LabeledBatch(np.zeros((1, 2)), np.array([0]))
        assert cross_entropy(batch) == pytest.approx(LN2, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="both batches are empty"):
            cross_entropy(LabeledBatch(np.zeros((0, 2)), np.array([], dtype=int)))


def weak_logits_for_prob(p):
    """Logits whose softmax equals p (p strictly positive)."""
    return np.log(np.asarray(p))


def pseudo_cross_entropy(batch, tau):
    """The pseudo cross-entropy alone: no labeled rows, no marginal term.
    Returns (loss, accepted_fraction, LossGradients)."""
    b, grads = infomax_loss(None, batch, LossConfig(tau=tau, marginal_weight=0.0))
    return b.pseudo_ce, b.accepted_fraction, grads


class TestPseudoCrossEntropy:
    def test_all_rejected(self):
        batch = UnlabeledBatch(np.zeros((3, 4)), np.zeros((3, 4)))
        loss, frac, _ = pseudo_cross_entropy(batch, tau=0.95)
        assert loss == 0.0 and frac == 0.0

    def test_perfect_agreement_contributes_zero(self):
        weak = weak_logits_for_prob([[0.97, 0.03]])
        strong = np.array([[60.0, 0.0]])
        loss, frac, _ = pseudo_cross_entropy(UnlabeledBatch(weak, strong), tau=0.95)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert frac == 1.0

    def test_confident_weak_uncertain_strong(self):
        weak = weak_logits_for_prob([[0.97, 0.03]])
        strong = np.zeros((1, 2))
        loss, frac, _ = pseudo_cross_entropy(UnlabeledBatch(weak, strong), tau=0.95)
        assert loss == pytest.approx(LN2, rel=1e-12)
        assert frac == 1.0

    def test_rejected_samples_still_divide(self):
        """Mean is over the full batch, rejections contribute zero."""
        weak = weak_logits_for_prob([[0.97, 0.03], [0.6, 0.4]])
        strong = np.zeros((2, 2))
        loss, frac, _ = pseudo_cross_entropy(UnlabeledBatch(weak, strong), tau=0.95)
        assert loss == pytest.approx(LN2 / 2, rel=1e-12)
        assert frac == 0.5

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(8)
        weak = rng.normal(size=(40, 5)) * 2
        strong = rng.normal(size=(40, 5))
        batch = UnlabeledBatch(weak, strong)
        fracs = [pseudo_cross_entropy(batch, tau)[1]
                 for tau in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_tau_above_one_rejects_everything(self):
        rng = np.random.default_rng(9)
        batch = UnlabeledBatch(rng.normal(size=(10, 3)) * 5, rng.normal(size=(10, 3)))
        loss, frac, _ = pseudo_cross_entropy(batch, tau=1.0 + 1e-9)
        assert loss == 0.0 and frac == 0.0

    def test_gradient_stop_on_weak_branch(self):
        rng = np.random.default_rng(10)
        batch = UnlabeledBatch(rng.normal(size=(6, 4)) * 3, rng.normal(size=(6, 4)))
        grads = pseudo_cross_entropy(batch, tau=0.8)[2]
        assert not np.any(grads.weak)
        # FD over the strong logits only
        def f(flat):
            b = UnlabeledBatch(batch.weak_logits, flat.reshape(6, 4))
            return pseudo_cross_entropy(b, 0.8)[0]
        fd = finite_diff_gradient(f, batch.strong_logits.ravel())
        assert relative_error(grads.strong.ravel(), fd) < 1e-5


def tiny_fixed_batches():
    """2 labeled, 2 unlabeled, K = 3; weak sample 0 passes tau = 0.9."""
    lab_logits = np.array([[1.2, -0.3, 0.4], [-0.5, 0.8, 0.1]])
    lab = LabeledBatch(lab_logits, np.array([0, 2]))
    weak = np.array([[4.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
    strong = np.array([[0.7, -0.2, 0.1], [0.2, 0.3, -0.4]])
    unl = UnlabeledBatch(weak, strong)
    return lab, unl


def straight_line_total(lab, unl, alpha, tau, marginal_weight=1.0):
    """Independent reimplementation: explicit loops, math.exp / math.log."""
    def sm(row):
        mx = max(row)
        ex = [math.exp(v - mx) for v in row]
        s = sum(ex)
        return [e / s for e in ex]

    lab_probs = [sm(list(r)) for r in lab.logits]
    weak_probs = [sm(list(r)) for r in unl.weak_logits]
    strong_probs = [sm(list(r)) for r in unl.strong_logits]
    k = len(lab_probs[0])

    everything = lab_probs + weak_probs
    pi = [sum(p[j] for p in everything) / len(everything) for j in range(k)]
    if alpha == 1.0:
        h_marg = -sum(pj * math.log(pj) for pj in pi if pj > 0)
    else:
        h_marg = (1.0 - sum(pj**alpha for pj in pi)) / (alpha - 1.0)

    ce = 0.0
    for probs, y in zip(lab_probs, lab.labels):
        ce -= math.log(probs[y])
    ce /= len(lab_probs)

    pce = 0.0
    for wp, sp in zip(weak_probs, strong_probs):
        if max(wp) >= tau:
            yhat = wp.index(max(wp))
            pce -= math.log(sp[yhat])
    pce /= len(weak_probs)

    return marginal_weight * (-h_marg) + ce + pce, -h_marg, ce, pce


class TestInfomaxLoss:
    def test_matches_straight_line_oracle(self):
        lab, unl = tiny_fixed_batches()
        cfg = LossConfig(alpha=1.5, tau=0.9)
        got, _ = infomax_loss(lab, unl, cfg)
        total, neg_h, ce, pce = straight_line_total(lab, unl, 1.5, 0.9)
        assert got.total == pytest.approx(total, abs=1e-12)
        assert got.neg_marginal_entropy == pytest.approx(neg_h, abs=1e-12)
        assert got.labeled_ce == pytest.approx(ce, abs=1e-12)
        assert got.pseudo_ce == pytest.approx(pce, abs=1e-12)
        assert got.accepted_fraction == 0.5

    def test_breakdown_sum_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            lab = LabeledBatch(rng.normal(size=(3, 4)), rng.integers(0, 4, size=3))
            unl = UnlabeledBatch(rng.normal(size=(5, 4)) * 2, rng.normal(size=(5, 4)))
            w = float(rng.uniform(0, 2))
            cfg = LossConfig(alpha=float(rng.uniform(0.3, 3)), tau=0.8, marginal_weight=w)
            b, _ = infomax_loss(lab, unl, cfg)
            assert b.total == pytest.approx(
                w * b.neg_marginal_entropy + b.labeled_ce + b.pseudo_ce, abs=1e-12
            )
            assert b.labeled_ce >= 0 and b.pseudo_ce >= 0

    def test_reduces_to_cross_entropy(self):
        lab, unl = tiny_fixed_batches()
        cfg = LossConfig(alpha=1.0, tau=0.9, marginal_weight=0.0)
        b, _ = infomax_loss(lab, None, cfg)
        assert b.total == b.labeled_ce
        assert b.labeled_ce == pytest.approx(straight_line_total(lab, unl, 1.0, 0.9)[2],
                                             abs=1e-12)
        assert b.pseudo_ce == 0.0 and b.accepted_fraction == 0.0

    def test_alpha_one_marginal_is_shannon(self):
        lab, unl = tiny_fixed_batches()
        b, _ = infomax_loss(lab, unl, LossConfig(alpha=1.0, tau=0.9))
        pi = np.concatenate([softmax(lab.logits), softmax(unl.weak_logits)]).mean(axis=0)
        assert b.neg_marginal_entropy == pytest.approx(-shannon_entropy(pi), abs=1e-15)

    def test_shannon_special_case_of_general_objective(self):
        """The alpha = 1 objective equals the general form at alpha = 1."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            lab = LabeledBatch(rng.normal(size=(4, 3)), rng.integers(0, 3, size=4))
            unl = UnlabeledBatch(rng.normal(size=(6, 3)) * 2, rng.normal(size=(6, 3)))
            via_alpha, _ = infomax_loss(lab, unl, LossConfig(alpha=1.0, tau=0.9))
            total, neg_h, ce, pce = straight_line_total(lab, unl, 1.0, 0.9)
            assert via_alpha.total == pytest.approx(total, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        lab_logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        weak = rng.normal(size=(7, 4)) * 2
        strong = rng.normal(size=(7, 4))
        cfg = LossConfig(alpha=1.5, tau=0.8)
        ref, _ = infomax_loss(LabeledBatch(lab_logits, labels),
                              UnlabeledBatch(weak, strong), cfg)
        pl = rng.permutation(5)
        pu = rng.permutation(7)
        per, _ = infomax_loss(LabeledBatch(lab_logits[pl], labels[pl]),
                              UnlabeledBatch(weak[pu], strong[pu]), cfg)
        for name in ("neg_marginal_entropy", "labeled_ce", "pseudo_ce", "total",
                     "accepted_fraction"):
            assert getattr(per, name) == pytest.approx(getattr(ref, name), abs=1e-12)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            infomax_loss(None, None, LossConfig())

    def test_tau_above_one_is_legal_config(self):
        cfg = LossConfig(tau=1.5)
        assert cfg.tau == 1.5


def sample_safe_instance(rng, n_lab=3, n_unl=5, k=4, tau=0.8):
    """Random batches kept away from argmax ties and the tau boundary,
    so central differences see the same locally-constant pseudo-labels."""
    while True:
        lab = LabeledBatch(rng.normal(size=(n_lab, k)) * 2, rng.integers(0, k, size=n_lab))
        weak = rng.normal(size=(n_unl, k)) * 3
        strong = rng.normal(size=(n_unl, k)) * 2
        wp = softmax(weak)
        top = np.sort(wp, axis=1)
        if np.any(np.abs(wp.max(axis=1) - tau) < 1e-3):
            continue
        if np.any(top[:, -1] - top[:, -2] < 1e-3):
            continue
        return lab, UnlabeledBatch(weak, strong)


def flatten_instance(lab, unl):
    return np.concatenate([lab.logits.ravel(), unl.weak_logits.ravel(),
                           unl.strong_logits.ravel()])


def unflatten_instance(flat, lab, unl):
    nl, k = lab.logits.shape
    nu = unl.weak_logits.shape[0]
    a = flat[: nl * k].reshape(nl, k)
    b = flat[nl * k: nl * k + nu * k].reshape(nu, k)
    c = flat[nl * k + nu * k:].reshape(nu, k)
    return LabeledBatch(a, lab.labels), UnlabeledBatch(b, c)


class TestInfomaxGradients:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(31)
        cfg = LossConfig(alpha=alpha, tau=0.8)
        for _ in range(10):
            lab, unl = sample_safe_instance(rng)
            _, grads = infomax_loss(lab, unl, cfg)
            analytic = np.concatenate(
                [grads.labeled.ravel(), grads.weak.ravel(), grads.strong.ravel()]
            )
            def f(flat):
                lab2, unl2 = unflatten_instance(flat, lab, unl)
                return infomax_loss(lab2, unl2, cfg)[0].total
            fd = finite_diff_gradient(f, flatten_instance(lab, unl))
            assert relative_error(analytic, fd) < 1e-5

    def test_weak_gradient_zero_without_marginal_term(self):
        rng = np.random.default_rng(33)
        lab, unl = sample_safe_instance(rng)
        _, grads = infomax_loss(lab, unl, LossConfig(alpha=1.5, tau=0.8,
                                                     marginal_weight=0.0))
        assert not np.any(grads.weak)

    def test_rejected_sample_has_zero_strong_gradient(self):
        rng = np.random.default_rng(34)
        lab, unl = sample_safe_instance(rng, tau=0.99)
        wp = softmax(unl.weak_logits)
        rejected = wp.max(axis=1) < 0.99
        assert rejected.any()
        _, grads = infomax_loss(lab, unl, LossConfig(alpha=1.5, tau=0.99,
                                                     marginal_weight=0.0))
        assert not np.any(grads.strong[rejected])

    def test_loss_and_grad_consistent_with_parts(self):
        """The stacked kernel equals the batch API bit for bit on every branch."""
        rng = np.random.default_rng(37)
        lab, unl = sample_safe_instance(rng)
        cfg = LossConfig(alpha=2.0, tau=0.8)
        logits = np.concatenate([lab.logits, unl.weak_logits, unl.strong_logits])
        b1, g1 = infomax_loss_and_grad(logits, lab.labels, len(unl), cfg)
        b2, g2 = infomax_loss(lab, unl, cfg)
        assert b1 == b2
        assert g1.shape == logits.shape
        for rows, part in zip(branch_rows(len(lab), len(unl)), (g2.labeled, g2.weak, g2.strong)):
            np.testing.assert_array_equal(g1[rows], part)

    # (LabeledBatch args, UnlabeledBatch args, expected message) with K = 4,
    # 2 labeled rows and 3 unlabeled samples; the kernel itself does not
    # re-check, so the batch API is where malformed input is caught
    GOOD_LAB, GOOD_UNL = (np.zeros((2, 4)), [0, 3]), (np.zeros((3, 4)), np.zeros((3, 4)))
    MALFORMED = {
        "label-negative": ((np.zeros((2, 4)), [-1, 3]), GOOD_UNL, "labels must be one integer"),
        "label-K": ((np.zeros((2, 4)), [0, 4]), GOOD_UNL, "labels must be one integer"),
        "label-count": ((np.zeros((2, 4)), [0, 1, 3]), GOOD_UNL, "labels must be one integer"),
        "label-float": ((np.zeros((2, 4)), [1.7, 0.2]), GOOD_UNL, "labels must be one integer"),
        "logits-1d": ((np.zeros(2), [0, 3]), GOOD_UNL, "2-D"),
        "weak-strong-shape": (GOOD_LAB, (np.zeros((3, 4)), np.zeros((3, 5))), "identical"),
        "labeled-unlabeled-K": (GOOD_LAB, (np.zeros((3, 5)), np.zeros((3, 5))), "dimension"),
    }

    @pytest.mark.parametrize("labeled, unlabeled, message", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_batch_api_rejects_malformed_input(self, labeled, unlabeled, message):
        with pytest.raises(ValueError, match=message):
            infomax_loss(LabeledBatch(*labeled), UnlabeledBatch(*unlabeled), LossConfig())


class TestLossConfigValidation:
    def test_alpha_positive(self):
        with pytest.raises(ConfigError):
            LossConfig(alpha=0.0)

    def test_tau_positive(self):
        with pytest.raises(ConfigError):
            LossConfig(tau=0.0)
