"""Loss mathematics: entropies, composite objective and its stacked kernel.

Every analytic gradient is checked against central finite differences;
the composite loss is additionally checked against a straight-line
reimplementation written with explicit loops and math.exp/math.log.
"""

import math

import numpy as np
import pytest

from ltinfomax.errors import ConfigError
from ltinfomax.experiments import ExperimentConfig
from ltinfomax.numerics import finite_diff_gradient, relative_error, softmax
from ltinfomax.objectives import (
    LOSS_TERMS,
    branch_rows,
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

    @pytest.mark.parametrize("k", [5, 20])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 3.0])
    def test_curvature_at_uniform_is_a_shannon_weight(self, alpha, k):
        """Along any direction v in the simplex (sum v = 0), H_alpha's second
        derivative at uniform pi is -alpha K^(2-alpha) |v|^2 and Shannon's is
        -K |v|^2, so near uniform the marginal term at weight lambda matches
        Shannon's at lambda' = lambda alpha K^(1-alpha) (0.6708 at alpha 1.5, K 5)."""
        v = np.random.default_rng(k).standard_normal(k)
        v -= v.mean()
        u, h = np.full(k, 1 / k), 1e-3 / (k * np.abs(v).max())  # steps of 0.1% of 1/K

        def curvature(f):
            return (f(u + h * v) - 2 * f(u) + f(u - h * v)) / h ** 2

        ratio = (curvature(lambda p: tsallis_entropy(p, alpha, validate=False))
                 / curvature(lambda p: shannon_entropy(p, validate=False)))
        assert ratio == pytest.approx(alpha * k ** (1 - alpha), rel=1e-6)

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


def cross_entropy(logits, labels):
    """Mean -log softmax(logits)[label]: the labeled term of the objective."""
    cfg = ExperimentConfig(marginal_weight=0.0)
    return infomax_loss_and_grad(logits, labels, 0, cfg)[0]["labeled_ce"]


class TestCrossEntropy:
    def test_perfect_predictions(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        assert cross_entropy(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_predictions_give_log_k(self):
        loss = cross_entropy(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_fair_coin_single_sample(self):
        assert cross_entropy(np.zeros((1, 2)), np.array([0])) == pytest.approx(LN2, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="both batches are empty"):
            cross_entropy(np.zeros((0, 2)), np.array([], dtype=int))


def weak_logits_for_prob(p):
    """Logits whose softmax equals p (p strictly positive)."""
    return np.log(np.asarray(p))


def pseudo_cross_entropy(weak, strong, tau):
    """The pseudo cross-entropy alone: no labeled rows, no marginal term.
    Returns (loss, accepted_fraction, gradient of the stacked [weak; strong])."""
    b, grad = infomax_loss_and_grad(np.concatenate([weak, strong]), [], len(weak),
                                    ExperimentConfig(tau=tau, marginal_weight=0.0))
    return b["pseudo_ce"], b["accepted_fraction"], grad


class TestPseudoCrossEntropy:
    def test_all_rejected(self):
        loss, frac, _ = pseudo_cross_entropy(np.zeros((3, 4)), np.zeros((3, 4)), tau=0.95)
        assert loss == 0.0 and frac == 0.0

    def test_perfect_agreement_contributes_zero(self):
        weak = weak_logits_for_prob([[0.97, 0.03]])
        strong = np.array([[60.0, 0.0]])
        loss, frac, _ = pseudo_cross_entropy(weak, strong, tau=0.95)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert frac == 1.0

    def test_confident_weak_uncertain_strong(self):
        weak = weak_logits_for_prob([[0.97, 0.03]])
        strong = np.zeros((1, 2))
        loss, frac, _ = pseudo_cross_entropy(weak, strong, tau=0.95)
        assert loss == pytest.approx(LN2, rel=1e-12)
        assert frac == 1.0

    def test_rejected_samples_still_divide(self):
        """Mean is over the full batch, rejections contribute zero."""
        weak = weak_logits_for_prob([[0.97, 0.03], [0.6, 0.4]])
        strong = np.zeros((2, 2))
        loss, frac, _ = pseudo_cross_entropy(weak, strong, tau=0.95)
        assert loss == pytest.approx(LN2 / 2, rel=1e-12)
        assert frac == 0.5

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(8)
        weak = rng.normal(size=(40, 5)) * 2
        strong = rng.normal(size=(40, 5))
        fracs = [pseudo_cross_entropy(weak, strong, tau)[1]
                 for tau in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_tau_above_one_rejects_everything(self):
        rng = np.random.default_rng(9)
        weak, strong = rng.normal(size=(10, 3)) * 5, rng.normal(size=(10, 3))
        loss, frac, _ = pseudo_cross_entropy(weak, strong, tau=1.0 + 1e-9)
        assert loss == 0.0 and frac == 0.0

    def test_every_row_accepted_is_the_labeled_term(self):
        """With every strong row accepted, the pseudo term is the labeled
        cross-entropy of the strong rows against the pseudo-labels, in value
        and in gradient, bit for bit."""
        rng = np.random.default_rng(11)
        weak, strong = rng.normal(size=(9, 4)) * 3, rng.normal(size=(9, 4))
        loss, frac, grad = pseudo_cross_entropy(weak, strong, tau=0.25)  # max p >= 1/K
        labeled, labeled_grad = infomax_loss_and_grad(
            strong, np.argmax(weak, axis=-1), 0, ExperimentConfig(marginal_weight=0.0))
        assert frac == 1.0 and loss == labeled["labeled_ce"]
        assert np.array_equal(grad[branch_rows(0, 9)[2]], labeled_grad)

    def test_gradient_stop_on_weak_branch(self):
        rng = np.random.default_rng(10)
        weak, strong = rng.normal(size=(6, 4)) * 3, rng.normal(size=(6, 4))
        grad = pseudo_cross_entropy(weak, strong, tau=0.8)[2]
        _, weak_rows, strong_rows = branch_rows(0, 6)
        assert not np.any(grad[weak_rows])
        # FD over the strong logits only
        fd = finite_diff_gradient(
            lambda flat: pseudo_cross_entropy(weak, flat.reshape(6, 4), 0.8)[0], strong.ravel())
        assert relative_error(grad[strong_rows].ravel(), fd) < 1e-5


def tiny_fixed_instance():
    """Stacked logits, labels and n_unl: 2 labeled, 2 unlabeled, K = 3;
    weak sample 0 passes tau = 0.9."""
    lab_logits = np.array([[1.2, -0.3, 0.4], [-0.5, 0.8, 0.1]])
    weak = np.array([[4.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
    strong = np.array([[0.7, -0.2, 0.1], [0.2, 0.3, -0.4]])
    return np.concatenate([lab_logits, weak, strong]), np.array([0, 2]), 2


def straight_line_total(logits, labels, n_unl, alpha, tau, marginal_weight=1.0):
    """Independent reimplementation: explicit loops, math.exp / math.log."""
    def sm(row):
        mx = max(row)
        ex = [math.exp(v - mx) for v in row]
        s = sum(ex)
        return [e / s for e in ex]

    lab, weak, strong = branch_rows(len(labels), n_unl)
    lab_probs = [sm(list(r)) for r in logits[lab]]
    weak_probs = [sm(list(r)) for r in logits[weak]]
    strong_probs = [sm(list(r)) for r in logits[strong]]
    k = len(lab_probs[0])

    everything = lab_probs + weak_probs
    pi = [sum(p[j] for p in everything) / len(everything) for j in range(k)]
    if alpha == 1.0:
        h_marg = -sum(pj * math.log(pj) for pj in pi if pj > 0)
    else:
        h_marg = (1.0 - sum(pj**alpha for pj in pi)) / (alpha - 1.0)

    ce = 0.0
    for probs, y in zip(lab_probs, labels):
        ce -= math.log(probs[y])
    ce /= len(lab_probs)

    pce = 0.0
    for wp, sp in zip(weak_probs, strong_probs):
        if max(wp) >= tau:
            yhat = wp.index(max(wp))
            pce -= math.log(sp[yhat])
    pce /= len(weak_probs)

    return marginal_weight * (-h_marg) + ce + pce, -h_marg, ce, pce


def random_instance(rng, n_lab, n_unl, k):
    """Stacked logits [labeled; weak; strong] and labels, weak rows at scale 2."""
    lab_logits, labels = rng.normal(size=(n_lab, k)), rng.integers(0, k, size=n_lab)
    weak, strong = rng.normal(size=(n_unl, k)) * 2, rng.normal(size=(n_unl, k))
    return np.concatenate([lab_logits, weak, strong]), labels


class TestInfomaxLoss:
    def test_matches_straight_line_oracle(self):
        logits, labels, n_unl = tiny_fixed_instance()
        cfg = ExperimentConfig(alpha=1.5, tau=0.9)
        got, _ = infomax_loss_and_grad(logits, labels, n_unl, cfg)
        total, neg_h, ce, pce = straight_line_total(logits, labels, n_unl, 1.5, 0.9)
        assert got["total"] == pytest.approx(total, abs=1e-12)
        assert got["neg_marginal_entropy"] == pytest.approx(neg_h, abs=1e-12)
        assert got["labeled_ce"] == pytest.approx(ce, abs=1e-12)
        assert got["pseudo_ce"] == pytest.approx(pce, abs=1e-12)
        assert got["accepted_fraction"] == 0.5

    def test_terms_come_in_loss_terms_order(self):
        """The run JSON's epochs keep this key order."""
        assert LOSS_TERMS == ("neg_marginal_entropy", "labeled_ce", "pseudo_ce", "total",
                              "accepted_fraction")
        logits, labels, n_unl = tiny_fixed_instance()
        got, _ = infomax_loss_and_grad(logits, labels, n_unl, ExperimentConfig(tau=0.9))
        assert tuple(got) == LOSS_TERMS

    def test_breakdown_sum_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            logits, labels = random_instance(rng, 3, 5, 4)
            w = float(rng.uniform(0, 2))
            cfg = ExperimentConfig(alpha=float(rng.uniform(0.3, 3)), tau=0.8, marginal_weight=w)
            b, _ = infomax_loss_and_grad(logits, labels, 5, cfg)
            assert b["total"] == pytest.approx(
                w * b["neg_marginal_entropy"] + b["labeled_ce"] + b["pseudo_ce"], abs=1e-12
            )
            assert b["labeled_ce"] >= 0 and b["pseudo_ce"] >= 0

    def test_reduces_to_cross_entropy(self):
        logits, labels, n_unl = tiny_fixed_instance()
        cfg = ExperimentConfig(alpha=1.0, tau=0.9, marginal_weight=0.0)
        b, _ = infomax_loss_and_grad(logits[:len(labels)], labels, 0, cfg)
        assert b["total"] == b["labeled_ce"]
        assert b["labeled_ce"] == pytest.approx(
            straight_line_total(logits, labels, n_unl, 1.0, 0.9)[2], abs=1e-12)
        assert b["pseudo_ce"] == 0.0 and b["accepted_fraction"] == 0.0

    def test_alpha_one_marginal_is_shannon(self):
        logits, labels, n_unl = tiny_fixed_instance()
        cfg = ExperimentConfig(alpha=1.0, tau=0.9)
        b, _ = infomax_loss_and_grad(logits, labels, n_unl, cfg)
        pi = softmax(logits[:len(labels) + n_unl]).mean(axis=0)
        assert b["neg_marginal_entropy"] == pytest.approx(-shannon_entropy(pi), abs=1e-15)

    def test_shannon_special_case_of_general_objective(self):
        """The alpha = 1 objective equals the general form at alpha = 1."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            logits, labels = random_instance(rng, 4, 6, 3)
            cfg = ExperimentConfig(alpha=1.0, tau=0.9)
            via_alpha, _ = infomax_loss_and_grad(logits, labels, 6, cfg)
            total, neg_h, ce, pce = straight_line_total(logits, labels, 6, 1.0, 0.9)
            assert via_alpha["total"] == pytest.approx(total, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        lab_logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        weak = rng.normal(size=(7, 4)) * 2
        strong = rng.normal(size=(7, 4))
        cfg = ExperimentConfig(alpha=1.5, tau=0.8)
        logits = np.concatenate([lab_logits, weak, strong])
        ref, _ = infomax_loss_and_grad(logits, labels, 7, cfg)
        pl = rng.permutation(5)
        pu = rng.permutation(7)
        per, _ = infomax_loss_and_grad(
            np.concatenate([lab_logits[pl], weak[pu], strong[pu]]), labels[pl], 7, cfg)
        for name in ("neg_marginal_entropy", "labeled_ce", "pseudo_ce", "total",
                     "accepted_fraction"):
            assert per[name] == pytest.approx(ref[name], abs=1e-12)

    @pytest.mark.parametrize("tau", [0.2, 1.5], ids=["accepted", "none-accepted"])
    def test_every_term_is_a_python_float(self, tau):
        """At K=4 a tau below 1/4 accepts every unlabeled row, above 1 none."""
        logits, labels = random_instance(np.random.default_rng(0), 3, 5, 4)
        got, _ = infomax_loss_and_grad(logits, labels, 5, ExperimentConfig(tau=tau))
        assert got["accepted_fraction"] == (1.0 if tau < 1 else 0.0)
        assert all(type(value) is float for value in got.values())

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            infomax_loss_and_grad(np.zeros((0, 4)), [], 0, ExperimentConfig())

    def test_tau_above_one_is_legal_config(self):
        cfg = ExperimentConfig(tau=1.5)
        assert cfg.tau == 1.5


def sample_safe_instance(rng, n_lab=3, n_unl=5, k=4, tau=0.8):
    """Random stacked logits and labels kept away from argmax ties and the
    tau boundary, so central differences see the same locally-constant
    pseudo-labels."""
    while True:
        lab_logits = rng.normal(size=(n_lab, k)) * 2
        labels = rng.integers(0, k, size=n_lab)
        weak = rng.normal(size=(n_unl, k)) * 3
        strong = rng.normal(size=(n_unl, k)) * 2
        wp = softmax(weak)
        top = np.sort(wp, axis=1)
        if np.any(np.abs(wp.max(axis=1) - tau) < 1e-3):
            continue
        if np.any(top[:, -1] - top[:, -2] < 1e-3):
            continue
        return np.concatenate([lab_logits, weak, strong]), labels


class TestInfomaxGradients:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(31)
        cfg = ExperimentConfig(alpha=alpha, tau=0.8)
        for _ in range(10):
            logits, labels = sample_safe_instance(rng)
            _, grad = infomax_loss_and_grad(logits, labels, 5, cfg)
            assert grad.shape == logits.shape
            fd = finite_diff_gradient(
                lambda flat: infomax_loss_and_grad(flat.reshape(logits.shape), labels, 5,
                                                   cfg)[0]["total"],
                logits.ravel())
            assert relative_error(grad.ravel(), fd) < 1e-5

    def test_weak_gradient_zero_without_marginal_term(self):
        rng = np.random.default_rng(33)
        logits, labels = sample_safe_instance(rng)
        _, grad = infomax_loss_and_grad(logits, labels, 5, ExperimentConfig(
            alpha=1.5, tau=0.8, marginal_weight=0.0))
        assert not np.any(grad[branch_rows(3, 5)[1]])

    def test_rejected_sample_has_zero_strong_gradient(self):
        rng = np.random.default_rng(34)
        logits, labels = sample_safe_instance(rng, tau=0.99)
        _, weak, strong = branch_rows(3, 5)
        wp = softmax(logits[weak])
        rejected = wp.max(axis=1) < 0.99
        assert rejected.any()
        _, grad = infomax_loss_and_grad(logits, labels, 5, ExperimentConfig(
            alpha=1.5, tau=0.99, marginal_weight=0.0))
        assert not np.any(grad[strong][rejected])

    # (logits, labels, n_unl, expected message), all with K = 4; the kernel
    # checks its stacked batch before any arithmetic
    MALFORMED = {
        "label-negative": (np.zeros((8, 4)), [-1, 3], 3, "labels must be one integer"),
        "label-K": (np.zeros((8, 4)), [0, 4], 3, "labels must be one integer"),
        "label-count": (np.zeros((8, 4)), [0, 1, 3], 3, "rows"),
        "label-float": (np.zeros((8, 4)), [1.7, 0.2], 3, "labels must be one integer"),
        "label-bool": (np.zeros((8, 4)), [True, False], 3, "labels must be one integer"),
        "logits-1d": (np.zeros(8), [0, 3], 3, "2-D"),
        # 2 labeled rows, 3 weak rows and 2 strong rows
        "weak-strong-shape": (np.zeros((7, 4)), [0, 3], 3, "rows"),
        "n_unl-negative": (np.zeros((0, 4)), [0, 3], -1, "n_unl must be"),
        "n_unl-fractional": (np.zeros((7, 4)), [0, 3], 2.5, "n_unl must be"),
    }

    @pytest.mark.parametrize("logits, labels, n_unl, message", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_batch_api_rejects_malformed_input(self, logits, labels, n_unl, message):
        with pytest.raises(ValueError, match=message):
            infomax_loss_and_grad(logits, labels, n_unl, ExperimentConfig())


class TestObjectiveConfigValidation:
    def test_alpha_positive(self):
        with pytest.raises(ConfigError, match=r"^alpha must be > 0, got 0.0$"):
            ExperimentConfig(alpha=0.0)

    def test_tau_positive(self):
        with pytest.raises(ConfigError, match=r"^tau must be > 0, got 0.0$"):
            ExperimentConfig(tau=0.0)
