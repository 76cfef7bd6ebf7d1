"""Network forward/backward, SGD training loop, evaluation."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

import ltinfomax.trainer as trainer_module
from ltinfomax.data import (
    LongTailSpec,
    Split,
    World,
    augment_pair,
    domain_rotation,
    split_labeled_unlabeled,
)
from ltinfomax.errors import DivergenceError
from ltinfomax.experiments import ExperimentConfig
from ltinfomax.numerics import LOG_EPS, finite_diff_gradient, relative_error, softmax
from ltinfomax.objectives import branch_rows, infomax_loss_and_grad
from ltinfomax.trainer import (
    MlpModel,
    evaluate,
    init_mlp,
    make_state,
    train,
    train_step,
)


def toy_sources(k=3, d=8, n_per_class=30, noise=0.4, gamma=1.0, m_l=5,
                num_domains=3, shift=0.5, seed0=100):
    """One Split per domain of a ``num_domains``-domain World of blobs."""
    rng = np.random.default_rng(0)
    centroids = 3.0 * rng.standard_normal((k, d))
    labels = np.repeat(np.arange(k), n_per_class)
    blocks = []
    for i in range(num_domains):
        moved = (centroids + shift * rng.standard_normal(d)) @ domain_rotation(d, 50 + i, 0.1).T
        noise_draw = np.random.default_rng(seed0 + i).standard_normal((len(labels), d))
        blocks.append(moved[labels] + noise * noise_draw)
    world = World(np.concatenate(blocks), np.tile(labels, num_domains),
                  np.arange(num_domains + 1) * len(labels), k)
    return [split_labeled_unlabeled(world, i, LongTailSpec(k, m_l, gamma), seed=seed0 + 10 + i)
            for i in range(num_domains)]


def pooled(sources):
    """(labeled rows, their labels, unlabeled rows) of ``sources``, in source order."""
    domains = [(*s.world.domain(s.domain), s) for s in sources]
    return (np.concatenate([x[s.labeled_indices] for x, _, s in domains]),
            np.concatenate([y[s.labeled_indices] for _, y, s in domains]),
            np.concatenate([x[s.unlabeled_indices] for x, _, s in domains]))


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = MlpModel([np.zeros((4, 3))], [np.zeros(3)])
        np.testing.assert_array_equal(trainer_module._forward_cached(model, np.ones((1, 4)))[0],
                                      np.zeros((1, 3)))

    def test_hand_computed_2_2_2(self):
        """x=(1,2) through fixed weights: logits (0.5, 2.5) by hand."""
        model = MlpModel(
            [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0, 0.0], [-1.0, 1.0]])],
            [np.array([0.5, -1.0]), np.array([0.0, 0.5])],
        )
        # hidden: relu((1+1, -1+4) + (0.5, -1)) = (2.5, 2.0)
        # logits: (2.5 - 2.0, 2.0 + 0.5) = (0.5, 2.5)
        logits = trainer_module._forward_cached(model, np.array([[1.0, 2.0]]))[0]
        np.testing.assert_allclose(logits, [[0.5, 2.5]], rtol=1e-15)

    def test_final_layer_scaling_preserves_argmax(self):
        rng = np.random.default_rng(1)
        model = init_mlp([5, 8, 4], rng)
        x = rng.normal(size=(20, 5))
        base = trainer_module._forward_cached(model, x)[0]
        scaled = MlpModel([w.copy() for w in model.weights],
                          [b.copy() for b in model.biases])
        scaled.weights[-1] *= 3.0
        scaled.biases[-1] *= 3.0
        out = trainer_module._forward_cached(scaled, x)[0]
        np.testing.assert_allclose(out, 3.0 * base, rtol=1e-12)
        np.testing.assert_array_equal(np.argmax(out, axis=1), np.argmax(base, axis=1))

    def test_dimension_mismatch(self):
        """evaluate names both widths before any row runs."""
        model = init_mlp([4, 3], np.random.default_rng(0))
        target = World(np.ones((2, 5)), [0, 2], [0, 2], 3)
        with pytest.raises(ValueError, match="model takes 4 features, target has 5"):
            evaluate(model, target, 0)

    @pytest.mark.parametrize("sizes", [(16, 64, 64, 5), (64, 256, 256, 40)],
                             ids=["default", "wide-classes"])
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 258, 513, 1600])
    def test_blocks_match_one_product(self, sizes, n):
        """evaluate's row blocks give the confusion and predicted marginal of
        one full product per layer, bit for bit; n=257 ends on a 1-row
        remainder, which joins the block before it."""
        k = sizes[-1]
        model = init_mlp(list(sizes), np.random.default_rng(3))
        rng = np.random.default_rng(n)
        target = World(rng.standard_normal((n, sizes[0])), rng.integers(k, size=n), [0, n], k)
        report = evaluate(model, target, 0)
        logits = trainer_module._forward_cached(model, target.features)[0]
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (target.labels, np.argmax(logits, axis=-1)), 1)
        np.testing.assert_array_equal(report["confusion"], confusion)
        assert np.array_equal(report["predicted_marginal"], softmax(logits).mean(axis=0))


def step_gradient_and_fd(model, lab_x, lab_y, unl_x, cfg):
    """The parameter gradient one train_step from ``model`` applies, read from
    ``state.grads``, and its central finite-difference reference: the
    forward pass and infomax_loss_and_grad on the views the step draws. Asserts
    that the step, from zero velocity, moved the parameters by exactly
    -learning_rate times that gradient."""
    state = make_state(cfg, 4, 3, seed=0)
    state.model.flat[...] = model.flat
    n_unl = 0 if unl_x is None else len(unl_x)
    views = augment_pair(unl_x, copy.deepcopy(state.rngs["augment"])) if n_unl else ()
    x = np.concatenate([lab_x, *views])

    def total(flat):
        m = model.copy()
        m.flat[...] = flat
        return infomax_loss_and_grad(trainer_module._forward_cached(m, x)[0], lab_y, n_unl,
                                     cfg)[0]["total"]

    fd = finite_diff_gradient(total, model.flat.copy())
    train_step(state, lab_x, lab_y, unl_x)
    lr = state.config.learning_rate
    assert np.array_equal(state.model.flat, model.flat - lr * state.grads.flat)
    return state.grads.flat, fd


class TestParameterGradients:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_full_network_matches_finite_differences(self, alpha):
        """d=4, hidden 6, K=3 mixed batch; rel err < 1e-4 against FD."""
        rng = np.random.default_rng(42)
        cfg = ExperimentConfig(hidden=(6,), alpha=alpha, tau=0.8)
        for _ in range(5):
            model = init_mlp([4, 6, 3], rng)
            lab_x = rng.normal(size=(3, 4))
            lab_y = rng.integers(0, 3, size=3)
            unl_x = rng.normal(size=(5, 4))
            analytic, fd = step_gradient_and_fd(model, lab_x, lab_y, unl_x, cfg)
            assert relative_error(analytic, fd) < 1e-4

    def test_supervised_only_equals_cross_entropy_backprop(self):
        """marginal_weight 0, no unlabeled: gradient is CE backprop, FD-checked."""
        rng = np.random.default_rng(7)
        model = init_mlp([4, 6, 3], rng)
        cfg = ExperimentConfig(hidden=(6,), alpha=1.0, tau=0.95, marginal_weight=0.0)
        lab_x = rng.normal(size=(1, 4))
        lab_y = np.array([2])
        analytic, fd = step_gradient_and_fd(model, lab_x, lab_y, None, cfg)
        assert relative_error(analytic, fd) < 1e-5


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self):
        # learning_rate must be > 0; emulate with lr -> tiny
        cfg = ExperimentConfig(hidden=(6,), learning_rate=1e-300, tau=0.9)
        state = make_state(cfg, input_dim=4, num_classes=3, seed=1)
        before = state.model.flat.copy()
        rng = np.random.default_rng(2)
        train_step(state, rng.normal(size=(4, 4)), rng.integers(0, 3, 4),
                   rng.normal(size=(8, 4)))
        after = state.model.flat.copy()
        np.testing.assert_allclose(after, before, atol=1e-290)

    def test_labeled_ce_decreases_on_separable_toy(self):
        """Full-batch steps on separable 2-class data: non-increasing
        labeled_ce over 5-step windows after the first epoch."""
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=(20, 2)) + 4.0,
                            rng.normal(size=(20, 2)) - 4.0])
        y = np.array([0] * 20 + [1] * 20)
        cfg = ExperimentConfig(hidden=(8,), learning_rate=0.02, marginal_weight=0.0, tau=2.0)
        state = make_state(cfg, 2, 2, seed=5)
        losses = [train_step(state, x, y, None)["labeled_ce"] for _ in range(60)]
        windows = [np.mean(losses[i:i + 5]) for i in range(5, 55, 5)]
        assert all(a >= b - 1e-9 for a, b in zip(windows, windows[1:]))
        assert losses[-1] < losses[5]

    def test_divergence_raises(self):
        cfg = ExperimentConfig(hidden=(6, 6), learning_rate=1e150)
        state = make_state(cfg, 4, 3, seed=1)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        with pytest.raises(DivergenceError, match="^non-finite") as info:
            with np.errstate(all="ignore"):
                for _ in range(60):
                    train_step(state, x, y, rng.normal(size=(8, 4)))
        assert "epoch" not in str(info.value)  # train names the epoch, not a step

    @pytest.mark.parametrize("tau", [0.3, 1.5], ids=["accepted", "none-accepted"])
    def test_every_term_is_a_python_float(self, tau):
        """At K=3 a tau below 1/3 accepts every unlabeled row, above 1 none."""
        state = make_state(ExperimentConfig(hidden=(6,), tau=tau), 4, 3, seed=1)
        rng = np.random.default_rng(2)
        terms = train_step(state, rng.normal(size=(4, 4)), rng.integers(0, 3, 4),
                           rng.normal(size=(8, 4)))
        assert terms["accepted_fraction"] == (1.0 if tau < 1 else 0.0)
        assert all(type(value) is float for value in terms.values())

    def test_non_finite_loss_is_named_with_plain_floats(self):
        """Logits of +-1e307 are finite, but 16 labeled rows of the class at
        -1e307 sum a cross-entropy past the float range; every weak row is
        accepted, so accepted_fraction is 1."""
        state = make_state(ExperimentConfig(hidden=(), tau=0.7), 1, 3, seed=1)
        state.model.weights[0][:] = [[2e307, 0.0, -2e307]]
        x = np.full((16, 1), 0.5)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="^non-finite loss") as info:
            train_step(state, x, np.full(16, 2), x)
        assert "'accepted_fraction': 1.0" in str(info.value)
        assert "np.float64(" not in str(info.value)

    def test_zero_pre_activation_gets_no_gradient(self):
        """ReLU'(0) = 0: a hidden unit whose pre-activation is exactly 0 (zero
        weights and bias 0.0 or -0.0) passes no gradient to its weights, its
        bias or the next layer's row for it."""
        cfg = ExperimentConfig(hidden=(6, 5), tau=0.5)
        state = make_state(cfg, 4, 3, seed=1)
        w0, b0, w1 = state.model.weights[0], state.model.biases[0], state.model.weights[1]
        w0[:, [1, 4]] = 0.0
        b0[1], b0[4] = 0.0, -0.0
        w1[[1, 4]] = 1.0  # a non-zero path back to the dead units
        rng = np.random.default_rng(5)
        train_step(state, rng.normal(size=(8, 4)), rng.integers(0, 3, 8),
                   rng.normal(size=(8, 4)))
        g0, gb0, g1 = state.grads.weights[0], state.grads.biases[0], state.grads.weights[1]
        assert not g0[:, [1, 4]].any() and not gb0[[1, 4]].any() and not g1[[1, 4]].any()
        assert g0[:, [0, 2, 3, 5]].all() and g1[[0, 2, 3, 5]].any()


# labels a K=3 model must reject: out of [0, K), not integers, or not one per labeled row
BAD_LABELS = {"label-negative": [-1, 0], "label-K": [3, 0], "label-count": [0],
              "label-float": [1.5, 0.0], "label-bool": [True, False],
              "label-int8-negative": np.array([-1, 0], dtype=np.int8)}


class TestStepLabels:
    @pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
    def test_train_step_rejects_bad_labels_before_any_state_changes(self, labels):
        state = make_state(ExperimentConfig(hidden=(6,)), 4, 3, seed=1)
        before = state.model.flat.copy()
        augment = state.rngs["augment"].bit_generator.state
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match=r"labels.*\[0, 3\)"):
            train_step(state, rng.normal(size=(2, 4)), np.array(labels),
                       rng.normal(size=(4, 4)))
        np.testing.assert_array_equal(state.model.flat, before)
        assert state.rngs["augment"].bit_generator.state == augment

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint64, np.dtype(">i4")])
    def test_train_step_takes_any_integer_labels_as_int64(self, dtype):
        """Labels of any integer dtype in [0, K) give the int64 labels' step."""
        rng = np.random.default_rng(2)
        x, unl = rng.normal(size=(2, 4)), rng.normal(size=(4, 4))
        states = [make_state(ExperimentConfig(hidden=(6,)), 4, 3, seed=1) for _ in range(2)]
        for state, labels in zip(states, (np.array([2, 0], dtype=dtype), np.array([2, 0]))):
            train_step(state, x, labels, unl)
        np.testing.assert_array_equal(states[0].model.flat, states[1].model.flat)

    @pytest.mark.parametrize("wrong, labeled_shape, unlabeled_shape",
                             [("unlabeled", (2, 4), (5, 5)), ("labeled", (2, 5), (5, 4))],
                             ids=["unlabeled", "labeled"])
    def test_train_step_rejects_wrong_width_before_any_state_changes(
            self, wrong, labeled_shape, unlabeled_shape):
        """A (5, 5) unlabeled batch on a 4-input model used to fail only after
        augment_pair had drawn from the augment stream."""
        state = make_state(ExperimentConfig(hidden=(6,)), 4, 3, seed=1)
        before = state.model.flat.copy()
        augment = state.rngs["augment"].bit_generator.state
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match=rf"\(N, 4\) {wrong} batch, got \(\d, 5\)"):
            train_step(state, rng.normal(size=labeled_shape), np.array([0, 2]),
                       rng.normal(size=unlabeled_shape))
        np.testing.assert_array_equal(state.model.flat, before)
        assert state.rngs["augment"].bit_generator.state == augment

    @pytest.mark.parametrize("labeled_x, unlabeled_x",
                             [(None, None), (np.empty((0, 4)), np.empty((0, 4)))],
                             ids=["none", "zero-rows"])
    def test_train_step_rejects_empty_batches_before_any_state_changes(
            self, labeled_x, unlabeled_x):
        state = make_state(ExperimentConfig(hidden=(6,)), 4, 3, seed=1)
        before = state.model.flat.copy()
        streams = {name: rng.bit_generator.state for name, rng in state.rngs.items()}
        with pytest.raises(ValueError, match="both batches are empty"):
            train_step(state, labeled_x, (), unlabeled_x)
        np.testing.assert_array_equal(state.model.flat, before)
        assert not state.velocity.any()
        assert {name: rng.bit_generator.state for name, rng in state.rngs.items()} == streams


def reference_step(state, lab_x, lab_y, unl_x):
    """Straight-line SGD step: a forward pass and a softmax per branch, the
    composite logit gradient written out term by term, and one backprop over
    the rows of every branch stacked in branch order, as train_step sums them.

    Returns the loss terms of the forward pass, as train_step returns them."""
    model, cfg = state.model, state.config
    n_layers = len(model.weights)

    def forward_branch(x):
        pre, acts = [], [x]
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = acts[-1] @ w + b
            pre.append(z)
            acts.append(np.maximum(z, 0.0) if i < n_layers - 1 else z)
        return pre, acts

    def softmax_rows(z):
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        return ez / ez.sum(axis=1, keepdims=True)

    def log_softmax_rows(z):
        shifted = z - z.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    branches = {"labeled": forward_branch(lab_x)}
    if unl_x is not None:
        weak_x, strong_x = augment_pair(unl_x, state.rngs["augment"])
        branches["weak"] = forward_branch(weak_x)
        branches["strong"] = forward_branch(strong_x)
    probs = {name: softmax_rows(acts[-1]) for name, (_, acts) in branches.items()}
    dlogits = {name: np.zeros_like(p) for name, p in probs.items()}

    marginal = [name for name in probs if name != "strong"]
    pi = np.concatenate([probs[name] for name in marginal]).mean(axis=0)
    if cfg.marginal_weight > 0:
        a, p = cfg.alpha, np.maximum(pi, LOG_EPS)
        d_entropy = -(np.log(p) + 1.0) if a == 1 else -a / (a - 1.0) * p ** (a - 1.0)
        g_pi = -d_entropy
        coef = cfg.marginal_weight / sum(len(probs[name]) for name in marginal)
        # one inner product over the labeled and weak rows, as the kernel takes it
        inner = np.concatenate([probs[name] for name in marginal]) @ g_pi
        for name, part in zip(marginal, np.split(inner, [len(lab_y)])):
            dlogits[name] += coef * probs[name] * (g_pi[None, :] - part[:, None])
    g = probs["labeled"].copy()
    g[np.arange(len(lab_y)), lab_y] -= 1.0
    dlogits["labeled"] += g / len(lab_y)
    a = cfg.alpha
    entropy = (-np.sum(pi * np.log(np.maximum(pi, LOG_EPS))) if a == 1
               else (1.0 - np.sum(np.maximum(pi, 0.0) ** a)) / (a - 1.0))
    terms = {"neg_marginal_entropy": -entropy, "pseudo_ce": 0.0, "accepted_fraction": 0.0,
             "labeled_ce": -np.sum(log_softmax_rows(branches["labeled"][1][-1])
                                   [np.arange(len(lab_y)), lab_y]) / len(lab_y)}
    if unl_x is not None:
        accepted = probs["weak"].max(axis=1) >= cfg.tau
        if accepted.any():
            logp = log_softmax_rows(branches["strong"][1][-1])
            pseudo = np.argmax(probs["weak"], axis=1)
            picked = logp[np.arange(len(unl_x)), pseudo]
            terms["pseudo_ce"] = -np.sum(picked * accepted) / len(unl_x)
            terms["accepted_fraction"] = accepted.mean()
            g = probs["strong"].copy()
            g[np.arange(len(unl_x)), np.argmax(probs["weak"], axis=1)] -= 1.0
            dlogits["strong"] += (accepted[:, None] * g) / len(unl_x)

    # one backprop over the rows of every branch, stacked in branch order
    pre = [np.concatenate([p[i] for p, _ in branches.values()]) for i in range(n_layers)]
    acts = [np.concatenate([a[i] for _, a in branches.values()]) for i in range(n_layers)]
    delta = np.concatenate(list(dlogits.values()))
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0)

    # one update over every parameter, concatenated weight then bias per layer
    grad = np.concatenate([g.ravel() for pair in zip(grads_w, grads_b) for g in pair])
    state.velocity *= trainer_module.MOMENTUM
    state.velocity -= cfg.learning_rate * grad
    model.flat += state.velocity
    terms["total"] = cfg.marginal_weight * terms["neg_marginal_entropy"] + \
        terms["labeled_ce"] + terms["pseudo_ce"]
    return terms


def reference_train(config, sources, seed, supervised_only=False):
    """Straight-line train(): labeled indices drawn per step, reference_step."""
    lab_x, lab_y, unl_x = pooled(sources)
    state = make_state(config, lab_x.shape[1], sources[0].world.num_classes, seed)
    steps, batch = len(unl_x) // config.unlabeled_batch, config.unlabeled_batch
    history = []
    for epoch in range(config.epochs):
        if not supervised_only:
            order = state.rngs["unlabeled"].permutation(len(unl_x))
        terms = []
        for s in range(steps):
            lab = state.rngs["labeled"].integers(len(lab_x), size=config.labeled_batch)
            unl = None if supervised_only else unl_x[order[s * batch:(s + 1) * batch]]
            terms.append(reference_step(state, lab_x[lab], lab_y[lab], unl))
        history.append({**{k: float(np.mean([t[k] for t in terms])) for k in terms[0]},
                        "epoch": epoch})
    return state, history


PARITY_CASES = {
    "no-marginal": (dict(marginal_weight=0.0, tau=0.7), False),
    "shannon": (dict(alpha=1.0, tau=0.7), False),
    "tsallis": (dict(alpha=1.5, tau=0.7), False),
    "supervised-only": (dict(tau=0.7), True),
}


# the default run's shapes at K=5 and K=12, and the wide-classes benchmark's
BENCHMARK_SHAPES = pytest.mark.parametrize("k,dim,hidden,tau,steps", [
    (5, 16, (64, 64), 0.7, 40),
    (12, 16, (64, 64), 0.7, 40),
    (40, 64, (256, 256), 0.3, 20),
], ids=["5", "12", "40-wide"])


class TestStepParity:
    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_bit_identical_to_per_branch_reference(self, name):
        """The stacked step lands on exactly the parameters of the stacked
        oracle (per-branch forward passes and logit gradients, one backprop
        over the stacked rows) after three epochs of steps."""
        objective, supervised = PARITY_CASES[name]
        sources = toy_sources()
        lab_x, lab_y, unl_x = pooled(sources)
        cfg = ExperimentConfig(hidden=(16, 16), learning_rate=0.1, labeled_batch=12,
                               unlabeled_batch=24, **objective)
        fused = make_state(cfg, lab_x.shape[1], sources[0].world.num_classes, seed=5)
        reference = make_state(cfg, lab_x.shape[1], sources[0].world.num_classes, seed=5)
        rng = np.random.default_rng(6)
        accepted = []
        for _ in range(3 * (len(unl_x) // cfg.unlabeled_batch)):
            lab = rng.choice(len(lab_x), size=cfg.labeled_batch)
            unl = None if supervised else unl_x[rng.choice(len(unl_x), cfg.unlabeled_batch)]
            accepted.append(train_step(fused, lab_x[lab], lab_y[lab], unl)["accepted_fraction"])
            reference_step(reference, lab_x[lab], lab_y[lab], unl)
        for got, want in zip(fused.model.weights + fused.model.biases,
                             reference.model.weights + reference.model.biases):
            assert np.array_equal(got, want)
        if not supervised:
            assert max(accepted) > 0  # the strong branch took part

    @BENCHMARK_SHAPES
    def test_bit_identical_at_benchmark_shapes(self, k, dim, hidden, tau, steps):
        """Bit-identical to the stacked oracle at the default run's shapes
        (16 features, hidden 64x64, batches 16/64); K=12 takes the >= 8-wide
        pairwise path of row reductions.
        The wide-classes benchmark's shapes (K=40, 64 features, hidden
        256x256) take BLAS's large-matrix kernels (M*N*K above 10^6)."""
        sources = toy_sources(k=k, d=dim, n_per_class=40, seed0=200)
        lab_x, lab_y, unl_x = pooled(sources)
        cfg = ExperimentConfig(hidden=hidden, tau=tau)
        fused = make_state(cfg, dim, k, seed=3)
        reference = make_state(cfg, dim, k, seed=3)
        rng = np.random.default_rng(8)
        accepted = []
        for _ in range(steps):
            lab = rng.choice(len(lab_x), size=cfg.labeled_batch)
            unl = unl_x[rng.choice(len(unl_x), cfg.unlabeled_batch)]
            accepted.append(train_step(fused, lab_x[lab], lab_y[lab], unl)["accepted_fraction"])
            reference_step(reference, lab_x[lab], lab_y[lab], unl)
        for got, want in zip(fused.model.weights + fused.model.biases,
                             reference.model.weights + reference.model.biases):
            assert np.array_equal(got, want)
        assert max(accepted) > 0

    @BENCHMARK_SHAPES
    def test_stacked_gradient_is_the_sum_of_the_branch_gradients(
            self, monkeypatch, k, dim, hidden, tau, steps):
        """The one backprop over the stacked rows differs from a backprop per
        branch only in rounding: after each step, state.grads is the sum of the
        labeled, weak and strong parameter gradients, each taken on its own
        rows of the step's cache, to a relative error of 1e-12 in each weight and
        bias array (an entry's own relative error is larger where the rows'
        terms cancel)."""
        step, forward_cached = {}, trainer_module._forward_cached

        def keep_cache(model, x):
            logits, step["acts"] = forward_cached(model, x)
            return logits, step["acts"]

        def keep_dlogits(*args):
            breakdown, step["dlogits"] = infomax_loss_and_grad(*args)
            return breakdown, step["dlogits"]

        monkeypatch.setattr(trainer_module, "_forward_cached", keep_cache)
        monkeypatch.setattr(trainer_module, "infomax_loss_and_grad", keep_dlogits)
        sources = toy_sources(k=k, d=dim, n_per_class=40, seed0=200)
        lab_x, lab_y, unl_x = pooled(sources)
        state = make_state(ExperimentConfig(hidden=hidden, tau=tau), dim, k, seed=3)
        rng = np.random.default_rng(8)
        accepted = []
        for _ in range(steps):
            before = state.model.copy()
            lab = rng.choice(len(lab_x), size=state.config.labeled_batch)
            unl = unl_x[rng.choice(len(unl_x), state.config.unlabeled_batch)]
            accepted.append(train_step(state, lab_x[lab], lab_y[lab], unl)["accepted_fraction"])
            branch, total = before.copy(), before.copy()
            total.flat.fill(0.0)
            for rows in branch_rows(len(lab), len(unl)):
                trainer_module._backprop(before, [a[rows] for a in step["acts"]],
                                         step["dlogits"][rows], branch)
                total.flat += branch.flat
            for got, want in zip(state.grads.weights + state.grads.biases,
                                 total.weights + total.biases):
                assert relative_error(got, want) < 1e-12
        assert max(accepted) > 0  # the strong branch took part


class TestTrainParity:
    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_train_matches_the_straight_line_loop(self, name):
        """train() lands on exactly the parameters and history of a loop that
        draws labeled indices per step and calls reference_step, the stacked
        oracle."""
        objective, supervised = PARITY_CASES[name]
        if supervised:  # train's supervised baseline: the unlabeled terms off
            objective = dict(marginal_weight=0.0, tau=1.0 + 1e-9)
        sources = toy_sources()
        cfg = ExperimentConfig(hidden=(16, 16), epochs=3, learning_rate=0.1, labeled_batch=12,
                               unlabeled_batch=24, **objective)
        model, trained_history = train(cfg, sources, seed=5)
        reference, history = reference_train(cfg, sources, seed=5)
        assert np.array_equal(model.flat, reference.model.flat)
        assert trained_history == history
        if supervised:
            labeled_only, _ = reference_train(cfg, sources, seed=5, supervised_only=True)
            assert np.array_equal(model.flat, labeled_only.model.flat)
        else:
            assert max(h["accepted_fraction"] for h in history) > 0

    def test_one_integers_call_equals_a_call_per_step(self):
        """train draws an epoch's labeled indices at once: the same stream."""
        one, per_step = (np.random.default_rng(np.random.SeedSequence([3, 1])) for _ in "ab")
        np.testing.assert_array_equal(one.integers(37, size=(9, 16)),
                                      [per_step.integers(37, size=16) for _ in range(9)])
        assert one.random() == per_step.random()

    def test_one_normal_draw_equals_two(self):
        """augment_pair draws both views' noise at once: the same stream."""
        one, two = (np.random.default_rng(np.random.SeedSequence([3, 3])) for _ in "ab")
        np.testing.assert_array_equal(one.standard_normal((2, 64, 16)),
                                      [two.standard_normal((64, 16)) for _ in range(2)])
        assert one.random() == two.random()


class TestFlatLayout:
    def test_parameters_and_velocities_are_views_of_one_buffer(self):
        state = make_state(ExperimentConfig(hidden=(6, 5)), input_dim=4, num_classes=3, seed=0)
        for owner in (state.model, state.grads):
            views = owner.weights + owner.biases
            assert all(v.base is owner.flat for v in views)
            assert sum(v.size for v in views) == owner.flat.size == 24 + 6 + 30 + 5 + 15 + 3
        assert state.velocity.shape == state.model.flat.shape

    def test_copies_do_not_alias_the_source(self):
        model = init_mlp([4, 6, 3], np.random.default_rng(0))
        for other in (model.copy(), MlpModel(model.weights, model.biases)):
            np.testing.assert_array_equal(other.flat, model.flat)
            other.weights[0][0, 0] += 1.0
            other.biases[-1][-1] += 1.0
            assert not np.shares_memory(other.flat, model.flat)
            assert other.flat[0] != model.flat[0] and other.flat[-1] != model.flat[-1]

    def test_deepcopy_and_pickle_keep_one_buffer(self):
        model = init_mlp([4, 6, 3], np.random.default_rng(0))
        for other in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            np.testing.assert_array_equal(other.flat, model.flat)
            assert all(v.base is other.flat for v in other.weights + other.biases)
            assert not np.shares_memory(other.flat, model.flat)

    def test_flat_is_weight_then_bias_per_layer(self):
        cfg = ExperimentConfig(hidden=(6,), tau=0.7)
        state = make_state(cfg, input_dim=4, num_classes=3, seed=2)
        rng = np.random.default_rng(3)
        train_step(state, rng.normal(size=(5, 4)), rng.integers(0, 3, 5), rng.normal(size=(7, 4)))
        model = state.model
        parts = [a.ravel() for pair in zip(model.weights, model.biases) for a in pair]
        np.testing.assert_array_equal(model.flat, np.concatenate(parts))
        assert np.array_equal(model.flat[:24], model.weights[0].ravel())

    def test_history_is_the_per_step_mean_of_the_loss_terms(self, monkeypatch):
        records = []

        def recording_step(*args, **kwargs):
            breakdown = train_step(*args, **kwargs)
            records.append(breakdown)
            return breakdown

        monkeypatch.setattr(trainer_module, "train_step", recording_step)
        sources = toy_sources()
        _, history = train(ExperimentConfig(hidden=(8,), epochs=3, unlabeled_batch=40, tau=0.6),
                           sources, seed=4)
        steps = len(records) // 3
        assert steps > 1 and len(records) == 3 * steps
        for epoch, mean in enumerate(history):
            epoch_records = records[epoch * steps:(epoch + 1) * steps]
            want = {k: float(np.mean([r[k] for r in epoch_records])) for k in records[0]}
            assert mean == {**want, "epoch": epoch}
        assert any(h["accepted_fraction"] > 0 for h in history)


class TestTrain:
    def test_zero_epochs_returns_initial_state(self):
        sources = toy_sources()
        cfg = ExperimentConfig(hidden=(8,), epochs=0)
        model, history = train(cfg, sources, seed=9)
        fresh = make_state(cfg, 8, 3, seed=9)  # toy_sources' d and k
        np.testing.assert_array_equal(model.flat, fresh.model.flat)
        assert history == []

    def test_deterministic_given_seed(self):
        sources = toy_sources()
        cfg = ExperimentConfig(hidden=(8,), epochs=3)
        a, a_history = train(cfg, sources, seed=13)
        b, b_history = train(cfg, sources, seed=13)
        np.testing.assert_array_equal(a.flat, b.flat)
        assert a_history == b_history

    def test_different_seed_differs(self):
        sources = toy_sources()
        cfg = ExperimentConfig(hidden=(8,), epochs=1)
        a, _ = train(cfg, sources, seed=1)
        b, _ = train(cfg, sources, seed=2)
        assert not np.array_equal(a.flat, b.flat)

    def test_heldin_accuracy_on_separated_domains(self):
        """20 epochs on 3 well-separated sources learns the task."""
        sources = toy_sources(k=3, d=8, n_per_class=30, noise=0.3, m_l=5)
        cfg = ExperimentConfig(hidden=(32,), epochs=20)
        model, _ = train(cfg, sources, seed=11)
        report = evaluate(model, sources[0].world, 0)
        assert report["accuracy"] > 0.9

    def test_supervised_reduction_bit_identical(self):
        """marginal_weight=0 and tau>1 lands on the same parameters as a
        loop that never touches the unlabeled data."""
        sources = toy_sources()
        cfg = ExperimentConfig(hidden=(8,), epochs=4, marginal_weight=0.0, tau=1.0 + 1e-9)
        full, _ = train(cfg, sources, seed=17)
        labeled_only, _ = reference_train(cfg, sources, seed=17, supervised_only=True)
        np.testing.assert_array_equal(full.flat, labeled_only.model.flat)

    def test_history_length_matches_epochs(self):
        sources = toy_sources()
        cfg = ExperimentConfig(hidden=(8,), epochs=5)
        _, history = train(cfg, sources, seed=3)
        assert len(history) == 5
        assert [h["epoch"] for h in history] == list(range(5))
        for h in history:
            assert set(h) >= {"neg_marginal_entropy", "labeled_ce", "pseudo_ce",
                              "total", "accepted_fraction"}

    def test_divergence_on_the_last_update_raises(self):
        """One step whose update overflows: no later logits check sees it. The
        message names the epoch; the seed is left to the run's caller to name."""
        sources = toy_sources()
        assert sum(len(d.unlabeled_indices) for d in sources) < 1000  # a single step
        cfg = ExperimentConfig(hidden=(32,), epochs=1, learning_rate=1e308, unlabeled_batch=1000)
        with pytest.raises(DivergenceError, match=r"^at epoch 0: non-finite param") as info:
            train(cfg, sources, seed=4)
        assert "seed" not in str(info.value)

    def test_needs_two_sources(self):
        sources = toy_sources(num_domains=1)
        with pytest.raises(ValueError):
            train(ExperimentConfig(), sources, seed=0)

    def test_needs_labeled_rows(self):
        sources = [Split(s.world, s.domain, [], s.unlabeled_indices) for s in toy_sources()]
        with pytest.raises(ValueError, match="no labeled samples"):
            train(ExperimentConfig(hidden=(8,)), sources, seed=0)

    @pytest.mark.parametrize("labeled_batch", [4, 1000], ids=["several-steps", "one-step"])
    def test_an_empty_unlabeled_pool_steps_through_the_labeled_rows(self, monkeypatch,
                                                                     labeled_batch):
        """With no unlabeled row an epoch takes max(1, n_lab // labeled_batch)
        supervised steps, and nothing is pseudo-labeled."""
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(len(args[3]))
            return train_step(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "train_step", counting_step)
        sources = [Split(s.world, s.domain, s.labeled_indices, []) for s in toy_sources()]
        n_lab = sum(len(s.labeled_indices) for s in sources)
        cfg = ExperimentConfig(hidden=(8,), epochs=3, labeled_batch=labeled_batch)
        _, history = train(cfg, sources, seed=5)
        assert len(history) == 3
        assert all(h["accepted_fraction"] == 0 and h["pseudo_ce"] == 0 for h in history)
        assert calls == [0] * 3 * max(1, n_lab // labeled_batch)


class TestEvaluate:
    def test_perfect_predictor(self):
        sources = toy_sources(k=2, noise=1e-6, n_per_class=10, m_l=1,
                              shift=0.0)
        features, labels = sources[0].world.domain(0)
        # nearest-centroid behaviour via a wide trained model is overkill;
        # construct logits directly from a linear map that separates the blobs
        x0 = features[labels == 0].mean(axis=0)
        x1 = features[labels == 1].mean(axis=0)
        w = np.stack([x0, x1], axis=1)
        b = -0.5 * np.array([x0 @ x0, x1 @ x1])
        model = MlpModel([w], [b])
        report = evaluate(model, sources[0].world, 0)
        assert report["accuracy"] == 1.0
        confusion = np.asarray(report["confusion"])
        assert np.all(confusion == np.diag(np.diag(confusion)))

    def test_constant_predictor_matches_frequency(self):
        sources = toy_sources(k=3, n_per_class=20, m_l=2)
        world = sources[1].world
        model = MlpModel([np.zeros((world.features.shape[1], 3))],
                         [np.array([10.0, 0.0, 0.0])])
        report = evaluate(model, world, 1)
        freq = np.mean(world.domain(1)[1] == 0)
        assert report["accuracy"] == pytest.approx(freq, abs=1e-12)

    def test_ten_sample_hand_tally(self):
        """Linear model argmax = sign test; 7 of 10 rows match by hand."""
        feats = np.array([[2.0], [1.0], [0.5], [3.0], [-1.0],
                          [-2.0], [-0.5], [0.1], [-3.0], [-0.2]])
        #  argmax of (x, -x): class 0 iff x > 0
        labels = np.array([0, 0, 1, 0, 1, 1, 0, 0, 1, 0])
        model = MlpModel([np.array([[1.0, -1.0]])], [np.zeros(2)])
        # predictions: 0,0,0,0,1,1,1,0,1,1 -> matches at rows 0,1,3,4,5,7,8
        report = evaluate(model, World(feats, labels, [0, 10], num_classes=2), 0)
        assert report["accuracy"] == pytest.approx(0.7, abs=1e-12)

    def test_side_effect_free(self):
        world = toy_sources()[0].world
        model = init_mlp([8, 8, 3], np.random.default_rng(0))
        before = model.flat.copy()
        r1 = evaluate(model, world, 0)
        r2 = evaluate(model, world, 0)
        np.testing.assert_array_equal(model.flat, before)
        assert r1["accuracy"] == r2["accuracy"]
        np.testing.assert_array_equal(r1["confusion"], r2["confusion"])

    def test_overflowing_logits_are_a_divergence(self):
        """Finite but huge parameters overflow the target logits."""
        world = toy_sources()[0].world
        model = init_mlp([8, 8, 3], np.random.default_rng(1))
        model.flat *= 1e200
        with pytest.raises(DivergenceError, match="target"):
            evaluate(model, world, 0)

    def test_memory_is_bounded_by_blocks(self):
        """20000 rows through one 512-wide layer: one product would hold 82 MB
        of activations; the blocks hold about 1 MB."""
        rng = np.random.default_rng(0)
        n = 20000
        target = World(rng.standard_normal((n, 4)), rng.integers(2, size=n), [0, n], 2)
        model = init_mlp([4, 512, 2], rng)
        tracemalloc.start()
        try:
            evaluate(model, target, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    @pytest.mark.parametrize("k,n", [(12, 2 * 256 + 1), (40, 1600), (5, 200), (3, 1000)])
    def test_blocked_softmax_gives_the_whole_target_bits(self, k, n):
        """The softmax runs one EVAL_ROWS block at a time, yet the report equals
        softmax over all logits followed by .mean(axis=0), bit for bit; at K=12
        the row sums take numpy's >= 8-wide pairwise path, and 2 * 256 + 1 rows
        end on a 257-row block."""
        rng = np.random.default_rng(k)
        target = World(rng.standard_normal((n, 6)), rng.integers(k, size=n), [0, n], k)
        model = init_mlp([6, 16, k], rng)
        report = evaluate(model, target, 0)
        # the same blocks as evaluate's: one product of all 1600 rows at
        # [6, 16, 40] may take another OpenBLAS kernel
        step = trainer_module.EVAL_ROWS
        ends = [*range(step, n - 1, step), n]
        logits = np.concatenate([trainer_module._forward_cached(model, target.features[lo:hi])[0]
                                 for lo, hi in zip([0, *ends], ends)])
        preds = np.argmax(logits, axis=-1)
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (target.labels, preds), 1)
        rows = confusion.sum(axis=1)
        assert report["accuracy"] == np.trace(confusion) / n
        np.testing.assert_array_equal(report["confusion"], confusion)
        np.testing.assert_array_equal(report["per_class_accuracy"], np.divide(
            np.diag(confusion), rows, out=np.zeros(k), where=rows > 0))
        assert np.array_equal(report["predicted_marginal"], softmax(logits).mean(axis=0))

    @pytest.mark.parametrize("bounds, k, match",
                             [([0, 0, 4], 3, "empty target"), ([0, 4], 2, "number of classes")],
                             ids=["empty-target", "classes"])
    def test_rejects_a_target_it_cannot_score(self, bounds, k, match):
        """A model of K=3 on a domain of no rows, or on a K=2 target."""
        model = init_mlp([2, 3], np.random.default_rng(0))
        target = World(np.ones((4, 2)), [0, 1, 1, 0], bounds, k)
        with pytest.raises(ValueError, match=match):
            evaluate(model, target, 0)

    def test_report_invariants(self):
        world = toy_sources()[0].world
        model = init_mlp([8, 8, 3], np.random.default_rng(1))
        report = evaluate(model, world, 0)
        confusion = np.asarray(report["confusion"])
        assert report["accuracy"] == pytest.approx(
            np.trace(confusion) / confusion.sum(), abs=1e-15
        )
        np.testing.assert_allclose(np.asarray(report["predicted_marginal"]).sum(), 1.0, atol=1e-9)
        assert confusion.sum() == len(world.domain(0)[1])
