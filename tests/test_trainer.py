"""Network forward/backward, SGD training loop, evaluation."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

import ltinfomax.trainer as trainer_module
from ltinfomax.data import (
    DomainDataset,
    LongTailSpec,
    augment_pair,
    domain_rotation,
    split_labeled_unlabeled,
)
from ltinfomax.errors import DivergenceError
from ltinfomax.numerics import LOG_EPS, finite_diff_gradient, relative_error
from ltinfomax.objectives import LossConfig, infomax_loss_and_grad
from ltinfomax.trainer import (
    EvalReport,
    MlpModel,
    TrainerConfig,
    evaluate,
    forward,
    init_mlp,
    make_state,
    train,
    train_step,
)


def toy_sources(k=3, d=8, n_per_class=30, noise=0.4, gamma=1.0, m_l=5,
                num_domains=3, shift=0.5, seed0=100):
    rng = np.random.default_rng(0)
    centroids = 3.0 * rng.standard_normal((k, d))
    labels = np.repeat(np.arange(k), n_per_class)
    domains = []
    for i in range(num_domains):
        moved = (centroids + shift * rng.standard_normal(d)) @ domain_rotation(d, 50 + i, 0.1).T
        noise_draw = np.random.default_rng(seed0 + i).standard_normal((len(labels), d))
        data = DomainDataset(moved[labels] + noise * noise_draw, labels,
                             labeled_indices=np.empty(0, dtype=int),
                             unlabeled_indices=np.arange(len(labels)), num_classes=k,
                             domain_id=i)
        domains.append(split_labeled_unlabeled(data, LongTailSpec(k, m_l, gamma),
                                               seed=seed0 + 10 + i))
    return domains


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = MlpModel([np.zeros((4, 3))], [np.zeros(3)])
        np.testing.assert_array_equal(forward(model, np.ones((1, 4))), np.zeros((1, 3)))

    def test_hand_computed_2_2_2(self):
        """x=(1,2) through fixed weights: logits (0.5, 2.5) by hand."""
        model = MlpModel(
            [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0, 0.0], [-1.0, 1.0]])],
            [np.array([0.5, -1.0]), np.array([0.0, 0.5])],
        )
        # hidden: relu((1+1, -1+4) + (0.5, -1)) = (2.5, 2.0)
        # logits: (2.5 - 2.0, 2.0 + 0.5) = (0.5, 2.5)
        np.testing.assert_allclose(forward(model, np.array([[1.0, 2.0]])), [[0.5, 2.5]],
                                   rtol=1e-15)

    def test_final_layer_scaling_preserves_argmax(self):
        rng = np.random.default_rng(1)
        model = init_mlp([5, 8, 4], rng)
        x = rng.normal(size=(20, 5))
        base = forward(model, x)
        scaled = MlpModel([w.copy() for w in model.weights],
                          [b.copy() for b in model.biases])
        scaled.weights[-1] *= 3.0
        scaled.biases[-1] *= 3.0
        out = forward(scaled, x)
        np.testing.assert_allclose(out, 3.0 * base, rtol=1e-12)
        np.testing.assert_array_equal(np.argmax(out, axis=1), np.argmax(base, axis=1))

    def test_dimension_mismatch(self):
        model = init_mlp([4, 3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(model, np.ones((1, 5)))

    @pytest.mark.parametrize("sizes", [(16, 64, 64, 5), (64, 256, 256, 40)],
                             ids=["default", "wide-classes"])
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 258, 513, 1600])
    def test_blocks_match_one_product(self, sizes, n):
        """The row blocks give the bits of one full product per layer; n=257
        ends on a 1-row remainder, which joins the block before it."""
        model = init_mlp(list(sizes), np.random.default_rng(3))
        x = np.random.default_rng(n).standard_normal((n, sizes[0]))
        assert np.array_equal(forward(model, x), trainer_module._forward_cached(model, x)[0])


def step_gradient_and_fd(model, lab_x, lab_y, unl_x, loss):
    """The parameter gradient one train_step from ``model`` applies, read from
    ``state.grads``, and its central finite-difference reference: the public
    forward and infomax_loss_and_grad on the views the step draws. Asserts
    that the step, from zero velocity, moved the parameters by exactly
    -learning_rate times that gradient."""
    state = make_state(TrainerConfig(hidden=(6,), loss=loss), 4, 3, seed=0)
    state.model.flat[...] = model.flat
    n_unl = 0 if unl_x is None else len(unl_x)
    views = augment_pair(unl_x, copy.deepcopy(state.rngs["augment"])) if n_unl else ()
    x = np.concatenate([lab_x, *views])

    def total(flat):
        m = model.copy()
        m.flat[...] = flat
        return infomax_loss_and_grad(forward(m, x), lab_y, n_unl, loss)[0].total

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
        cfg = LossConfig(alpha=alpha, tau=0.8)
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
        cfg = LossConfig(alpha=1.0, tau=0.95, marginal_weight=0.0)
        lab_x = rng.normal(size=(1, 4))
        lab_y = np.array([2])
        analytic, fd = step_gradient_and_fd(model, lab_x, lab_y, None, cfg)
        assert relative_error(analytic, fd) < 1e-5


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self):
        # learning_rate must be > 0; emulate with lr -> tiny
        cfg = TrainerConfig(hidden=(6,), learning_rate=1e-300, loss=LossConfig(tau=0.9))
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
        cfg = TrainerConfig(hidden=(8,), learning_rate=0.02,
                            loss=LossConfig(marginal_weight=0.0, tau=2.0))
        state = make_state(cfg, 2, 2, seed=5)
        losses = [train_step(state, x, y, None).labeled_ce for _ in range(60)]
        windows = [np.mean(losses[i:i + 5]) for i in range(5, 55, 5)]
        assert all(a >= b - 1e-9 for a, b in zip(windows, windows[1:]))
        assert losses[-1] < losses[5]

    def test_divergence_raises(self):
        cfg = TrainerConfig(hidden=(6, 6), learning_rate=1e150)
        state = make_state(cfg, 4, 3, seed=1)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        with pytest.raises(DivergenceError, match="epoch"):
            with np.errstate(all="ignore"):
                for _ in range(60):
                    train_step(state, x, y, rng.normal(size=(8, 4)))


# labels a K=3 model must reject: out of [0, K), not integers, or not one per labeled row
BAD_LABELS = {"label-negative": [-1, 0], "label-K": [3, 0], "label-count": [0],
              "label-float": [1.5, 0.0], "label-bool": [True, False]}


class TestStepLabels:
    @pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
    def test_train_step_rejects_bad_labels_before_any_state_changes(self, labels):
        state = make_state(TrainerConfig(hidden=(6,)), 4, 3, seed=1)
        before = state.model.flat.copy()
        augment = state.rngs["augment"].bit_generator.state
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match=r"labels.*\[0, 3\)"):
            train_step(state, rng.normal(size=(2, 4)), np.array(labels),
                       rng.normal(size=(4, 4)))
        np.testing.assert_array_equal(state.model.flat, before)
        assert state.rngs["augment"].bit_generator.state == augment

    @pytest.mark.parametrize("wrong, labeled_shape, unlabeled_shape",
                             [("unlabeled", (2, 4), (5, 5)), ("labeled", (2, 5), (5, 4))],
                             ids=["unlabeled", "labeled"])
    def test_train_step_rejects_wrong_width_before_any_state_changes(
            self, wrong, labeled_shape, unlabeled_shape):
        """A (5, 5) unlabeled batch on a 4-input model used to fail only after
        augment_pair had drawn from the augment stream."""
        state = make_state(TrainerConfig(hidden=(6,)), 4, 3, seed=1)
        before = state.model.flat.copy()
        augment = state.rngs["augment"].bit_generator.state
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match=rf"\(N, 4\) {wrong} batch, got \(\d, 5\)"):
            train_step(state, rng.normal(size=labeled_shape), np.array([0, 2]),
                       rng.normal(size=unlabeled_shape))
        np.testing.assert_array_equal(state.model.flat, before)
        assert state.rngs["augment"].bit_generator.state == augment


def reference_step(state, lab_x, lab_y, unl_x, loss):
    """Straight-line SGD step: a forward pass, a softmax and a backprop per
    branch, with the composite logit gradient written out term by term.

    Returns the loss terms of the forward pass, as LossBreakdown.to_dict()."""
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
    if loss.marginal_weight > 0:
        a, p = loss.alpha, np.maximum(pi, LOG_EPS)
        d_entropy = -(np.log(p) + 1.0) if a == 1 else -a / (a - 1.0) * p ** (a - 1.0)
        g_pi = -d_entropy
        coef = loss.marginal_weight / sum(len(probs[name]) for name in marginal)
        for name in marginal:
            inner = probs[name] @ g_pi
            dlogits[name] += coef * probs[name] * (g_pi[None, :] - inner[:, None])
    g = probs["labeled"].copy()
    g[np.arange(len(lab_y)), lab_y] -= 1.0
    dlogits["labeled"] += g / len(lab_y)
    a = loss.alpha
    entropy = (-np.sum(pi * np.log(np.maximum(pi, LOG_EPS))) if a == 1
               else (1.0 - np.sum(np.maximum(pi, 0.0) ** a)) / (a - 1.0))
    terms = {"neg_marginal_entropy": -entropy, "pseudo_ce": 0.0, "accepted_fraction": 0.0,
             "labeled_ce": -np.sum(log_softmax_rows(branches["labeled"][1][-1])
                                   [np.arange(len(lab_y)), lab_y]) / len(lab_y)}
    if unl_x is not None:
        accepted = probs["weak"].max(axis=1) >= loss.tau
        if accepted.any():
            logp = log_softmax_rows(branches["strong"][1][-1])
            pseudo = np.argmax(probs["weak"], axis=1)
            picked = logp[np.arange(len(unl_x)), pseudo]
            terms["pseudo_ce"] = -np.sum(picked * accepted) / len(unl_x)
            terms["accepted_fraction"] = accepted.mean()
            g = probs["strong"].copy()
            g[np.arange(len(unl_x)), np.argmax(probs["weak"], axis=1)] -= 1.0
            dlogits["strong"] += (accepted[:, None] * g) / len(unl_x)

    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for name, (pre, acts) in branches.items():
        delta = dlogits[name]
        if name != "labeled" and not np.any(delta):
            continue
        for i in range(n_layers - 1, -1, -1):
            grads_w[i] += acts[i].T @ delta
            grads_b[i] += delta.sum(axis=0)
            if i > 0:
                delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0)

    vel = state.velocity
    for params, velocities, grads in ((model.weights, vel.weights, grads_w),
                                      (model.biases, vel.biases, grads_b)):
        for w, v, g in zip(params, velocities, grads):
            v *= trainer_module.MOMENTUM
            v -= cfg.learning_rate * g
            w += v
    terms["total"] = loss.marginal_weight * terms["neg_marginal_entropy"] + \
        terms["labeled_ce"] + terms["pseudo_ce"]
    return terms


def reference_train(config, sources, seed, supervised_only=False):
    """Straight-line train(): labeled indices drawn per step, reference_step."""
    lab_x = np.concatenate([d.labeled()[0] for d in sources])
    lab_y = np.concatenate([d.labeled()[1] for d in sources])
    unl_x = np.concatenate([d.unlabeled() for d in sources])
    state = make_state(config, sources[0].dim, sources[0].num_classes, seed)
    steps, batch = len(unl_x) // config.unlabeled_batch, config.unlabeled_batch
    history = []
    for epoch in range(config.epochs):
        if not supervised_only:
            order = state.rngs["unlabeled"].permutation(len(unl_x))
        terms = []
        for s in range(steps):
            lab = state.rngs["labeled"].integers(len(lab_x), size=config.labeled_batch)
            unl = None if supervised_only else unl_x[order[s * batch:(s + 1) * batch]]
            terms.append(reference_step(state, lab_x[lab], lab_y[lab], unl, config.loss))
        history.append({**{k: float(np.mean([t[k] for t in terms])) for k in terms[0]},
                        "epoch": epoch})
    return state, history


PARITY_CASES = {
    "no-marginal": (LossConfig(marginal_weight=0.0, tau=0.7), False),
    "shannon": (LossConfig(alpha=1.0, tau=0.7), False),
    "tsallis": (LossConfig(alpha=1.5, tau=0.7), False),
    "supervised-only": (LossConfig(tau=0.7), True),
}


class TestStepParity:
    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_bit_identical_to_per_branch_reference(self, name):
        """The stacked step lands on exactly the parameters of the
        per-branch reference after three epochs of steps."""
        loss, supervised = PARITY_CASES[name]
        sources = toy_sources()
        lab_x = np.concatenate([d.labeled()[0] for d in sources])
        lab_y = np.concatenate([d.labeled()[1] for d in sources])
        unl_x = np.concatenate([d.unlabeled() for d in sources])
        cfg = TrainerConfig(hidden=(16, 16), learning_rate=0.1, labeled_batch=12,
                            unlabeled_batch=24, loss=loss)
        fused = make_state(cfg, sources[0].dim, sources[0].num_classes, seed=5)
        reference = make_state(cfg, sources[0].dim, sources[0].num_classes, seed=5)
        rng = np.random.default_rng(6)
        accepted = []
        for _ in range(3 * (len(unl_x) // cfg.unlabeled_batch)):
            lab = rng.choice(len(lab_x), size=cfg.labeled_batch)
            unl = None if supervised else unl_x[rng.choice(len(unl_x), cfg.unlabeled_batch)]
            accepted.append(train_step(fused, lab_x[lab], lab_y[lab], unl).accepted_fraction)
            reference_step(reference, lab_x[lab], lab_y[lab], unl, loss)
        for got, want in zip(fused.model.weights + fused.model.biases,
                             reference.model.weights + reference.model.biases):
            assert np.array_equal(got, want)
        if not supervised:
            assert max(accepted) > 0  # the strong branch took part

    @pytest.mark.parametrize("k", [5, 12])
    def test_bit_identical_at_benchmark_shapes(self, k):
        """The default run's shapes (16 features, hidden 64x64, batches
        16/64); K=12 takes the >= 8-wide pairwise path of row reductions."""
        sources = toy_sources(k=k, d=16, n_per_class=40, seed0=200)
        lab_x = np.concatenate([d.labeled()[0] for d in sources])
        lab_y = np.concatenate([d.labeled()[1] for d in sources])
        unl_x = np.concatenate([d.unlabeled() for d in sources])
        loss = LossConfig(tau=0.7)
        cfg = TrainerConfig(hidden=(64, 64), loss=loss)
        fused = make_state(cfg, sources[0].dim, k, seed=3)
        reference = make_state(cfg, sources[0].dim, k, seed=3)
        rng = np.random.default_rng(8)
        accepted = []
        for _ in range(40):
            lab = rng.choice(len(lab_x), size=cfg.labeled_batch)
            unl = unl_x[rng.choice(len(unl_x), cfg.unlabeled_batch)]
            accepted.append(train_step(fused, lab_x[lab], lab_y[lab], unl).accepted_fraction)
            reference_step(reference, lab_x[lab], lab_y[lab], unl, loss)
        for got, want in zip(fused.model.weights + fused.model.biases,
                             reference.model.weights + reference.model.biases):
            assert np.array_equal(got, want)
        assert max(accepted) > 0


class TestTrainParity:
    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_train_matches_the_straight_line_loop(self, name):
        """train() lands on exactly the parameters and history of a loop that
        draws labeled indices per step and calls reference_step."""
        loss, supervised = PARITY_CASES[name]
        sources = toy_sources()
        cfg = TrainerConfig(hidden=(16, 16), epochs=3, learning_rate=0.1, labeled_batch=12,
                            unlabeled_batch=24, loss=loss)
        state = train(cfg, sources, seed=5, supervised_only=supervised)
        reference, history = reference_train(cfg, sources, seed=5, supervised_only=supervised)
        assert np.array_equal(state.model.flat, reference.model.flat)
        assert state.history == history
        if not supervised:
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
        state = make_state(TrainerConfig(hidden=(6, 5)), input_dim=4, num_classes=3, seed=0)
        for owner in (state.model, state.velocity, state.grads, state.scratch):
            views = owner.weights + owner.biases
            assert all(v.base is owner.flat for v in views)
            assert sum(v.size for v in views) == owner.flat.size == 24 + 6 + 30 + 5 + 15 + 3

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
        cfg = TrainerConfig(hidden=(6,), loss=LossConfig(tau=0.7))
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
            records.append(breakdown.to_dict())
            return breakdown

        monkeypatch.setattr(trainer_module, "train_step", recording_step)
        sources = toy_sources()
        state = train(TrainerConfig(hidden=(8,), epochs=3, unlabeled_batch=40,
                                    loss=LossConfig(tau=0.6)), sources, seed=4)
        steps = len(records) // 3
        assert steps > 1 and len(records) == 3 * steps
        for epoch, history in enumerate(state.history):
            epoch_records = records[epoch * steps:(epoch + 1) * steps]
            want = {k: float(np.mean([r[k] for r in epoch_records])) for k in records[0]}
            assert history == {**want, "epoch": epoch}
        assert any(h["accepted_fraction"] > 0 for h in state.history)


class TestTrain:
    def test_zero_epochs_returns_initial_state(self):
        sources = toy_sources()
        cfg = TrainerConfig(hidden=(8,), epochs=0)
        state = train(cfg, sources, seed=9)
        fresh = make_state(cfg, sources[0].dim, sources[0].num_classes, seed=9)
        np.testing.assert_array_equal(state.model.flat, fresh.model.flat)
        assert state.history == []

    def test_deterministic_given_seed(self):
        sources = toy_sources()
        cfg = TrainerConfig(hidden=(8,), epochs=3)
        a = train(cfg, sources, seed=13)
        b = train(cfg, sources, seed=13)
        np.testing.assert_array_equal(a.model.flat, b.model.flat)
        assert a.history == b.history

    def test_different_seed_differs(self):
        sources = toy_sources()
        cfg = TrainerConfig(hidden=(8,), epochs=1)
        a = train(cfg, sources, seed=1)
        b = train(cfg, sources, seed=2)
        assert not np.array_equal(a.model.flat, b.model.flat)

    def test_heldin_accuracy_on_separated_domains(self):
        """20 epochs on 3 well-separated sources learns the task."""
        sources = toy_sources(k=3, d=8, n_per_class=30, noise=0.3, m_l=5)
        cfg = TrainerConfig(hidden=(32,), epochs=20)
        state = train(cfg, sources, seed=11)
        report = evaluate(state.model, sources[0])
        assert report.accuracy > 0.9

    def test_supervised_reduction_bit_identical(self):
        """marginal_weight=0 and tau>1 lands on the same parameters as a
        run that never touches the unlabeled data."""
        sources = toy_sources()
        loss = LossConfig(marginal_weight=0.0, tau=1.0 + 1e-9)
        cfg = TrainerConfig(hidden=(8,), epochs=4, loss=loss)
        full = train(cfg, sources, seed=17)
        labeled_only = train(cfg, sources, seed=17, supervised_only=True)
        np.testing.assert_array_equal(full.model.flat, labeled_only.model.flat)

    def test_history_length_matches_epochs(self):
        sources = toy_sources()
        cfg = TrainerConfig(hidden=(8,), epochs=5)
        state = train(cfg, sources, seed=3)
        assert len(state.history) == 5
        assert [h["epoch"] for h in state.history] == list(range(5))
        for h in state.history:
            assert set(h) >= {"neg_marginal_entropy", "labeled_ce", "pseudo_ce",
                              "total", "accepted_fraction"}

    def test_divergence_on_the_last_update_raises(self):
        """One step whose update overflows: no later logits check sees it."""
        sources = toy_sources()
        assert sum(len(d.unlabeled()) for d in sources) < 1000  # a single step
        cfg = TrainerConfig(hidden=(32,), epochs=1, learning_rate=1e308, unlabeled_batch=1000)
        with pytest.raises(DivergenceError, match=r"epoch 0 \(seed 4\).*non-finite param"):
            train(cfg, sources, seed=4)

    def test_needs_two_sources(self):
        sources = toy_sources(num_domains=1)
        with pytest.raises(ValueError):
            train(TrainerConfig(), sources, seed=0)


class TestEvaluate:
    def test_perfect_predictor(self):
        sources = toy_sources(k=2, noise=1e-6, n_per_class=10, m_l=1,
                              shift=0.0)
        target = sources[0]
        # nearest-centroid behaviour via a wide trained model is overkill;
        # construct logits directly from a linear map that separates the blobs
        x0 = target.features[target.labels == 0].mean(axis=0)
        x1 = target.features[target.labels == 1].mean(axis=0)
        w = np.stack([x0, x1], axis=1)
        b = -0.5 * np.array([x0 @ x0, x1 @ x1])
        model = MlpModel([w], [b])
        report = evaluate(model, target)
        assert report.accuracy == 1.0
        assert np.all(report.confusion == np.diag(np.diag(report.confusion)))

    def test_constant_predictor_matches_frequency(self):
        sources = toy_sources(k=3, n_per_class=20, m_l=2)
        target = sources[1]
        model = MlpModel([np.zeros((target.dim, 3))],
                         [np.array([10.0, 0.0, 0.0])])
        report = evaluate(model, target)
        freq = np.mean(target.labels == 0)
        assert report.accuracy == pytest.approx(freq, abs=1e-12)

    def test_ten_sample_hand_tally(self):
        """Linear model argmax = sign test; 7 of 10 rows match by hand."""
        feats = np.array([[2.0], [1.0], [0.5], [3.0], [-1.0],
                          [-2.0], [-0.5], [0.1], [-3.0], [-0.2]])
        #  argmax of (x, -x): class 0 iff x > 0
        labels = np.array([0, 0, 1, 0, 1, 1, 0, 0, 1, 0])
        model = MlpModel([np.array([[1.0, -1.0]])], [np.zeros(2)])
        # predictions: 0,0,0,0,1,1,1,0,1,1 -> matches at rows 0,1,3,4,5,7,8
        from ltinfomax.data import DomainDataset
        target = DomainDataset(feats, labels, np.arange(10), np.empty(0, dtype=int),
                               num_classes=2)
        # DomainDataset requires a partition; indices above: all labeled
        report = evaluate(model, target)
        assert report.accuracy == pytest.approx(0.7, abs=1e-12)

    def test_side_effect_free(self):
        sources = toy_sources()
        model = init_mlp([sources[0].dim, 8, sources[0].num_classes],
                         np.random.default_rng(0))
        before = model.flat.copy()
        r1 = evaluate(model, sources[0])
        r2 = evaluate(model, sources[0])
        np.testing.assert_array_equal(model.flat, before)
        assert r1.accuracy == r2.accuracy
        np.testing.assert_array_equal(r1.confusion, r2.confusion)

    def test_overflowing_logits_are_a_divergence(self):
        """Finite but huge parameters overflow the target logits."""
        sources = toy_sources()
        model = init_mlp([sources[0].dim, 8, sources[0].num_classes], np.random.default_rng(1))
        model.flat *= 1e200
        with pytest.raises(DivergenceError, match="target"):
            evaluate(model, sources[0])

    def test_memory_is_bounded_by_blocks(self):
        """20000 rows through one 512-wide layer: one product would hold 82 MB
        of activations plus 10 MB of masks; the blocks hold about 1 MB."""
        rng = np.random.default_rng(0)
        n = 20000
        target = DomainDataset(rng.standard_normal((n, 4)), rng.integers(2, size=n),
                               np.arange(n), np.empty(0, dtype=int), num_classes=2)
        model = init_mlp([4, 512, 2], rng)
        tracemalloc.start()
        try:
            evaluate(model, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_report_invariants(self):
        sources = toy_sources()
        model = init_mlp([sources[0].dim, 8, sources[0].num_classes],
                         np.random.default_rng(1))
        report = evaluate(model, sources[0])
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum(), abs=1e-15
        )
        np.testing.assert_allclose(report.predicted_marginal.sum(), 1.0, atol=1e-9)
        assert report.confusion.sum() == sources[0].n_samples
