"""Small fully-connected classifier with self-contained backpropagation.

The network is rectifier-activated, trained by SGD with momentum on
mixed labeled/unlabeled mini-batches under the composite InfoMax
objective. Four independent RNG streams are derived from the run seed
(init, labeled sampling, unlabeled ordering, augmentation), so dropping
the unlabeled side of training leaves every other draw untouched; that
is what makes the supervised-only reduction bit-identical.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentConfig, augment_pair
from .errors import ConfigError, DivergenceError
from .numerics import argmax_lowest, softmax
from .objectives import (
    LabeledBatch,
    LossConfig,
    UnlabeledBatch,
    infomax_loss_and_grad,
)

_STREAM_INIT, _STREAM_LABELED, _STREAM_UNLABELED, _STREAM_AUGMENT = range(4)


@dataclass
class MlpModel:
    """Dense rectifier network; weights[i] maps layer i to i+1."""

    weights: list
    biases: list

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def num_classes(self):
        return self.weights[-1].shape[1]

    def copy(self):
        return MlpModel([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass(frozen=True)
class TrainerConfig:
    """Network shape, optimizer and batch composition."""

    hidden: tuple = (64, 64)
    epochs: int = 20
    learning_rate: float = 0.03
    momentum: float = 0.9
    labeled_batch: int = 16
    unlabeled_batch: int = 64
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if not (0 <= self.momentum < 1):
            raise ConfigError("momentum must be in [0, 1)")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ConfigError("labeled_batch and unlabeled_batch must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"every hidden width must be >= 1, got {self.hidden}")


@dataclass
class TrainState:
    """Mutable state of one training run (single-writer)."""

    model: MlpModel
    config: TrainerConfig
    seed: int
    epoch: int = 0
    velocities: tuple = None
    running_marginal: np.ndarray = None
    history: list = field(default_factory=list)
    rngs: dict = field(default_factory=dict)


def init_mlp(layer_sizes, rng):
    """He-scaled Gaussian weights, zero biases."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def forward(model, x):
    """Logits for a single feature vector or a (N, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.weights[0].shape[0]:
        raise ValueError(
            f"input dim {a.shape[1]} does not match model dim {model.weights[0].shape[0]}"
        )
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < n_layers - 1:
            a = np.maximum(a, 0.0)
    return a[0] if single else a


def _forward_cached(model, x):
    """Forward pass keeping pre-activations for backprop."""
    a = np.asarray(x, dtype=np.float64)
    pre, acts = [], [a]
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if i < n_layers - 1 else z)
    return acts[-1], (pre, acts)


def _backprop(model, cache, rows, dlogits):
    """Parameter gradients of the cached ``rows`` given d(loss)/d(logits)."""
    pre, acts = cache
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i][rows].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1][rows] > 0)
    return grads_w, grads_b


def make_state(config, input_dim, num_classes, seed):
    """Fresh TrainState with isolated RNG streams derived from the seed."""
    rngs = {
        name: np.random.default_rng(np.random.SeedSequence([int(seed), stream]))
        for name, stream in (
            ("init", _STREAM_INIT),
            ("labeled", _STREAM_LABELED),
            ("unlabeled", _STREAM_UNLABELED),
            ("augment", _STREAM_AUGMENT),
        )
    }
    sizes = [input_dim, *config.hidden, num_classes]
    model = init_mlp(sizes, rngs["init"])
    velocities = ([np.zeros_like(w) for w in model.weights],
                  [np.zeros_like(b) for b in model.biases])
    return TrainState(model=model, config=config, seed=int(seed),
                      velocities=velocities, rngs=rngs)


def _objective_gradients(model, labeled_x, labeled_y, weak_x, strong_x, loss_cfg,
                         running_marginal):
    """One pass of the objective through the network on fixed inputs.

    Stacks the present [labeled; weak; strong] rows, runs one forward
    pass, checks the logits once, evaluates the loss and every logit
    gradient in one infomax_loss_and_grad call and backpropagates each
    branch on its rows of the shared cache. An unlabeled branch whose
    logit gradient is all zero is skipped once another branch has
    contributed.

    Returns (LossBreakdown, (weight grads, bias grads), batch marginal).
    Raises DivergenceError on non-finite logits or loss.
    """
    n_lab = len(labeled_x) if labeled_x is not None else 0
    n_unl = len(weak_x) if weak_x is not None else 0
    stacked = [labeled_x] if n_lab else []
    if n_unl:
        stacked += [weak_x, strong_x]
    if not stacked:
        raise ValueError("both batches are empty")
    logits, cache = _forward_cached(model, np.concatenate(stacked))
    if not np.isfinite(logits).all():
        raise DivergenceError(
            "non-finite logits; max |param| = "
            f"{max(float(np.abs(w).max()) for w in model.weights):.3g}"
        )
    lab, weak, strong = (slice(0, n_lab), slice(n_lab, n_lab + n_unl),
                         slice(n_lab + n_unl, n_lab + 2 * n_unl))
    labeled_batch = LabeledBatch(logits[lab], labeled_y) if n_lab else None
    unlabeled_batch = UnlabeledBatch(logits[weak], logits[strong]) if n_unl else None
    breakdown, grads, pi_batch = infomax_loss_and_grad(
        labeled_batch, unlabeled_batch, loss_cfg, running_marginal
    )
    if not np.isfinite(breakdown.total):
        raise DivergenceError(f"non-finite loss: {breakdown.to_dict()}")

    # Backprop stays per branch, summed labeled, weak, strong: BLAS may
    # round a product over the stacked rows differently from the same
    # product over one branch's rows, which would change the trained bits.
    param_grads = None
    for rows, dlogits in ((lab, grads.labeled), (weak, grads.weak), (strong, grads.strong)):
        if param_grads is None:
            if len(dlogits):
                param_grads = _backprop(model, cache, rows, dlogits)
        elif np.any(dlogits):
            for total, extra in zip(param_grads, _backprop(model, cache, rows, dlogits)):
                for t, e in zip(total, extra):
                    t += e
    return breakdown, param_grads, pi_batch


def train_step(state, labeled_x, labeled_y, unlabeled_x, loss_cfg=None):
    """One SGD step on a mixed mini-batch.

    Builds weak/strong views of the unlabeled features, then runs the
    stacked forward, the objective kernel and the per-branch backprop of
    _objective_gradients and applies the momentum update. Pass
    unlabeled_x=None (or empty) for a purely supervised step. Returns the
    forward LossBreakdown.
    """
    cfg = state.config
    loss_cfg = loss_cfg or cfg.loss
    model = state.model

    weak_x = strong_x = None
    if unlabeled_x is not None and len(unlabeled_x):
        weak_x, strong_x = augment_pair(unlabeled_x, state.rngs["augment"], cfg.augment)
    try:
        breakdown, param_grads, pi_batch = _objective_gradients(
            model, labeled_x, labeled_y, weak_x, strong_x, loss_cfg, state.running_marginal
        )
    except DivergenceError as exc:
        raise DivergenceError(f"at epoch {state.epoch} (seed {state.seed}): {exc}") from None

    lr, mu = cfg.learning_rate, cfg.momentum
    vw, vb = state.velocities
    for w, v, g in zip(model.weights, vw, param_grads[0]):
        v *= mu
        v -= lr * g
        w += v
    for b, v, g in zip(model.biases, vb, param_grads[1]):
        v *= mu
        v -= lr * g
        b += v

    if loss_cfg.marginal_momentum > 0:
        m = loss_cfg.marginal_momentum
        if state.running_marginal is None:
            state.running_marginal = pi_batch
        else:
            state.running_marginal = m * state.running_marginal + (1 - m) * pi_batch

    return breakdown


def _pool_sources(sources):
    dims = {d.dim for d in sources}
    ks = {d.num_classes for d in sources}
    if len(dims) != 1 or len(ks) != 1:
        raise ValueError("source domains must share feature dim and class count")
    xs, ys, us = [], [], []
    for d in sources:
        x, y = d.labeled()
        xs.append(x)
        ys.append(y)
        us.append(d.unlabeled())
    return (np.concatenate(xs), np.concatenate(ys), np.concatenate(us),
            dims.pop(), ks.pop())


def train(config, sources, seed, supervised_only=False):
    """Train on pooled source domains; deterministic given the seed.

    Per step a labeled mini-batch is resampled with replacement and an
    unlabeled mini-batch is taken from a per-epoch shuffle of the pooled
    unlabeled features. ``supervised_only`` skips the unlabeled side
    entirely but keeps the same step schedule and labeled draws, so a
    run with marginal_weight = 0 and tau > 1 lands on bit-identical
    parameters.
    """
    if len(sources) < 2:
        raise ValueError("need at least 2 source domains")
    lab_x, lab_y, unl_x, dim, num_classes = _pool_sources(sources)
    if len(lab_x) == 0:
        raise ValueError("no labeled samples in the source pool")

    state = make_state(config, dim, num_classes, seed)
    n_unl = len(unl_x)
    if n_unl:
        steps = max(1, n_unl // config.unlabeled_batch)
    else:
        steps = max(1, len(lab_x) // config.labeled_batch)

    for epoch in range(config.epochs):
        state.epoch = epoch
        if n_unl and not supervised_only:
            order = state.rngs["unlabeled"].permutation(n_unl)
        step_records = []
        for s in range(steps):
            lab_idx = state.rngs["labeled"].choice(len(lab_x), size=config.labeled_batch,
                                                   replace=True)
            if n_unl and not supervised_only:
                chunk = order[s * config.unlabeled_batch:(s + 1) * config.unlabeled_batch]
                if len(chunk) == 0:
                    chunk = order[:config.unlabeled_batch]
                batch_unl = unl_x[chunk]
            else:
                batch_unl = None
            breakdown = train_step(state, lab_x[lab_idx], lab_y[lab_idx], batch_unl)
            step_records.append(breakdown.to_dict())
        means = {k: float(np.mean([r[k] for r in step_records])) for k in step_records[0]}
        means["epoch"] = epoch
        state.history.append(means)
        state.epoch = epoch + 1
    return state


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, per-class accuracy, confusion counts and predicted marginal."""

    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray
    predicted_marginal: np.ndarray

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy.tolist(),
            "confusion": self.confusion.tolist(),
            "predicted_marginal": self.predicted_marginal.tolist(),
        }


def evaluate(model, target):
    """Argmax evaluation over every row of the target domain (read-only)."""
    if target.n_samples == 0:
        raise ValueError("cannot evaluate on an empty target")
    k = target.num_classes
    if model.num_classes != k:
        raise ValueError("model and target disagree on the number of classes")
    logits = forward(model, target.features)
    probs = softmax(logits)
    preds = argmax_lowest(logits)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (target.labels, preds), 1)
    row_sums = confusion.sum(axis=1)
    per_class = np.divide(np.diag(confusion), row_sums,
                          out=np.zeros(k, dtype=np.float64), where=row_sums > 0)
    return EvalReport(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        per_class_accuracy=per_class,
        confusion=confusion,
        predicted_marginal=probs.mean(axis=0),
    )


def parameter_gradients(model, labeled_x, labeled_y, weak_x, strong_x, loss_cfg,
                        running_marginal=None):
    """Objective gradient w.r.t. every network parameter, flattened.

    Runs the step core of train_step (stacked forward, objective kernel,
    per-branch backprop) on fixed, already augmented inputs, without the
    update; the verification path for finite-difference checks through
    the whole network.

    Returns (LossBreakdown, flat gradient aligned with flatten_params).
    """
    breakdown, param_grads, _ = _objective_gradients(
        model, labeled_x, labeled_y, weak_x, strong_x, loss_cfg, running_marginal
    )
    return breakdown, flatten_params(MlpModel(*param_grads))


def flatten_params(model):
    """All parameters as one flat vector (weights then bias per layer)."""
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def model_from_flat(template, flat):
    """Rebuild a model shaped like ``template`` from a flat vector."""
    flat = np.asarray(flat, dtype=np.float64)
    weights, biases, pos = [], [], 0
    for w, b in zip(template.weights, template.biases):
        weights.append(flat[pos:pos + w.size].reshape(w.shape).copy())
        pos += w.size
        biases.append(flat[pos:pos + b.size].copy())
        pos += b.size
    if pos != flat.size:
        raise ValueError("flat vector length does not match the template")
    return MlpModel(weights, biases)


def save_model(model, path):
    """Flat text dump with a dimension header; repr-exact floats."""
    sizes = ",".join(str(s) for s in model.layer_sizes)
    with open(path, "w") as fh:
        fh.write("# ltinfomax-mlp v1\n")
        fh.write(f"# layers={sizes}\n")
        for v in flatten_params(model):
            fh.write(format(v, ".17g") + "\n")


def load_model(path):
    """Inverse of save_model."""
    sizes = None
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "layers=" in line:
                    sizes = [int(t) for t in line.split("layers=")[1].split(",")]
                continue
            values.append(float(line))
    if sizes is None:
        raise ValueError("missing layers= header")
    template = init_mlp(sizes, np.random.default_rng(0))
    return model_from_flat(template, np.asarray(values))
