"""Small fully-connected classifier with self-contained backpropagation.

The network is rectifier-activated, trained by SGD with momentum on
mixed labeled/unlabeled mini-batches under the composite InfoMax
objective. Four independent RNG streams are derived from the run seed
(init, labeled sampling, unlabeled ordering, augmentation), so dropping
the unlabeled side of training leaves every other draw untouched; that
is what makes the supervised-only reduction bit-identical.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import augment_pair
from .errors import ConfigError, DivergenceError, require_finite
from .numerics import check_labels, softmax
from .objectives import LossBreakdown, LossConfig, branch_rows, infomax_loss_and_grad

# RNG stream names in stream-number order (init, labeled, unlabeled, augment = 0..3)
_STREAMS = ("init", "labeled", "unlabeled", "augment")
_LOSS_TERMS = tuple(f.name for f in fields(LossBreakdown))
MOMENTUM = 0.9  # SGD momentum, as in the FixMatch base
EVAL_ROWS = 256  # rows per forward block at evaluation
# an epoch-mean total loss above this is divergence; healthy runs stay below 6
DIVERGED_LOSS = 1e6


@dataclass
class MlpModel:
    """Dense rectifier network; weights[i] maps layer i to i+1.

    ``weights`` and ``biases`` are views of one float64 buffer ``flat``
    (weight then bias per layer), the only array training updates. Write
    into a view in place; a rebound element (``weights[i] = arr``) is
    detached from ``flat``. copy(), deepcopy and pickling rebuild it."""

    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        given = [np.asarray(a) for pair in zip(self.weights, self.biases) for a in pair]
        self.flat = np.concatenate([a.ravel() for a in given], dtype=np.float64)
        parts = np.split(self.flat, np.cumsum([a.size for a in given])[:-1])
        views = [part.reshape(a.shape) for part, a in zip(parts, given)]
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def num_classes(self):
        return self.weights[-1].shape[1]

    def copy(self):
        return MlpModel(self.weights, self.biases)

    def __reduce__(self):
        return MlpModel, (self.weights, self.biases)


@dataclass(frozen=True)
class TrainerConfig:
    """Network shape, optimizer and batch composition."""

    hidden: tuple = (64, 64)
    epochs: int = 20
    learning_rate: float = 0.03
    labeled_batch: int = 16
    unlabeled_batch: int = 64
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        require_finite(self)
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ConfigError("labeled_batch and unlabeled_batch must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"every hidden width must be >= 1, got {self.hidden}")


@dataclass
class TrainState:
    """Mutable state of one training run (single-writer); ``velocity`` and the
    work buffers ``grads`` and ``scratch`` are shaped like the model, and
    make_state allocates all three."""

    model: MlpModel
    config: TrainerConfig
    seed: int
    epoch: int = 0
    velocity: MlpModel = None
    grads: MlpModel = None
    scratch: MlpModel = None
    history: list = field(default_factory=list)
    rngs: dict = field(default_factory=dict)


def init_mlp(layer_sizes, rng):
    """He-scaled Gaussian weights, zero biases, drawn from the Generator ``rng``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def forward(model, x):
    """Logits for a (N, d) batch, run in blocks of EVAL_ROWS rows with no
    cache, so memory is O(EVAL_ROWS x width). Blocks start at multiples of
    EVAL_ROWS and a 1-row remainder joins the block before it (one row
    would take BLAS's gemv path), so each row meets the kernel of one full
    product."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights[0].shape[0]:
        raise ValueError(f"expected a (N, {model.weights[0].shape[0]}) batch, got {x.shape}")
    ends = [*range(EVAL_ROWS, len(x) - 1, EVAL_ROWS), len(x)]  # no 1-row last block
    logits = np.empty((len(x), model.num_classes))
    for lo, hi in zip([0, *ends], ends):
        logits[lo:hi] = _forward_cached(model, x[lo:hi], keep=False)[0]
    return logits


def _forward_cached(model, x, keep=True):
    """Forward pass; ``keep`` keeps every layer's input and every hidden ReLU
    mask for _backprop, else no mask is taken and the cache comes back empty.

    The bias add and the ReLU run in place on each product, and each mask
    is taken once for all stacked rows."""
    z, acts, masks = np.asarray(x, dtype=np.float64), [], []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if keep:
            acts.append(z)
        z = z @ w
        z += b
        if i < len(model.weights) - 1:
            if keep:
                masks.append(z > 0)
            np.maximum(z, 0.0, out=z)
    return z, (acts, masks)


def _backprop(model, cache, rows, dlogits, out):
    """Write the parameter gradients of the cached ``rows`` into ``out``."""
    acts, masks = cache
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i][rows].T, delta, out=out.weights[i])
        np.add.reduce(delta, axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= masks[i - 1][rows]


def make_state(config, input_dim, num_classes, seed):
    """Fresh TrainState with isolated RNG streams derived from the seed."""
    rngs = {name: np.random.default_rng(np.random.SeedSequence([int(seed), stream]))
            for stream, name in enumerate(_STREAMS)}
    sizes = [input_dim, *config.hidden, num_classes]
    model = init_mlp(sizes, rngs["init"])
    velocity = model.copy()
    velocity.flat.fill(0.0)
    return TrainState(model=model, config=config, seed=int(seed), velocity=velocity,
                      grads=model.copy(), scratch=model.copy(), rngs=rngs)


def train_step(state, labeled_x, labeled_y, unlabeled_x):
    """One SGD step on a mixed mini-batch: the one checked entry into the
    step core.

    Stacks the labeled rows and the weak/strong views drawn from the
    unlabeled features into one batch [labeled; weak; strong], runs one
    forward pass and one infomax_loss_and_grad call, backpropagates each
    branch on its rows of the shared cache into ``state.grads`` (skipping
    an all-zero unlabeled branch once another has contributed) and applies
    the momentum update in place on the flat buffers. After it returns,
    ``state.grads.flat`` is this step's parameter gradient, aligned with
    ``model.flat``: the update writes only ``scratch``, ``velocity`` and
    ``model``.

    Pass unlabeled_x=None (or empty) for a purely supervised step. Returns
    the forward LossBreakdown. Raises ValueError, before any state changes,
    unless both batches have the model's input width and one integer label
    in [0, K) per labeled row, and DivergenceError on non-finite logits or
    loss.
    """
    cfg, model, grads = state.config, state.model, state.grads
    n_lab = len(labeled_x) if labeled_x is not None else 0
    n_unl = len(unlabeled_x) if unlabeled_x is not None else 0
    dim = model.weights[0].shape[0]
    for name, rows, n in (("labeled", labeled_x, n_lab), ("unlabeled", unlabeled_x, n_unl)):
        if n and np.shape(rows)[1:] != (dim,):
            raise ValueError(f"expected a (N, {dim}) {name} batch, got {np.shape(rows)}")
    labels = check_labels(labeled_y, model.num_classes, n_lab) if n_lab else ()

    x = np.empty((n_lab + 2 * n_unl, dim))
    if n_lab:
        x[:n_lab] = labeled_x
    if n_unl:
        augment_pair(unlabeled_x, state.rngs["augment"], out=x[n_lab:])
    logits, cache = _forward_cached(model, x)
    try:
        breakdown, dlogits = infomax_loss_and_grad(logits, labels, n_unl, cfg.loss)
    except ValueError:
        # the kernel's softmax rejects non-finite logits; only then are they scanned
        if np.isfinite(logits).all():
            raise
        peak = float(np.abs(model.flat).max())
        raise DivergenceError(f"at epoch {state.epoch} (seed {state.seed}): non-finite "
                              f"logits; max |param| = {peak:.3g}") from None
    if not math.isfinite(breakdown.total):
        raise DivergenceError(f"at epoch {state.epoch} (seed {state.seed}): "
                              f"non-finite loss: {breakdown.to_dict()}")

    # Backprop stays per branch, summed labeled, weak, strong: BLAS may
    # round a product over the stacked rows differently from the same
    # product over one branch's rows, which would change the trained bits.
    branches = [(rows, dlogits[rows]) for rows in branch_rows(n_lab, n_unl)
                if rows.stop > rows.start]
    _backprop(model, cache, *branches[0], grads)
    for rows, branch in branches[1:]:
        if branch.any():
            _backprop(model, cache, rows, branch, state.scratch)
            grads.flat += state.scratch.flat

    velocity, step = state.velocity.flat, state.scratch.flat
    velocity *= MOMENTUM
    np.multiply(grads.flat, cfg.learning_rate, out=step)
    velocity -= step
    model.flat += velocity
    return breakdown


def _pool_sources(sources):
    dims = {d.dim for d in sources}
    ks = {d.num_classes for d in sources}
    if len(dims) != 1 or len(ks) != 1:
        raise ValueError("source domains must share feature dim and class count")
    xs, ys = zip(*(d.labeled() for d in sources))
    return (np.concatenate(xs), np.concatenate(ys),
            np.concatenate([d.unlabeled() for d in sources]), dims.pop(), ks.pop())


def train(config, sources, seed, supervised_only=False):
    """Train on pooled source domains; deterministic given the seed.

    Per step a labeled mini-batch is resampled with replacement and an
    unlabeled mini-batch is taken from a per-epoch shuffle of the pooled
    unlabeled features. ``supervised_only`` skips the unlabeled side
    entirely but keeps the same step schedule and labeled draws, so a
    run with marginal_weight = 0 and tau > 1 lands on bit-identical
    parameters. Overflow warnings are silenced: non-finite logits, loss
    or final parameters, or an epoch-mean total loss above DIVERGED_LOSS,
    raise DivergenceError instead.
    """
    if len(sources) < 2:
        raise ValueError("need at least 2 source domains")
    lab_x, lab_y, unl_x, dim, num_classes = _pool_sources(sources)
    if len(lab_x) == 0:
        raise ValueError("no labeled samples in the source pool")

    state = make_state(config, dim, num_classes, seed)
    n_unl = len(unl_x)
    steps = max(1, n_unl // config.unlabeled_batch if n_unl
                else len(lab_x) // config.labeled_batch)

    terms = np.empty((len(_LOSS_TERMS), steps))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            state.epoch = epoch
            if n_unl and not supervised_only:
                order = state.rngs["unlabeled"].permutation(n_unl)
            # one call draws what a call per step of size labeled_batch would
            # (the same draws as choice(len(lab_x), size, replace=True))
            lab_idx = state.rngs["labeled"].integers(len(lab_x),
                                                     size=(steps, config.labeled_batch))
            for s in range(steps):
                if n_unl and not supervised_only:
                    chunk = order[s * config.unlabeled_batch:(s + 1) * config.unlabeled_batch]
                    batch_unl = unl_x[chunk]
                else:
                    batch_unl = None
                breakdown = train_step(state, lab_x[lab_idx[s]], lab_y[lab_idx[s]], batch_unl)
                terms[:, s] = [getattr(breakdown, k) for k in _LOSS_TERMS]
            means = {k: float(np.mean(row)) for k, row in zip(_LOSS_TERMS, terms)}
            state.history.append({**means, "epoch": epoch})
            if means["total"] > DIVERGED_LOSS:
                raise DivergenceError(f"at epoch {epoch} (seed {state.seed}): epoch-mean "
                                      f"loss {means['total']:.3g} above {DIVERGED_LOSS:g}")
            state.epoch = epoch + 1
    if not np.isfinite(state.model.flat).all():
        raise DivergenceError(f"at epoch {state.epoch - 1} (seed {state.seed}): "
                              "non-finite parameters after the last update")
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
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(model, target.features)
    if not np.isfinite(logits).all():
        raise DivergenceError("non-finite logits on the target domain")
    probs = softmax(logits)
    preds = np.argmax(logits, axis=-1)
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
