"""Small fully-connected classifier with self-contained backpropagation.

The network is rectifier-activated, trained by SGD with momentum on mixed
labeled/unlabeled mini-batches under the composite InfoMax objective; train
returns the model and its loss history. Four independent RNG streams come
from the run seed (init, labeled sampling, unlabeled ordering, augmentation).
The unlabeled draws leave the others untouched, so marginal_weight = 0 and
tau > 1 land on a labeled-only loop's parameters bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import augment_pair
from .errors import DivergenceError
from .numerics import check_labels, softmax
from .objectives import LOSS_TERMS, infomax_loss_and_grad

# RNG stream names in stream-number order (init, labeled, unlabeled, augment = 0..3)
_STREAMS = ("init", "labeled", "unlabeled", "augment")
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


@dataclass
class TrainState:
    """What one training step reads and writes (single-writer) under ``config``,
    an ExperimentConfig: ``velocity`` is a float64 array shaped like
    ``model.flat``, the work buffer ``grads`` a model; make_state builds it."""

    model: MlpModel
    config: object
    velocity: np.ndarray
    grads: MlpModel
    rngs: dict


def init_mlp(layer_sizes, rng):
    """He-scaled Gaussian weights, zero biases, drawn from the Generator ``rng``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def _forward_cached(model, x):
    """Forward pass that returns the logits and every layer's input, the
    activations _backprop reads: the one pass of training and evaluation.

    The bias add and the ReLU run in place on each product."""
    z, acts = np.asarray(x, dtype=np.float64), []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        acts.append(z)
        z = z @ w
        z += b
        if i < len(model.weights) - 1:
            np.maximum(z, 0.0, out=z)
    return z, acts


def _backprop(model, acts, dlogits, out):
    """Write the parameter gradients of every cached row into ``out``: one
    product per layer over all the rows."""
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=out.weights[i])
        np.add.reduce(delta, axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= acts[i] > 0  # max(z, 0) > 0 is z > 0: ReLU'(0) = 0, NaN fails


def make_state(config, input_dim, num_classes, seed):
    """Fresh TrainState with isolated RNG streams derived from the seed; of
    ``config`` it reads ``hidden``, the hidden layer widths."""
    rngs = {name: np.random.default_rng(np.random.SeedSequence([int(seed), stream]))
            for stream, name in enumerate(_STREAMS)}
    sizes = [input_dim, *config.hidden, num_classes]
    model = init_mlp(sizes, rngs["init"])
    return TrainState(model=model, config=config, velocity=np.zeros_like(model.flat),
                      grads=model.copy(), rngs=rngs)


def train_step(state, labeled_x, labeled_y, unlabeled_x):
    """One SGD step on a mixed mini-batch: the one checked entry into the
    step core.

    Stacks the labeled rows and the weak/strong views drawn from the
    unlabeled features into one batch [labeled; weak; strong], runs one
    forward pass and one infomax_loss_and_grad call, backpropagates the
    stacked rows once into ``state.grads`` (each parameter gradient one
    product over every row, an all-zero unlabeled row included) and applies
    the momentum update in place on the flat buffers. Of ``state.config``
    the kernel reads alpha, tau and marginal_weight, and the update
    learning_rate. After it returns, ``state.grads.flat`` is this step's
    parameter gradient, aligned with ``model.flat``: the update writes only
    ``velocity`` and ``model``.

    Pass unlabeled_x=None (or empty) for a purely supervised step. Returns
    the forward LOSS_TERMS dict. Raises ValueError, before any state changes,
    unless both batches have the model's input width and one integer label
    in [0, K) per labeled row, and DivergenceError on non-finite logits or
    loss (train adds the epoch to its message).
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
    logits, acts = _forward_cached(model, x)
    try:
        breakdown, dlogits = infomax_loss_and_grad(logits, labels, n_unl, cfg)
    except ValueError:
        # the kernel's softmax rejects non-finite logits; only then are they scanned
        if np.isfinite(logits).all():
            raise
        peak = float(np.abs(model.flat).max())
        raise DivergenceError(f"non-finite logits; max |param| = {peak:.3g}") from None
    if not math.isfinite(breakdown["total"]):
        raise DivergenceError(f"non-finite loss: {breakdown}")
    _backprop(model, acts, dlogits, grads)

    state.velocity *= MOMENTUM
    state.velocity -= grads.flat * cfg.learning_rate
    model.flat += state.velocity
    return breakdown


def _pool_sources(sources):
    """(rows, labeled row ids, their labels, unlabeled row ids, K) of Splits of one
    world: its own buffer, and each split's ids offset by its domain's first row."""
    world = sources[0].world
    if any(d.world is not world for d in sources):
        raise ValueError("source splits must share one world")
    starts = world.bounds[[d.domain for d in sources]]
    lab_ids, unl_ids = (np.concatenate([s + getattr(d, name) for s, d in zip(starts, sources)])
                        for name in ("labeled_indices", "unlabeled_indices"))
    return world.features, lab_ids, world.labels[lab_ids], unl_ids, world.num_classes


def train(config, sources, seed):
    """Train on pooled source domains; deterministic given the seed. Returns
    ``(model, history)``, history one dict per epoch of the per-step mean of
    each loss term and ``epoch``; the optimizer's buffers die with the call.

    Per step a labeled mini-batch is resampled with replacement and an
    unlabeled mini-batch is taken from a per-epoch shuffle of the pooled
    unlabeled rows; ``sources`` are Splits of one world, and each batch is
    gathered by row id from its buffer (see _pool_sources). A supervised
    baseline is marginal_weight = 0 and tau > 1: no unlabeled row then
    contributes a gradient, and the parameters are those of a labeled-only
    loop. Overflow warnings are silenced: non-finite logits, loss or final
    parameters, or an epoch-mean total loss above DIVERGED_LOSS, raise
    DivergenceError naming the epoch instead. Of ``config``, an ExperimentConfig, it
    reads epochs and the two batch sizes; make_state and train_step the rest.
    """
    if len(sources) < 2:
        raise ValueError("need at least 2 source domains")
    rows, lab_ids, lab_y, unl_ids, num_classes = _pool_sources(sources)
    if len(lab_ids) == 0:
        raise ValueError("no labeled samples in the source pool")

    state = make_state(config, rows.shape[1], num_classes, seed)
    n_unl = len(unl_ids)
    steps = max(1, n_unl // config.unlabeled_batch if n_unl
                else len(lab_ids) // config.labeled_batch)

    terms = np.empty((len(LOSS_TERMS), steps))
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            unl_order = unl_ids[state.rngs["unlabeled"].permutation(n_unl)]
            # one call draws what a call per step of size labeled_batch would
            # (the same draws as choice(len(lab_ids), size, replace=True))
            lab_idx = state.rngs["labeled"].integers(len(lab_ids),
                                                     size=(steps, config.labeled_batch))
            lab_order = lab_ids[lab_idx]
            try:
                for s in range(steps):
                    chunk = unl_order[s * config.unlabeled_batch:(s + 1) * config.unlabeled_batch]
                    breakdown = train_step(state, rows[lab_order[s]], lab_y[lab_idx[s]],
                                           rows[chunk])
                    terms[:, s] = [breakdown[k] for k in LOSS_TERMS]
            except DivergenceError as exc:
                raise DivergenceError(f"at epoch {epoch}: {exc}") from None
            means = {k: float(np.mean(row)) for k, row in zip(LOSS_TERMS, terms)}
            history.append({**means, "epoch": epoch})
            if means["total"] > DIVERGED_LOSS:
                raise DivergenceError(f"at epoch {epoch}: epoch-mean loss "
                                      f"{means['total']:.3g} above {DIVERGED_LOSS:g}")
    if not np.isfinite(state.model.flat).all():
        raise DivergenceError(f"at epoch {config.epochs - 1}: "
                              "non-finite parameters after the last update")
    return state.model, history


def evaluate(model, world, domain):
    """Argmax evaluation over every row of domain ``domain`` of ``world`` (read-only).

    Returns the run JSON's ``final`` dict: accuracy, then per_class_accuracy,
    the (true, predicted) confusion counts and the predicted marginal as lists.
    Raises ValueError on an empty target or a model of another K or input
    width, and DivergenceError on non-finite logits."""
    features, labels = world.domain(domain)
    if len(labels) == 0:
        raise ValueError("cannot evaluate on an empty target")
    k = world.num_classes
    if model.num_classes != k:
        raise ValueError("model and target disagree on the number of classes")
    if features.shape[1] != model.weights[0].shape[0]:
        raise ValueError(f"model takes {model.weights[0].shape[0]} features, "
                         f"target has {features.shape[1]}")
    # blocks start at multiples of EVAL_ROWS and a 1-row remainder joins the
    # block before it (one row would take BLAS's gemv path), so each row
    # meets the kernel of one full product; memory is O(EVAL_ROWS x width)
    ends = [*range(EVAL_ROWS, len(labels) - 1, EVAL_ROWS), len(labels)]
    probs = np.empty((len(labels), k))
    preds = np.empty(len(labels), dtype=np.int64)
    for lo, hi in zip([0, *ends], ends):
        block = probs[lo:hi]  # a view: no block's logits outlive its softmax
        with np.errstate(over="ignore", invalid="ignore"):
            block[...] = _forward_cached(model, features[lo:hi])[0]
        if not np.isfinite(block).all():
            raise DivergenceError("non-finite logits on the target domain")
        preds[lo:hi] = np.argmax(block, axis=-1)
        block[...] = softmax(block)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    row_sums = confusion.sum(axis=1)
    per_class = np.divide(np.diag(confusion), row_sums,
                          out=np.zeros(k, dtype=np.float64), where=row_sums > 0)
    return {"accuracy": float(np.trace(confusion) / confusion.sum()),
            "per_class_accuracy": per_class.tolist(), "confusion": confusion.tolist(),
            "predicted_marginal": probs.mean(axis=0).tolist()}
