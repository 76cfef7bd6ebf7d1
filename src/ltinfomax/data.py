"""The long-tail protocol and the rows it works on.

A World holds every domain's rows in one read-only buffer, and a Split
is row ids into one of its domains. Labeled subsets follow an
exponentially decaying per-class count profile with head/tail ratio
gamma, the class order reshuffled per seed. domain_rotation is the
seeded axis mixing that makes the synthetic domains (build_domains)
differ, the exponential of a skew-symmetric matrix taken from its one
real SVD; augment_pair draws the weak and strong views that training
perturbs them with.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import check_labels

# a balanced unlabeled pool must hold at least this many rows per labeled row
MIN_UNLABELED_RATIO = 5.0
# the weak/strong views: Gaussian noise scales, and the strong view's share
# of zeroed entries
SIGMA_WEAK, SIGMA_STRONG, DROPOUT_FRAC = 0.1, 0.5, 0.1


@dataclass(frozen=True)
class LongTailSpec:
    """Per-class labeled budget profile.

    num_classes: K >= 2.
    per_class: nominal labeled samples per class (m_L >= 1); the total
        labeled budget is per_class * num_classes.
    gamma: head/tail imbalance factor (>= 1); gamma = 1 is balanced.
    class_order: optional explicit permutation mapping rank -> class id;
        when None, split_labeled_unlabeled draws one from its seed.
    """

    num_classes: int
    per_class: int
    gamma: float
    class_order: tuple = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.per_class < 1:
            raise ValueError(f"per_class (m_l) must be >= 1, got {self.per_class}")
        if not (self.gamma >= 1):
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.class_order is not None:
            order = tuple(int(c) for c in self.class_order)
            if sorted(order) != list(range(self.num_classes)):
                raise ValueError("class_order must be a permutation of 0..K-1")
            object.__setattr__(self, "class_order", order)


@dataclass(frozen=True, eq=False)
class World:
    """Every domain's rows in one read-only (rows, d) float64 buffer, one label
    in [0, num_classes) per row; domain d is rows bounds[d]:bounds[d + 1].
    ``features`` are adopted if a C-contiguous, read-only float64 array that
    owns its buffer or views bytes, else copied, as are the integer labels and
    bounds. Unpickling adopts the rows' bytes: one checked copy that no one can write."""

    features: np.ndarray
    labels: np.ndarray
    bounds: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = self.features
        if not (type(feats) is np.ndarray and feats.dtype == np.float64 and feats.flags.c_contiguous
                and not feats.flags.writeable and isinstance(feats.base, (bytes, type(None)))):
            feats = np.array(feats, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be (N, d)")
        labels = np.array(check_labels(self.labels, self.num_classes, len(feats)))
        bounds = _int_array(self.bounds, "bounds")
        if not (bounds.ndim == 1 and len(bounds) > 1 and bounds[0] == 0
                and bounds[-1] == len(feats) and (np.diff(bounds) >= 0).all()):
            raise ValueError(f"bounds must rise from 0 to the {len(feats)} rows")
        for name, arr in (("features", feats), ("labels", labels), ("bounds", bounds)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def domain(self, d):
        """Domain ``d``'s read-only (features, labels) views."""
        if not 0 <= d < len(self.bounds) - 1:
            raise ValueError(f"no domain {d} among {len(self.bounds) - 1}")
        rows = slice(self.bounds[d], self.bounds[d + 1])
        return self.features[rows], self.labels[rows]

    def __reduce__(self):
        return _world_from_bytes, (self.features.tobytes(), self.features.shape,
                                   self.labels, self.bounds, self.num_classes)


def _world_from_bytes(rows, shape, labels, bounds, num_classes):
    return World(np.ndarray(shape, np.float64, rows), labels, bounds, num_classes)


def _int_array(values, name):
    """``values`` copied to int64; ValueError for float or bool values, which are
    rejected, not truncated, as check_labels rejects them. Empty is legal."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {values.dtype}")
    return values.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Split:
    """Labeled and unlabeled integer row ids, local to domain ``domain`` of ``world``,
    in range and disjoint (rows in neither set take no part), copied read-only."""

    world: World
    domain: int
    labeled_indices: np.ndarray
    unlabeled_indices: np.ndarray

    def __post_init__(self):
        n = len(self.world.domain(self.domain)[1])
        lab = _int_array(self.labeled_indices, "row ids")
        unl = _int_array(self.unlabeled_indices, "row ids")
        merged = np.concatenate([lab, unl])
        # a range check and a row count, not np.unique, which imports numpy.ma
        if len(merged) and not (merged.min() >= 0 and merged.max() < n):
            raise ValueError(f"row ids must lie in the domain's rows [0, {n})")
        if np.bincount(merged, minlength=n).max(initial=0) > 1:
            raise ValueError("labeled and unlabeled index sets overlap")
        for name, arr in (("labeled_indices", lab), ("unlabeled_indices", unl)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def long_tail_counts(spec):
    """Per-class labeled counts under exponential decay.

    Rank j gets weight gamma^(-j / (K-1)) so the head/tail weight ratio is
    exactly gamma; weights are scaled to the budget per_class * K, rounded,
    then repaired to hit the budget exactly (additions go to the head,
    removals come off the largest counts) with every class floored at 1.
    Counts land on classes via the rank -> class map in spec.class_order
    (identity when unset).

    Returns an int array indexed by class id.
    """
    budget = spec.per_class * spec.num_classes
    weights = _decay_profile(spec)
    raw = budget * weights / weights.sum()
    by_rank = np.maximum(1, np.rint(raw).astype(np.int64))
    by_rank[0] += max(0, budget - int(by_rank.sum()))
    while by_rank.sum() > budget:
        reducible = by_rank > 1
        top = by_rank[reducible].max()
        # last rank of the tied-max block keeps counts non-increasing
        idx = np.nonzero(reducible & (by_rank == top))[0][-1]
        by_rank[idx] -= 1
    return _by_class(by_rank, spec.class_order)


def _decay_profile(spec):
    """Rank weights gamma^(-j / (K-1)), j = 0..K-1: 1 at the head, 1/gamma at the tail."""
    return spec.gamma ** (-np.arange(spec.num_classes) / (spec.num_classes - 1))


def _by_class(by_rank, order):
    """Per-rank values placed on class ids by the rank -> class map ``order``
    (identity when None)."""
    out = np.empty_like(by_rank)
    out[list(order or range(len(by_rank)))] = by_rank
    return out


def check_split(counts, pool_sizes, longtail_unlabeled):
    """The long-tail split's feasibility rules, for per-class labeled
    ``counts`` drawn from per-class ``pool_sizes`` rows.

    Raises ValueError when a class cannot supply its count plus one spare
    (naming the largest shortfall), or when a balanced unlabeled pool
    (``longtail_unlabeled`` off) would hold fewer than MIN_UNLABELED_RATIO
    rows per labeled row.
    """
    k = int(np.argmax(counts - pool_sizes))
    if counts[k] + 1 > pool_sizes[k]:
        raise ValueError(f"a class has {pool_sizes[k]} samples, "
                         f"needs {counts[k]} labeled plus a spare")
    labeled = int(counts.sum())
    unlabeled = int(pool_sizes.sum()) - labeled
    if not longtail_unlabeled and unlabeled < MIN_UNLABELED_RATIO * labeled:
        raise ValueError(f"unlabeled pool ({unlabeled}) below {MIN_UNLABELED_RATIO:g}x "
                         f"the labeled set ({labeled})")


def domain_rotation(dim, rotation_seed, strength):
    """Seeded orthogonal mixing matrix, identity at strength 0.

    exp(strength * pi * S / |S|_2) with S a seeded random skew-symmetric
    matrix, so strength interpolates smoothly from no mixing toward a
    generic rotation. One SVD S V = U diag(s) gives the norm s[0] and the
    exponential: a skew A has A^T A = -A^2, so with theta the singular
    values of A, exp(A) = I + V (cos(theta) - I) V^T + U sin(theta) V^T
    for any SVD (Gallier & Xu, 2002); at the world's strength each entry
    is within 2e-15 of scipy.linalg.expm.
    """
    rng = np.random.default_rng(rotation_seed)
    g = rng.standard_normal((dim, dim))
    u, s, vt = np.linalg.svd((g - g.T) / 2.0)
    theta = strength * np.pi * s / max(s[0], 1e-12)
    return np.eye(dim) + (vt.T * (np.cos(theta) - 1.0) + u * np.sin(theta)) @ vt


def split_labeled_unlabeled(world, domain, spec, seed, longtail_unlabeled=False):
    """Carve the long-tailed labeled subset out of domain ``domain`` of ``world``.

    The class order is drawn from ``seed`` unless spec.class_order is set
    (pass an explicit order to share it across domains within a run).
    Labeled counts realize long_tail_counts exactly; everything else
    stays unlabeled. With longtail_unlabeled the leftover pool is
    additionally thinned to the same decay profile, scaled so the head
    keeps all its rows: the dropped rows are in neither id set. Either way
    the Split is row ids into ``world`` and copies no rows.

    Raises ValueError, before any row is drawn, where check_split does and
    when spec and world count different classes.
    """
    if spec.num_classes != world.num_classes:
        raise ValueError(f"the spec has {spec.num_classes} classes, "
                         f"the world {world.num_classes}")
    _, labels = world.domain(domain)
    rng = np.random.default_rng(seed)
    if spec.class_order is None:
        order = tuple(int(c) for c in rng.permutation(spec.num_classes))
        spec = LongTailSpec(spec.num_classes, spec.per_class, spec.gamma, order)
    counts = long_tail_counts(spec)
    pool_sizes = np.bincount(labels, minlength=spec.num_classes)
    check_split(counts, pool_sizes, longtail_unlabeled)

    labeled_idx = np.sort(np.concatenate([
        rng.choice(np.nonzero(labels == k)[0], size=counts[k], replace=False)
        for k in range(spec.num_classes)]))
    unlabeled_idx = np.setdiff1d(np.arange(len(labels)), labeled_idx, assume_unique=True)
    if longtail_unlabeled:
        left = pool_sizes - counts
        weights = _by_class(_decay_profile(spec), spec.class_order)
        target = np.minimum(left, np.maximum(1, np.rint(left[spec.class_order[0]] * weights)))
        unl_labels = labels[unlabeled_idx]
        unlabeled_idx = np.sort(np.concatenate([
            rng.choice(unlabeled_idx[unl_labels == k], size=int(target[k]), replace=False)
            for k in range(spec.num_classes)]))
    return Split(world, domain, labeled_idx, unlabeled_idx)


def augment_pair(X, rng, out=None):
    """Weak and strong views of a batch, drawn from the Generator ``rng``.

    The weak view adds Gaussian noise at SIGMA_WEAK; the strong view adds
    noise at SIGMA_STRONG and zeroes a random DROPOUT_FRAC of the entries.
    Both noise draws come in one call, weak first, then the dropout draw.
    With ``out`` (2 * len(X) rows, shaped like X otherwise) the weak view
    is written to its first half and the strong view to its second.
    Returns the two views.
    """
    X = np.asarray(X, dtype=np.float64)
    noise = rng.standard_normal((2, *X.shape))
    if out is None:
        out = np.empty((2 * len(X), *X.shape[1:]))
    weak, strong = out[:len(X)], out[len(X):]
    noise[0] *= SIGMA_WEAK
    noise[1] *= SIGMA_STRONG
    np.add(X, noise[0], out=weak)
    np.add(X, noise[1], out=strong)
    strong[rng.random(X.shape) < DROPOUT_FRAC] = 0.0
    return weak, strong
