"""The long-tail protocol and the rows it works on.

A DomainDataset holds one domain's rows with a labeled/unlabeled index
split. Labeled subsets follow an exponentially decaying per-class count
profile with head/tail ratio gamma, the class order reshuffled per seed.
domain_rotation is the seeded axis mixing that makes the synthetic
domains (experiments.build_domains) differ, a matrix exponential taken
by numpy-only Pade scaling and squaring (_expm); augment_pair draws the
weak and strong views that training perturbs them with.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import check_labels

# a balanced unlabeled pool must hold at least this many rows per labeled row
MIN_UNLABELED_RATIO = 5.0
# the weak/strong views: Gaussian noise scales, and the strong view's share
# of zeroed entries
SIGMA_WEAK, SIGMA_STRONG, DROPOUT_FRAC = 0.1, 0.5, 0.1
# the [13/13] Pade coefficients b_0..b_13 of exp, and the 1-norm up to which
# they hold it to double precision (Higham 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


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
            raise ValueError("per_class must be >= 1")
        if not (self.gamma >= 1):
            raise ValueError("gamma must be >= 1")
        if self.class_order is not None:
            order = tuple(int(c) for c in self.class_order)
            if sorted(order) != list(range(self.num_classes)):
                raise ValueError("class_order must be a permutation of 0..K-1")
            object.__setattr__(self, "class_order", order)


@dataclass(frozen=True)
class DomainDataset:
    """Feature matrix with labels and a labeled/unlabeled index split, immutable
    once built: C-contiguous, read-only float64 ``features`` are adopted when
    they own their buffer or view a read-only array that owns its buffer (as
    build_domains' domains view the world); other features, the labels and
    the index sets are copied."""

    features: np.ndarray
    labels: np.ndarray
    labeled_indices: np.ndarray
    unlabeled_indices: np.ndarray
    num_classes: int
    domain_id: int = 0

    def __post_init__(self):
        feats = self.features
        owner = feats if getattr(feats, "base", None) is None else feats.base
        if not (type(feats) is np.ndarray and feats.dtype == np.float64
                and type(owner) is np.ndarray and owner.base is None
                and feats.flags.c_contiguous and not (feats.flags.writeable
                                                      or owner.flags.writeable)):
            feats = np.array(feats, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be (N, d)")
        n = feats.shape[0]
        labels = np.array(check_labels(self.labels, self.num_classes, n))
        lab = np.array(self.labeled_indices, dtype=np.int64)
        unl = np.array(self.unlabeled_indices, dtype=np.int64)
        merged = np.concatenate([lab, unl])
        # a range check and a row count, not np.unique, which imports numpy.ma
        in_range = not len(merged) or (merged.min() >= 0 and merged.max() < n)
        if in_range and np.bincount(merged, minlength=n).max(initial=0) > 1:
            raise ValueError("labeled and unlabeled index sets overlap")
        if not in_range or len(merged) != n:
            raise ValueError("index sets must partition the rows")
        for arr in (feats, labels, lab, unl):
            arr.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "labeled_indices", lab)
        object.__setattr__(self, "unlabeled_indices", unl)

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def labeled(self):
        return self.features[self.labeled_indices], self.labels[self.labeled_indices]

    def unlabeled(self):
        return self.features[self.unlabeled_indices]


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

    exp(strength * pi * S) with S a seeded random skew-symmetric matrix
    whose spectral norm is 1, so strength interpolates smoothly from no
    mixing toward a generic rotation. The exponential is _expm; at the
    world's strength each entry is within 4e-16 of scipy.linalg.expm.
    """
    rng = np.random.default_rng(rotation_seed)
    g = rng.standard_normal((dim, dim))
    skew = (g - g.T) / 2.0
    skew /= max(np.linalg.norm(skew, 2), 1e-12)
    return _expm(strength * np.pi * skew)


def _expm(a):
    """Matrix exponential of the square float matrix ``a`` by [13/13] Pade
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).

    ``a`` is scaled by 2^-s so its 1-norm is at most _THETA13, the Pade
    approximant r = (V - U)^-1 (V + U) is formed as I + (V - U)^-1 2U,
    which is exactly I at a = 0, and r is squared s times.
    """
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    a = a / 2.0 ** s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = eye + np.linalg.solve(v - u, 2.0 * u)
    for _ in range(s):
        r = r @ r
    return r


def split_labeled_unlabeled(data, spec, seed, longtail_unlabeled=False):
    """Carve the long-tailed labeled subset out of a domain.

    The class order is drawn from ``seed`` unless spec.class_order is set
    (pass an explicit order to share it across domains within a run).
    Labeled counts realize long_tail_counts exactly; everything else
    stays unlabeled, and the split shares ``data``'s read-only feature
    rows. With longtail_unlabeled the leftover pool is additionally
    thinned to the same decay profile, scaled so the head keeps all its
    rows, and the dropped rows leave the dataset.

    Raises ValueError, before any row is drawn, where check_split does.
    """
    rng = np.random.default_rng(seed)
    if spec.class_order is None:
        order = tuple(int(c) for c in rng.permutation(spec.num_classes))
        spec = LongTailSpec(spec.num_classes, spec.per_class, spec.gamma, order)
    counts = long_tail_counts(spec)
    pool_sizes = np.bincount(data.labels, minlength=spec.num_classes)
    check_split(counts, pool_sizes, longtail_unlabeled)

    labeled_idx = np.sort(np.concatenate([
        rng.choice(np.nonzero(data.labels == k)[0], size=counts[k], replace=False)
        for k in range(spec.num_classes)]))
    unlabeled_idx = np.setdiff1d(np.arange(data.n_samples), labeled_idx, assume_unique=True)
    features, labels = data.features, data.labels  # shared, read-only
    if longtail_unlabeled:
        left = pool_sizes - counts
        weights = _by_class(_decay_profile(spec), spec.class_order)
        target = np.minimum(left, np.maximum(1, np.rint(left[spec.class_order[0]] * weights)))
        unl_labels = data.labels[unlabeled_idx]
        unlabeled_idx = np.sort(np.concatenate([
            rng.choice(unlabeled_idx[unl_labels == k], size=int(target[k]), replace=False)
            for k in range(spec.num_classes)]))
        # rows dropped from the pool leave the dataset, in one private read-only
        # copy; keep is sorted, so searchsorted gives each kept row's new index
        keep = np.sort(np.concatenate([labeled_idx, unlabeled_idx]))
        features, labels = data.features[keep], data.labels[keep]
        features.flags.writeable = False
        labeled_idx, unlabeled_idx = (np.searchsorted(keep, labeled_idx),
                                      np.searchsorted(keep, unlabeled_idx))
    return DomainDataset(features, labels, labeled_idx, unlabeled_idx, spec.num_classes,
                         domain_id=data.domain_id)


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
