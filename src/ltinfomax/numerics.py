"""Simplex-safe elementary numerics shared by the rest of the package.

Everything here runs in float64. The two tolerance constants below are
used package-wide: ``SIMPLEX_ATOL`` when validating that a vector lies on
the probability simplex, ``LOG_EPS`` as the floor for log arguments (so
one-hot vectors are legal entropy inputs, with the 0*log(0) = 0
convention).
"""

import numpy as np

SIMPLEX_ATOL = 1e-9     # |sum(p) - 1| tolerance for probability vectors
LOG_EPS = 1e-12         # floor for log / power arguments
FD_STEP = 1e-5          # default central-difference step


def _as_float_array(z, name="input"):
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} contains non-finite entries")
    return z


def check_prob_vector(p):
    """Validate that the 1-D ``p`` is on the probability simplex (K >= 2).

    Returns the validated float64 array. Raises ValueError for other
    ranks, negative entries, a sum off by more than SIMPLEX_ATOL, or K < 2.
    """
    p = _as_float_array(p, "probability vector")
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D probability vector, got ndim {p.ndim}")
    if p.shape[-1] < 2:
        raise ValueError("probability vectors need at least 2 classes")
    if np.any(p < 0):
        raise ValueError("probability vector has negative entries")
    if abs(p.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError("probability vector does not sum to 1")
    return p


def check_labels(labels, num_classes, n_rows):
    """``labels`` as int64; ValueError unless they are one integer in [0, num_classes)
    for each of ``n_rows`` rows. Float and bool labels are rejected, not truncated."""
    labels = np.asarray(labels)
    if labels.shape != (n_rows,) or (n_rows and not (
            labels.dtype.kind in "iu" and 0 <= labels.min() <= labels.max() < num_classes)):
        raise ValueError(f"labels must be one integer in [0, {num_classes}) per row "
                         f"({n_rows} rows)")
    return labels.astype(np.int64, copy=False)


def softmax(z, with_log=False):
    """Numerically stable softmax along the last axis.

    Stable for |z| up to ~1e4 via max-subtraction; shift-invariant.
    ``with_log=True`` returns (softmax, log_softmax), the log taken from
    the same shift and normaliser rather than as log(softmax).
    Raises ValueError on non-finite input.
    """
    z = _as_float_array(z, "logits")
    # numpy is slow at a max over short rows; a finite row's max is exact
    # in any order, so reduce the last axis first in an axis-reversed copy
    shifted = z - np.maximum.reduce(z.T.copy()).T[..., None]
    ez = np.exp(shifted)
    norm = ez.sum(axis=-1, keepdims=True)
    if with_log:
        return ez / norm, shifted - np.log(norm)
    return ez / norm


def finite_diff_gradient(f, x, h=FD_STEP):
    """Central-difference gradient estimate of a scalar function.

    Args:
        f: scalar-valued function of a 1-D float vector.
        x: point at which to estimate the gradient.
        h: step size (> 0).

    Returns:
        array of the same shape as ``x`` with
        (f(x + h e_k) - f(x - h e_k)) / (2 h) per coordinate.

    Raises ValueError if h <= 0 or if f returns a non-finite value.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[k] += h
        xm.flat[k] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"function returned non-finite value near coordinate {k}")
        grad.flat[k] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(estimate, reference, floor=LOG_EPS):
    """Norm-ratio relative error ||a - b|| / max(||b||, floor)."""
    a = np.asarray(estimate, dtype=np.float64).ravel()
    b = np.asarray(reference, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(b)), floor)
    return float(np.linalg.norm(a - b)) / denom
