"""Semi-supervised InfoMax objective with a Tsallis marginal-entropy term,
plus the long-tail data protocol and a leave-one-domain-out experiment
harness on synthetic multi-domain data."""

from .data import LongTailSpec, long_tail_counts, split_labeled_unlabeled
from .errors import ConfigError, DivergenceError
from .experiments import ExperimentConfig, ablation, build_domains, run_suite, sweep
from .numerics import finite_diff_gradient, relative_error
from .objectives import (
    branch_rows,
    infomax_loss_and_grad,
    shannon_entropy,
    tsallis_entropy,
    tsallis_entropy_grad,
)
from .trainer import evaluate, train

__version__ = "0.1.0"
