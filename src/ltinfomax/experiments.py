"""Experiment orchestration: leave-one-domain-out suites, sweeps, ablation.

A suite is |seeds| x |hold-outs| runs. Every run is a pure function of
(config, seed, held-out domain): the synthetic world (build_domains:
Gaussian class blobs, moved and axis-mixed per domain) depends only on the
config's data fields and is built once per sweep/ablation, one pool for
all its suites (once per suite when run_suite is called directly); the
long-tail split is drawn from the run seed with one class order shared
across that run's source domains, and training uses isolated per-run RNG
streams. Results land in runs.csv (one row per run), aggregate.csv (mean
and population std) and one JSON log per run with the per-epoch loss
breakdown.
"""

import csv
import hashlib
import io
import json
import math
import numbers
import operator
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DomainDataset,
    LongTailSpec,
    check_split,
    domain_rotation,
    long_tail_counts,
    split_labeled_unlabeled,
)
from .errors import ConfigError, DivergenceError
from .trainer import EVAL_ROWS, evaluate, train

RUNS_CSV_COLUMNS = ["seed", "heldout", "alpha", "tau", "gamma", "m_l", "accuracy", "wall_s"]
AGGREGATE_COLUMNS = ["alpha", "tau", "gamma", "m_l", "n_runs", "mean_accuracy", "std_accuracy"]
SWEEP_AXES = {"alpha": "alpha", "gamma": "gamma", "ml": "m_l"}  # axis -> config field
MAX_RUN_VALUES = 10**8  # float64 values one run may allocate (800 MB)
# the synthetic world's scales: class centroid spread, per-domain mean shift,
# within-class noise and per-domain axis mixing
CENTROID_SCALE, SHIFT_SCALE, NOISE_SCALE, ROTATION_STRENGTH = 2.0, 1.0, 1.5, 0.3
# what a config field of each type must hold, as its ConfigError names it
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a bool", tuple: "integers"}


def _field_value(kind, value):
    """``value`` as a field of type ``kind``: operator.index for an int field or tuple
    entry, float of a real number for a float field, a bool for a bool field; TypeError
    on any other value (a bool for a number too), OverflowError on a huge int."""
    if kind is tuple:
        return tuple(_field_value(int, v) for v in value)
    if isinstance(value, bool) != (kind is bool) or (
            kind is float and not isinstance(value, numbers.Real)):
        raise TypeError
    return operator.index(value) if kind is int else float(value) if kind is float else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a suite needs; flat so it maps 1:1 onto the config file."""

    # objective
    alpha: float = 1.5
    tau: float = 0.95
    marginal_weight: float = 1.0
    # long-tail protocol
    m_l: int = 5
    gamma: float = 10.0
    longtail_unlabeled: bool = False
    # synthetic world (its scales are build_domains' constants)
    num_domains: int = 4
    num_classes: int = 5
    feature_dim: int = 16
    n_per_class: int = 40
    data_seed: int = 7
    # network / optimizer (augmentation and momentum are constants of data and trainer)
    hidden: tuple = (64, 64)
    epochs: int = 20
    learning_rate: float = 0.03
    labeled_batch: int = 16
    unlabeled_batch: int = 64
    # protocol
    held_out: int = None          # None rotates over all domains
    seeds: tuple = (0, 1, 2, 3, 4)
    jobs: int = 1
    out_dir: str = "runs_out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is not str and not (f.name == "held_out" and value is None):
                try:
                    value = _field_value(f.type, value)
                except (TypeError, OverflowError):
                    raise ConfigError(f"{f.name} must be {_KIND_NAMES[f.type]}, "
                                      f"got {value!r}") from None
                object.__setattr__(self, f.name, value)
            if f.type is float and not math.isfinite(value):  # NaN passes `x < bound`
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not str(self.out_dir).strip():
            raise ConfigError("out_dir must not be empty")
        if self.num_domains < 3:
            raise ConfigError(f"need at least 3 domains (two source domains plus the "
                              f"held-out one), got {self.num_domains}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.data_seed < 0 or any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds and data_seed must be >= 0, got {self.seeds} "
                              f"and {self.data_seed}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.held_out is not None and not (0 <= self.held_out < self.num_domains):
            raise ConfigError(f"held_out must be in [0, {self.num_domains}) or None")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        repeated = sorted(s for s, n in Counter(self.seeds).items() if n > 1)
        if repeated:
            raise ConfigError(f"seeds {self.seeds} repeat {repeated}")
        # the spec, the objective and trainer rules and the split hold the rest
        try:
            spec = LongTailSpec(self.num_classes, self.m_l, self.gamma)
            if not (self.alpha > 0):
                raise ConfigError(f"alpha must be > 0, got {self.alpha}")
            if not (self.tau > 0):
                raise ConfigError(f"tau must be > 0, got {self.tau}")
            if self.marginal_weight < 0:
                raise ConfigError("marginal_weight must be >= 0")
            if not self.learning_rate > 0:
                raise ConfigError("learning_rate must be > 0")
            if self.epochs < 0:
                raise ConfigError("epochs must be >= 0")
            if self.labeled_batch < 1 or self.unlabeled_batch < 1:
                raise ConfigError("labeled_batch and unlabeled_batch must be >= 1")
            if any(h < 1 for h in self.hidden):
                raise ConfigError(f"every hidden width must be >= 1, got {self.hidden}")
            # float64 values of the world and the pooled source rows, the rotation,
            # the confusion matrix, the model, velocity, grads and scratch buffers,
            # an epoch's labeled draw (its steps bounded by the whole unlabeled
            # pool), a step's stacked rows and an evaluate block of EVAL_ROWS rows
            # through every layer, and evaluate's (rows, K) arrays (the logits and
            # softmax's four), bounded before anything of size num_classes is made
            layers = (self.feature_dim, *self.hidden, self.num_classes)
            rows = self.num_classes * self.n_per_class  # per domain
            steps = max(1, (self.num_domains - 1) * rows // self.unlabeled_batch)
            size = ((2 * self.num_domains - 1) * rows * self.feature_dim
                    + self.feature_dim ** 2 + self.num_classes ** 2
                    + 4 * sum((a + 1) * b for a, b in zip(layers, layers[1:]))
                    + self.labeled_batch * steps
                    + (self.labeled_batch + 2 * self.unlabeled_batch + EVAL_ROWS) * sum(layers)
                    + 5 * rows * self.num_classes)
            if size > MAX_RUN_VALUES:
                raise ValueError(f"a run would hold {size} float64 values, "
                                 f"above the limit of {MAX_RUN_VALUES}")
            # the head holds at least the mean m_l, and a huge m_l would
            # overflow long_tail_counts
            if self.m_l + 1 > self.n_per_class:
                raise ValueError(f"the head class needs at least {self.m_l} labeled samples "
                                 f"plus a spare, but n_per_class is {self.n_per_class}")
            check_split(long_tail_counts(spec), np.full(self.num_classes, self.n_per_class),
                        self.longtail_unlabeled)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def hash(self):
        """Content hash, independent of field order and output location."""
        d = asdict(self)
        d.pop("out_dir")
        d.pop("jobs")
        blob = json.dumps(d, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (seed, held-out) run; the field order is the run JSON's key order."""

    config_hash: str
    seed: int
    heldout: int
    alpha: float
    tau: float
    gamma: float
    m_l: int
    split_hash: str
    accuracy: float
    wall_s: float
    epochs: tuple
    report: dict

    def csv_row(self):
        return [format(self.wall_s, ".6g") if c == "wall_s" else getattr(self, c)
                for c in RUNS_CSV_COLUMNS]


def build_domains(config):
    """The synthetic world: one unsplit DomainDataset per domain.

    K Gaussian class centroids (CENTROID_SCALE, stream [data_seed, 0]) are,
    per domain d, moved by a Gaussian mean shift (SHIFT_SCALE), their axes
    mixed by domain_rotation at ROTATION_STRENGTH, and n_per_class rows drawn
    around each with isotropic noise at NOISE_SCALE; d's shift, rotation seed
    and noise seed come in that order from stream [data_seed, 1, d]. Domains
    differ in their inputs and share the label distribution. The world depends
    only on the config's data fields, so every run of a suite (and every
    ablation variant) sees identical features.
    """
    dim = config.feature_dim
    root = np.random.default_rng(np.random.SeedSequence([config.data_seed, 0]))
    centroids = CENTROID_SCALE * root.standard_normal((config.num_classes, dim))
    labels = np.repeat(np.arange(config.num_classes), config.n_per_class)
    domains = []
    for d in range(config.num_domains):
        drng = np.random.default_rng(np.random.SeedSequence([config.data_seed, 1, d]))
        shift = SHIFT_SCALE * drng.standard_normal(dim)
        rotation = domain_rotation(dim, int(drng.integers(2**31)), ROTATION_STRENGTH)
        # the rows are built in the noise buffer, which the dataset then adopts
        features = np.random.default_rng(int(drng.integers(2**31))).standard_normal(
            (len(labels), dim))
        features *= NOISE_SCALE
        features += ((centroids + shift) @ rotation.T)[labels]
        features.flags.writeable = False
        domains.append(DomainDataset(
            features=features,
            labels=labels,
            labeled_indices=np.empty(0, dtype=np.int64),
            unlabeled_indices=np.arange(len(labels)),
            num_classes=config.num_classes,
            domain_id=d,
        ))
    return domains


def split_sources(config, domains, seed, heldout):
    """Long-tail split of the source domains for one run.

    One class order is drawn from the run seed and shared across the
    run's source domains; per-domain index sampling uses child seeds.
    Returns (sources, split_hash).
    """
    order_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 100]))
    order = tuple(int(c) for c in order_rng.permutation(config.num_classes))
    spec = LongTailSpec(config.num_classes, config.m_l, config.gamma, order)
    hasher = hashlib.sha256()
    hasher.update(repr(order).encode())
    sources = []
    for d in range(config.num_domains):
        if d == heldout:
            continue
        split_seed = int(np.random.SeedSequence([int(seed), 101, d]).generate_state(1)[0])
        split = split_labeled_unlabeled(domains[d], spec, split_seed,
                                        longtail_unlabeled=config.longtail_unlabeled)
        hasher.update(np.ascontiguousarray(split.labeled_indices).tobytes())
        sources.append(split)
    return sources, hasher.hexdigest()[:16]


def execute_run(config, seed, heldout, domains):
    """One leave-one-domain-out run on the world ``domains`` (build_domains);
    pure function of its arguments."""
    sources, split_hash = split_sources(config, domains, seed, heldout)
    t0 = time.perf_counter()
    try:
        state = train(config, sources, seed)
        report = evaluate(state.model, domains[heldout])
    except DivergenceError as exc:  # name the run: a suite has |seeds| x |held-out| of them
        seed_note = "" if f"(seed {seed})" in str(exc) else f"seed {seed}, "
        raise DivergenceError(f"{exc} ({seed_note}held-out domain {heldout})") from None
    wall = time.perf_counter() - t0
    return RunRecord(
        config_hash=config.hash(),
        seed=int(seed),
        heldout=int(heldout),
        alpha=config.alpha,
        tau=config.tau,
        gamma=config.gamma,
        m_l=config.m_l,
        accuracy=report.accuracy,
        wall_s=wall,
        split_hash=split_hash,
        epochs=tuple(state.history),
        report=report.to_dict(),
    )


# A pool worker's copy of the world, set once by _init_worker; it stays
# None in the process that opens the runner.
_worker_domains = None


def _init_worker(domains):
    global _worker_domains
    _worker_domains = domains


def _run_worker(args):
    config, seed, heldout = args
    return execute_run(config, seed, heldout, _worker_domains)


def _suite_tasks(config):
    """A suite's runs as (config, seed, heldout), by seed, then held-out id."""
    heldouts = range(config.num_domains) if config.held_out is None else [config.held_out]
    return [(config, s, h) for s in config.seeds for h in heldouts]


@contextmanager
def open_runner(config, queued):
    """Build the world once and yield a runner: tasks -> RunRecords.

    A task is (config, seed, heldout), and a runner call takes each of the
    ``queued`` tasks at most once; every task's config must share
    ``config``'s data fields, since all of them run on its world. With
    config.jobs == 1 a runner call runs its tasks serially in this process.
    Otherwise the tasks go to one process pool of at most one worker per
    ``queued`` task, whose workers receive the world once at start-up
    (inherited, not pickled, under fork). The pool starts on the queued
    tasks at once, so its workers keep busy while the caller writes one
    suite's results; a runner call collects the records of its queued
    tasks. On exit the pool is shut down and, after an error, its pending
    tasks are cancelled.
    """
    domains = build_domains(config)
    if config.jobs == 1:
        yield lambda tasks: [execute_run(c, s, h, domains) for c, s, h in tasks]
        return
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it
    pool = ProcessPoolExecutor(max_workers=min(config.jobs, len(queued)),
                               initializer=_init_worker, initargs=(domains,))
    try:
        submitted = {task: pool.submit(_run_worker, task) for task in queued}

        def run(tasks):
            return [submitted.pop(t).result() for t in tasks]

        yield run
    finally:
        pool.shutdown(cancel_futures=True)


def ensure_writable(out_dir):
    """Fail fast (before any training) if the output path is unusable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("ok")
    probe.unlink()
    return out


def run_suite(config, write=True, *, runner=None):
    """Execute |seeds| x |hold-outs| runs and persist the results.

    The world is built once and shared by every run. ``runner`` comes
    from open_runner: sweep and ablation open one per sweep/ablation, one
    pool for all its suites. Without it the suite opens and closes its own.

    Returns the list of RunRecords (ordered by seed, then held-out id).
    """
    out = ensure_writable(config.out_dir) if write else None
    tasks = _suite_tasks(config)
    with (nullcontext(runner) if runner else open_runner(config, tasks)) as run:
        records = run(tasks)
    records.sort(key=lambda r: (r.seed, r.heldout))
    if write:
        write_runs_csv(records, out / "runs.csv")
        write_aggregate_csv([suite_aggregate(config, records)], out / "aggregate.csv")
        for rec in records:
            write_run_json(rec, out / f"run_s{rec.seed}_h{rec.heldout}.json")
    return records


def suite_aggregate(config, records):
    """Mean and population std of accuracy over a suite's runs."""
    acc = np.array([r.accuracy for r in records])
    return dict(zip(AGGREGATE_COLUMNS, (config.alpha, config.tau, config.gamma, config.m_l,
                                        len(records), float(acc.mean()), float(acc.std()))))


def _run_variants(config, variants):
    """run_suite per (subdir, overrides) of ``variants``, into that subdir of
    config.out_dir, on one world and one runner (see open_runner).

    Every variant's config is built, and so validated, before the output
    directory is made. Returns [(variant config, records), ...] in order.
    """
    out = Path(config.out_dir)
    configs = [replace(config, **kw, out_dir=str(out / subdir)) for subdir, kw in variants]
    ensure_writable(out)
    with open_runner(config, [t for c in configs for t in _suite_tasks(c)]) as runner:
        return [(c, run_suite(c, runner=runner)) for c in configs]


def sweep(config, axis, values):
    """run_suite per value of one axis; returns [(value, mean, std), ...].

    Axis is one of 'alpha', 'gamma', 'ml'. No axis changes the world, so
    every value's suite runs on one world and one runner. Values that would
    share an ``<axis>_<value:g>`` directory are rejected before any run.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")

    field, subdirs = SWEEP_AXES[axis], [f"{axis}_{v:g}" for v in values]
    repeated = sorted({d for d in subdirs if subdirs.count(d) > 1})
    if repeated:
        raise ConfigError(f"sweep values {values} share the output directories {repeated}")
    suites = _run_variants(config, [(d, {field: v}) for d, v in zip(subdirs, values)])
    table = []
    for v, (cfg, records) in zip(values, suites):
        agg = suite_aggregate(cfg, records)
        table.append((float(v), agg["mean_accuracy"], agg["std_accuracy"]))
    emit_plot_data(table, Path(config.out_dir) / f"sweep_{axis}.dat",
                   header=(axis, "mean", "std"))
    return table


ABLATION_VARIANTS = ("baseline", "+marginal_entropy", "+alpha_marginal_entropy")


def ablation(config):
    """Three-variant comparison on identical seeds and data splits.

    baseline: marginal_weight = 0 (plain semi-supervised objective);
    +marginal_entropy: Shannon marginal term (alpha = 1);
    +alpha_marginal_entropy: the configured alpha.

    The variants share one world and one runner (see open_runner).

    Returns rows of (label, mean, std, delta_vs_baseline).
    """
    overrides = ({"marginal_weight": 0.0}, {"marginal_weight": 1.0, "alpha": 1.0},
                 {"marginal_weight": 1.0})
    suites = _run_variants(config, [(label.replace("+", "plus_"), kw)
                                    for label, kw in zip(ABLATION_VARIANTS, overrides)])

    # identical splits across variants: protocol fields are shared
    base = suites[0][1]
    for label, (_, records) in zip(ABLATION_VARIANTS[1:], suites[1:]):
        if any(a.split_hash != b.split_hash for a, b in zip(base, records)):
            raise RuntimeError(f"variant {label} saw a different data split")

    aggs = [suite_aggregate(cfg, records) for cfg, records in suites]
    rows = [(label, a["mean_accuracy"], a["std_accuracy"],
             a["mean_accuracy"] - aggs[0]["mean_accuracy"])
            for label, a in zip(ABLATION_VARIANTS, aggs)]
    _write_csv(Path(config.out_dir) / "ablation.csv",
               ["variant", "mean_accuracy", "std_accuracy", "delta_vs_baseline"], rows)
    return rows


def emit_plot_data(table, path, header=("value", "mean", "std")):
    """Whitespace-separated columns with a '#' header line.

    Floats are written repr-exactly, so np.loadtxt reads them back unchanged.
    """
    if not table:
        raise ValueError("empty table")
    with open(path, "w") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in table:
            fh.write(" ".join(format(float(v), ".17g") for v in row) + "\n")


def _write_csv(path, header, rows):
    """A header line, then ``rows`` with float cells as .12g and others as is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(v, ".12g") if isinstance(v, float) else v for v in row]
                    for row in rows)


def write_runs_csv(records, path):
    _write_csv(path, RUNS_CSV_COLUMNS, [rec.csv_row() for rec in records])


def write_aggregate_csv(aggregates, path):
    _write_csv(path, AGGREGATE_COLUMNS, [[a[c] for c in AGGREGATE_COLUMNS] for a in aggregates])


def write_run_json(record, path):
    # RunRecord's fields, not a subclass's extras, with the report as "final"
    payload = {"final" if f.name == "report" else f.name: getattr(record, f.name)
               for f in fields(RunRecord)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


# --- config file handling ---------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key, value):
    """The text ``value`` as the type of ExperimentConfig field ``key``: booleans
    take 1/true/yes/on or 0/false/no/off, tuples comma-separated ints, and held_out
    also all/none (None). Raises ConfigError on an unknown key or a malformed value."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    kind, word = _FIELD_TYPES[key], value.strip().lower()
    try:
        if key == "held_out" and word in ("all", "none"):
            return None
        if kind is bool:
            return {"1": True, "true": True, "yes": True, "on": True,
                    "0": False, "false": False, "no": False, "off": False}[word]
        if kind is tuple:
            return tuple(int(t) for t in value.split(",") if t.strip())
        return kind(value)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key} ({kind.__name__}): {value!r}") from None


def parse_config_file(path):
    """Flat key=value UTF-8 config file -> dict of typed overrides.

    A leading byte-order mark, lines starting with '#' and blank lines are
    ignored. Unknown keys, malformed values and non-UTF-8 bytes (named by their
    offset in the file) raise ConfigError.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    overrides = {}
    for lineno, line in enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=None), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        try:
            overrides[key] = _coerce(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return overrides
