"""Experiment orchestration: leave-one-domain-out suites, sweeps, ablation.

A suite is |seeds| x |hold-outs| runs. Every run is a pure function of
(config, seed, held-out domain): the synthetic world (build_domains:
Gaussian class blobs, moved and axis-mixed per domain) depends only on the
config's WORLD_FIELDS. run_suites runs any list of suites that share one
world on one build of it and, with jobs > 1, one pool; sweep and ablation
are run_suites calls, and run_suite alone builds its own. The long-tail
split is drawn from the run seed with one class order shared across that
run's source domains, and training uses isolated per-run RNG streams.
Results land in runs.csv (one row per run), aggregate.csv (mean and
population std) and one JSON log per run with the per-epoch loss
breakdown.
"""

import csv
import hashlib
import io
import json
import math
import numbers
import operator
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .data import (
    LongTailSpec,
    World,
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
# the config fields build_domains reads: configs equal on them share one world
WORLD_FIELDS = ("num_domains", "num_classes", "feature_dim", "n_per_class", "data_seed")
MAX_RUN_VALUES = 10**8  # float64 values one run may allocate (800 MB)
# the synthetic world's scales: class centroid spread, per-domain mean shift,
# within-class noise and per-domain axis mixing
CENTROID_SCALE, SHIFT_SCALE, NOISE_SCALE, ROTATION_STRENGTH = 2.0, 1.0, 1.5, 0.3
# what a config field of each type must hold, as its ConfigError names it
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a bool", tuple: "integers",
               str: "a path"}


def _field_value(kind, value):
    """``value`` as a field of type ``kind``: operator.index for an int field or tuple
    entry, float of a real number for a float field, a bool for a bool field, the str
    of a str or os.PathLike for a str field; TypeError on any other value (a bool for
    a number too), OverflowError on a huge int."""
    if kind is tuple:
        return tuple(_field_value(int, v) for v in value)
    if kind is str:
        path = os.fspath(value)  # TypeError unless a str, bytes or os.PathLike
        if not isinstance(path, str):
            raise TypeError
        return path
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
            if not (f.name == "held_out" and value is None):
                try:
                    value = _field_value(f.type, value)
                except (TypeError, OverflowError):
                    raise ConfigError(f"{f.name} must be {_KIND_NAMES[f.type]}, "
                                      f"got {value!r}") from None
                object.__setattr__(self, f.name, value)
            if f.type is float and not math.isfinite(value):  # NaN passes `x < bound`
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not self.out_dir.strip():
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
            # float64 values of the world (runs gather from it and copy no rows),
            # the rotation, the confusion matrix, the model, velocity, grads and
            # the update's transient product, an epoch's labeled draw (its steps
            # bounded by the whole unlabeled pool), a step's stacked rows and an
            # evaluate block of up to EVAL_ROWS + 1 rows (a 1-row remainder joins
            # the block before it) through every layer, and evaluate's (rows, K)
            # probabilities and softmax's four (EVAL_ROWS + 1, K) block arrays,
            # bounded before anything of size num_classes is made
            layers = (self.feature_dim, *self.hidden, self.num_classes)
            rows = self.num_classes * self.n_per_class  # per domain
            steps = max(1, (self.num_domains - 1) * rows // self.unlabeled_batch)
            size = (self.num_domains * rows * self.feature_dim
                    + self.feature_dim ** 2 + self.num_classes ** 2
                    + 4 * sum((a + 1) * b for a, b in zip(layers, layers[1:]))
                    + self.labeled_batch * steps
                    + (self.labeled_batch + 2 * self.unlabeled_batch + EVAL_ROWS + 1) * sum(layers)
                    + (rows + 4 * (EVAL_ROWS + 1)) * self.num_classes)
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
    """The synthetic world: every domain's rows in one World, unsplit.

    K Gaussian class centroids (CENTROID_SCALE, stream [data_seed, 0]) are,
    per domain d, moved by a Gaussian mean shift (SHIFT_SCALE), their axes
    mixed by domain_rotation at ROTATION_STRENGTH, and n_per_class rows drawn
    around each with isotropic noise at NOISE_SCALE; d's shift, rotation seed
    and noise seed come in that order from stream [data_seed, 1, d]. Domains
    differ in their inputs and share the label distribution. The world depends
    only on the config's data fields, so every run of a suite (and every
    ablation variant) sees identical features. The rows are built in one
    (num_domains * rows, dim) buffer, each domain's noise drawn into its
    block, and the World adopts it read-only; train gathers batches from it.
    """
    dim = config.feature_dim
    root = np.random.default_rng(np.random.SeedSequence([config.data_seed, 0]))
    centroids = CENTROID_SCALE * root.standard_normal((config.num_classes, dim))
    labels = np.repeat(np.arange(config.num_classes), config.n_per_class)
    features = np.empty((config.num_domains * len(labels), dim))
    for d, block in enumerate(features.reshape(config.num_domains, len(labels), dim)):
        drng = np.random.default_rng(np.random.SeedSequence([config.data_seed, 1, d]))
        shift = SHIFT_SCALE * drng.standard_normal(dim)
        rotation = domain_rotation(dim, int(drng.integers(2**31)), ROTATION_STRENGTH)
        np.random.default_rng(int(drng.integers(2**31))).standard_normal(out=block)
        block *= NOISE_SCALE
        block += ((centroids + shift) @ rotation.T)[labels]
    features.flags.writeable = False
    return World(features, np.tile(labels, config.num_domains),
                 np.arange(config.num_domains + 1) * len(labels), config.num_classes)


def split_sources(config, world, seed, heldout):
    """Long-tail split of the source domains of ``world`` for one run.

    One class order is drawn from the run seed and shared across the
    run's source domains; per-domain index sampling uses child seeds.
    Returns (sources, split_hash): a Split per source domain, in order, and
    a hash of the class order and their domain-local labeled ids.
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
        split = split_labeled_unlabeled(world, d, spec, split_seed,
                                        longtail_unlabeled=config.longtail_unlabeled)
        hasher.update(np.ascontiguousarray(split.labeled_indices).tobytes())
        sources.append(split)
    return sources, hasher.hexdigest()[:16]


def execute_run(config, seed, heldout, world):
    """One leave-one-domain-out run on ``world`` (build_domains); pure
    function of its arguments. The RunRecord's epochs are train's history
    and its report is evaluate's dict, the run JSON's ``final``."""
    sources, split_hash = split_sources(config, world, seed, heldout)
    t0 = time.perf_counter()
    try:
        model, history = train(config, sources, seed)
        report = evaluate(model, world, heldout)
    except DivergenceError as exc:  # name the run: a suite has |seeds| x |held-out| of them
        raise DivergenceError(f"{exc} (seed {seed}, held-out domain {heldout})") from None
    wall = time.perf_counter() - t0
    return RunRecord(
        config_hash=config.hash(),
        seed=int(seed),
        heldout=int(heldout),
        alpha=config.alpha,
        tau=config.tau,
        gamma=config.gamma,
        m_l=config.m_l,
        accuracy=report["accuracy"],
        wall_s=wall,
        split_hash=split_hash,
        epochs=tuple(history),
        report=report,
    )


# A pool worker's copy of the world, set once by _init_worker; it stays
# None in the process that opens the runner.
_worker_world = None


def _init_worker(world, blas_threads):
    """Keep the world for _run_worker, and cap every OpenBLAS this process has
    loaded (named in /proc/self/maps, where that exists) at ``blas_threads``
    threads, never raising it, so the workers share the CPUs."""
    global _worker_world
    _worker_world = world
    import ctypes
    try:
        with open("/proc/self/maps") as fh:  # address perms offset device inode [path]
            paths = {r[5].strip() for r in (line.split(maxsplit=5) for line in fh) if len(r) == 6}
    except OSError:
        return
    for lib in (ctypes.CDLL(p) for p in sorted(paths) if "openblas" in Path(p).name.lower()):
        setter = next((n for n in ("scipy_openblas_set_num_threads64_",
                                   "openblas_set_num_threads64_", "openblas_set_num_threads")
                       if hasattr(lib, n)), None)
        if setter:
            get = getattr(lib, setter.replace("_set_", "_get_"))
            getattr(lib, setter)(min(blas_threads, get()))
            # the setter starts OpenBLAS's thread server, whose idle threads spin
            # for about 0.1 s; stop it, as fork left it, until a product threads
            if hasattr(lib, "blas_thread_shutdown_"):
                lib.blas_thread_shutdown_()


def _run_worker(task):  # task: (config, seed, heldout)
    return execute_run(*task, _worker_world)


@contextmanager
def _open_runner(configs, write):
    """Build the world of ``configs`` once and yield a runner: a config of
    ``configs`` in, its suite's RunRecords out. Configs of one hash (equal
    apart from out_dir and jobs) share one suite of runs, which runs once.

    Configs whose WORLD_FIELDS differ from the first one's raise
    ConfigError, naming the fields, and so, when ``write``, do configs
    whose out_dirs resolve to one directory (a config listed twice too),
    naming it; both before any output directory is made (each config's
    out_dir, when ``write``) or any world built. With the first config's
    jobs == 1 a runner call runs its suite serially in this process.
    Otherwise every suite's runs are queued at once (by config, then seed,
    then held-out id) on one process pool of at most one worker per run,
    whose workers receive the world once at start-up (inherited under fork,
    else unpickled without a second copy into a World whose rows cannot be
    written), so they keep busy while the caller writes one suite's
    results. Each worker caps OpenBLAS at its share of this process's CPUs,
    cpus // workers threads; the caller's BLAS is left as it is. On exit
    the pool is shut down and, after an error, its pending runs are
    cancelled.
    """
    first = configs[0]
    differ = [f for f in WORLD_FIELDS if any(getattr(c, f) != getattr(first, f) for c in configs)]
    if differ:
        raise ConfigError(f"suites run together must share one world; these fields "
                          f"differ: {', '.join(differ)}")
    tasks = {c.hash(): [(c, s, h) for s in c.seeds for h in (
        range(c.num_domains) if c.held_out is None else [c.held_out])] for c in configs}
    if write:
        dirs = Counter(Path(c.out_dir).resolve() for c in configs)
        shared = sorted(str(d) for d, n in dirs.items() if n > 1)
        if shared:
            raise ConfigError(f"suites run together must write to distinct directories; "
                              f"they share {', '.join(shared)}")
        for config in configs:
            ensure_writable(config.out_dir)
    world = build_domains(first)
    if first.jobs == 1:
        suite = cache(lambda key: [execute_run(*task, world) for task in tasks[key]])
        yield lambda config: suite(config.hash())
        return
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it
    workers = min(first.jobs, sum(map(len, tasks.values())))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(world, max(1, (cpus or 1) // workers)))
    try:
        futures = {k: [pool.submit(_run_worker, t) for t in ts] for k, ts in tasks.items()}
        yield lambda config: [f.result() for f in futures[config.hash()]]
    finally:
        pool.shutdown(cancel_futures=True)


def ensure_writable(out_dir):
    """Fail fast (before any training) if the output path is unusable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("ok")
    probe.unlink()


def run_suite(config, write=True, *, runner=None):
    """Execute |seeds| x |hold-outs| runs and persist the results.

    The world is built once and shared by every run. ``runner`` is the
    one run_suites opens for all its suites (see _open_runner), which has
    already made config.out_dir; without it the suite opens and closes
    its own.

    Returns the list of RunRecords (ordered by seed, then held-out id).
    """
    with nullcontext(runner) if runner else _open_runner([config], write) as run:
        records = sorted(run(config), key=lambda r: (r.seed, r.heldout))
    if write:
        out = Path(config.out_dir)
        write_runs_csv(records, out / "runs.csv")
        write_aggregate_csv([suite_aggregate(config, records)], out / "aggregate.csv")
        for rec in records:
            write_run_json(rec, out / f"run_s{rec.seed}_h{rec.heldout}.json")
    return records


def run_suites(configs, write=True):
    """run_suite per config, all on one world and one runner (see _open_runner,
    which, when ``write``, refuses configs that share an out_dir, a config listed
    twice too, and makes every out_dir before any run). Configs equal apart from
    out_dir train once, and each writes the shared records into its own out_dir;
    unwritten, a config listed twice runs once. One list of RunRecords per
    config, in order.
    """
    configs = list(configs)
    if not configs:
        return []
    with _open_runner(configs, write) as runner:
        records = {c: run_suite(c, write, runner=runner) for c in dict.fromkeys(configs)}
    return [records[c] for c in configs]


def suite_aggregate(config, records):
    """Mean and population std of accuracy over a suite's runs."""
    acc = np.array([r.accuracy for r in records])
    return dict(zip(AGGREGATE_COLUMNS, (config.alpha, config.tau, config.gamma, config.m_l,
                                        len(records), float(acc.mean()), float(acc.std()))))


def sweep(config, axis, values):
    """run_suites over one axis's values; returns [(value, mean, std), ...].

    Axis is one of 'alpha', 'gamma', 'ml', none of which changes the world.
    Each value's suite goes to its ``<axis>_<value:g>`` directory; values
    that would share one are rejected before any run (see _open_runner).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")

    out, subdirs = Path(config.out_dir), [f"{axis}_{v:g}" for v in values]
    configs = [replace(config, **{SWEEP_AXES[axis]: v}, out_dir=str(out / d))
               for d, v in zip(subdirs, values)]
    aggs = [suite_aggregate(c, records) for c, records in zip(configs, run_suites(configs))]
    table = [(float(v), a["mean_accuracy"], a["std_accuracy"]) for v, a in zip(values, aggs)]
    emit_plot_data(table, out / f"sweep_{axis}.dat", header=(axis, "mean", "std"))
    return table


ABLATION_VARIANTS = ("baseline", "+marginal_entropy", "+alpha_marginal_entropy")


def ablation(config):
    """Three-variant comparison on identical seeds and data splits.

    baseline: marginal_weight = 0 (plain semi-supervised objective);
    +marginal_entropy: Shannon marginal term (alpha = 1);
    +alpha_marginal_entropy: the configured alpha.

    Both marginal variants run at the configured marginal_weight, which
    must be above 0 (else all three are the baseline: ConfigError before
    any directory is made). The variants are one run_suites call, on one
    world and one runner.

    Returns rows of (label, mean, std, delta_vs_baseline).
    """
    if config.marginal_weight == 0:
        raise ConfigError("ablate needs marginal_weight > 0: at 0 every variant is the baseline")
    overrides = ({"marginal_weight": 0.0}, {"alpha": 1.0}, {})
    out = Path(config.out_dir)
    configs = [replace(config, **kw, out_dir=str(out / label.replace("+", "plus_")))
               for label, kw in zip(ABLATION_VARIANTS, overrides)]
    suites = run_suites(configs)

    # identical splits across variants: protocol fields are shared
    for label, records in zip(ABLATION_VARIANTS[1:], suites[1:]):
        if any(a.split_hash != b.split_hash for a, b in zip(suites[0], records)):
            raise RuntimeError(f"variant {label} saw a different data split")

    aggs = [suite_aggregate(c, records) for c, records in zip(configs, suites)]
    rows = [(label, a["mean_accuracy"], a["std_accuracy"],
             a["mean_accuracy"] - aggs[0]["mean_accuracy"])
            for label, a in zip(ABLATION_VARIANTS, aggs)]
    _write_csv(out / "ablation.csv",
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
