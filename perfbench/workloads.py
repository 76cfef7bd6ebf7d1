"""The benchmark's workloads and the output check each pass must pass.

Every workload drives ltinfomax through one public entry point
(``ablation``, ``run_suite`` or ``sweep``), looked up on the module at
call time so that the tracer's wrappers are the ones called. The
workload seed shifts ``data_seed`` and the run seed list; seed 0 gives
the configurations below.
"""

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import ltinfomax.experiments as experiments
from ltinfomax.experiments import ABLATION_VARIANTS, ExperimentConfig

SWEEP_VALUES = (1, 5, 10, 20, 50)


class CheckFailure(Exception):
    """A pass's results failed the output check."""


@dataclass(frozen=True)
class Workload:
    """One run_suite call on ``base``; subclasses drive the other entry points."""

    name: str
    base: ExperimentConfig

    def config(self, seed, out_dir):
        """The workload's config for a benchmark seed; seed 0 is ``base``."""
        n = len(self.base.seeds)
        return replace(self.base, data_seed=self.base.data_seed + seed,
                       seeds=tuple(s + seed * n for s in self.base.seeds),
                       out_dir=str(out_dir))

    def suites(self, config):
        """(config, output dir) of each run_suite call the workload makes."""
        return [(config, Path(config.out_dir))]

    def run(self, config):
        return experiments.run_suite(config)

    def check_result(self, config, result):
        if len(result) != len(_tasks(config)):
            raise CheckFailure(f"run_suite returned {len(result)} records")

    def alpha_gain(self, result):
        """The alpha variant's mean accuracy minus the baseline's, where defined."""
        return None


class Ablation(Workload):
    def suites(self, config):
        variants = [replace(config, marginal_weight=0.0),
                    replace(config, marginal_weight=1.0, alpha=1.0),
                    replace(config, marginal_weight=1.0)]
        return [(v, Path(config.out_dir) / label.replace("+", "plus_"))
                for v, label in zip(variants, ABLATION_VARIANTS)]

    def run(self, config):
        return experiments.ablation(config)

    def check_result(self, config, result):
        if [r[0] for r in result] != list(ABLATION_VARIANTS):
            raise CheckFailure(f"ablation returned {result!r}")

    def alpha_gain(self, result):
        return result[2][1] - result[0][1]


class GammaSweep(Workload):
    def suites(self, config):
        return [(replace(config, gamma=float(v)), Path(config.out_dir) / f"gamma_{v:g}")
                for v in SWEEP_VALUES]

    def run(self, config):
        return experiments.sweep(config, "gamma", list(SWEEP_VALUES))

    def check_result(self, config, result):
        if [v for v, _, _ in result] != [float(v) for v in SWEEP_VALUES]:
            raise CheckFailure(f"sweep returned {result!r}")
        if not (Path(config.out_dir) / "sweep_gamma.dat").is_file():
            raise CheckFailure("sweep wrote no sweep_gamma.dat")


def _tasks(config):
    heldouts = range(config.num_domains) if config.held_out is None else [config.held_out]
    return [(s, h) for s in config.seeds for h in heldouts]


WORKLOADS = {
    w.name: w for w in (
        # ltinfomax ablate at its default sizes: 160 steps of 16 + 64 rows at
        # K=5, so per-step overhead and the objective dominate; covers
        # marginal_weight=0 and alpha=1 too. Two seeds instead of five
        # (3 variants x 2 seeds x 4 hold-outs = 24 runs) give several passes
        # a run, so a slow pass does not set the run's figures.
        Ablation("ablate-default", ExperimentConfig(seeds=(0, 1))),
        # K=40 through a 256-wide network: matmul-bound, the objective is a
        # small share, so objective-only changes should barely show here.
        # One epoch over 12 seeds: 852 steps a pass, as 3 epochs over 4
        # seeds, but three times the per-run latency samples.
        Workload("wide-classes", ExperimentConfig(
            num_classes=40, feature_dim=64, hidden=(256, 256), m_l=2, epochs=1,
            held_out=0, seeds=tuple(range(12)))),
        # The only process-pool workload: one pool per sweep value, a world
        # rebuild per task and result files per value.
        GammaSweep("sweep-parallel", ExperimentConfig(
            seeds=(0, 1, 2, 3), epochs=5, jobs=min(2, os.cpu_count() or 1))),
    )
}


def plan(workload, config):
    """(runs per pass, SGD steps per pass) implied by the config.

    Steps per run are epochs x max(1, unlabeled pool // unlabeled_batch),
    the schedule ``train`` uses; the pool size comes from the same split
    the run draws.
    """
    runs = steps = 0
    domains = {}
    for suite, _ in workload.suites(config):
        key = (suite.data_seed, suite.num_domains, suite.num_classes, suite.feature_dim,
               suite.n_per_class)
        if key not in domains:
            domains[key] = experiments.build_domains(suite)
        for seed, heldout in _tasks(suite):
            sources, _ = experiments.split_sources(suite, domains[key], seed, heldout)
            n_unl = sum(len(d.unlabeled_indices) for d in sources)
            runs += 1
            steps += suite.epochs * max(1, n_unl // suite.unlabeled_batch)
    return runs, steps


def check_pass(workload, config, result):
    """Read back a pass's runs.csv files and check them.

    Returns (runs, failed, problems): runs is [(accuracy, wall_s)] for
    every row that passed, failed counts expected runs that are missing
    or whose row is malformed or out of range.
    """
    runs, failed, problems = [], 0, []
    for suite, d in workload.suites(config):
        expected = len(_tasks(suite))
        try:
            with open(d / "runs.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            problems.append(f"{d}: {exc}")
            failed += expected
            continue
        if len(rows) != expected:
            problems.append(f"{d}: {len(rows)} runs, expected {expected}")
            failed += max(0, expected - len(rows))
        for row in rows[:expected]:
            try:
                acc, wall = float(row["accuracy"]), float(row["wall_s"])
            except (KeyError, TypeError, ValueError):
                acc = wall = math.nan
            if math.isfinite(acc) and 0.0 <= acc <= 1.0 and math.isfinite(wall) and wall > 0:
                runs.append((acc, wall))
            else:
                problems.append(f"{d}: bad row {row}")
                failed += 1
    workload.check_result(config, result)
    return runs, failed, problems
