"""Suite orchestration: run records, sweeps, ablation, persistence."""

import csv
import hashlib
import json
import multiprocessing
import os
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ltinfomax.experiments as experiments
from ltinfomax.data import LongTailSpec, split_labeled_unlabeled
from ltinfomax.errors import ConfigError, DivergenceError
from ltinfomax.experiments import (
    ExperimentConfig,
    ablation,
    build_domains,
    emit_plot_data,
    execute_run,
    parse_config_file,
    run_suite,
    split_sources,
    suite_aggregate,
    sweep,
)

# small but real: 3 domains, K=3, quick training
FAST = dict(num_domains=3, num_classes=3, feature_dim=6, n_per_class=25,
            epochs=2, hidden=(8,), unlabeled_batch=32, m_l=3)


def fast_config(tmp_path, **kw):
    merged = {"out_dir": str(tmp_path / "out"), **FAST, **kw}
    return ExperimentConfig(**merged)


class TestRunSuite:
    def test_single_seed_fixed_heldout_one_record(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=1)
        records = run_suite(cfg)
        assert len(records) == 1
        assert records[0].heldout == 1 and records[0].seed == 0

    def test_rotation_gives_seeds_times_domains(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0, 1), held_out=None)
        records = run_suite(cfg)
        assert len(records) == 6
        assert {(r.seed, r.heldout) for r in records} == {
            (s, h) for s in (0, 1) for h in (0, 1, 2)
        }

    def test_outputs_written(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        run_suite(cfg)
        out = tmp_path / "out"
        assert (out / "runs.csv").exists()
        assert (out / "aggregate.csv").exists()
        log = json.loads((out / "run_s0_h0.json").read_text())
        assert len(log["epochs"]) == cfg.epochs
        for rec in log["epochs"]:
            assert set(rec) >= {"neg_marginal_entropy", "labeled_ce", "pseudo_ce",
                                "total", "accepted_fraction"}
        assert 0 <= log["accuracy"] <= 1

    def test_rerun_identical_except_wall_time(self, tmp_path):
        cfg1 = fast_config(tmp_path, seeds=(0, 1), held_out=2)
        run_suite(cfg1)
        rows1 = (tmp_path / "out" / "runs.csv").read_text().splitlines()
        cfg2 = replace(cfg1, out_dir=str(tmp_path / "out2"))
        run_suite(cfg2)
        rows2 = (tmp_path / "out2" / "runs.csv").read_text().splitlines()
        strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
        assert strip(rows1) == strip(rows2)

    def test_aggregate_csv_bytes_identical(self, tmp_path):
        cfg1 = fast_config(tmp_path, seeds=(0, 1), held_out=2)
        run_suite(cfg1)
        cfg2 = replace(cfg1, out_dir=str(tmp_path / "out2"))
        run_suite(cfg2)
        a = (tmp_path / "out" / "aggregate.csv").read_bytes()
        b = (tmp_path / "out2" / "aggregate.csv").read_bytes()
        assert a == b

    def test_aggregate_recomputable_from_records(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0, 1, 2), held_out=0)
        records = run_suite(cfg)
        agg = suite_aggregate(cfg, records)
        accs = []
        with open(tmp_path / "out" / "runs.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                accs.append(float(row["accuracy"]))
        assert agg["mean_accuracy"] == pytest.approx(np.mean(accs), abs=1e-9)
        assert agg["std_accuracy"] == pytest.approx(np.std(accs), abs=1e-9)

    def test_unwritable_out_dir_fails_before_training(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0,
                          out_dir=str(blocker / "sub"))
        with pytest.raises(OSError):
            run_suite(cfg)

    def test_jobs_parallel_matches_serial(self, tmp_path):
        cfg1 = fast_config(tmp_path, seeds=(0, 1), held_out=0)
        serial = run_suite(cfg1)
        cfg2 = replace(cfg1, jobs=2, out_dir=str(tmp_path / "out2"))
        parallel = run_suite(cfg2)
        assert [r.accuracy for r in serial] == [r.accuracy for r in parallel]
        assert [r.split_hash for r in serial] == [r.split_hash for r in parallel]
        assert [r.epochs for r in serial] == [r.epochs for r in parallel]
        assert [r.report for r in serial] == [r.report for r in parallel]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched build_domains only when forked")
    def test_pool_workers_never_rebuild_the_world(self, tmp_path, monkeypatch):
        parent_pid = os.getpid()
        original = experiments.build_domains

        def parent_only(config):
            if os.getpid() != parent_pid:
                raise RuntimeError("a pool worker rebuilt the world")
            return original(config)

        monkeypatch.setattr(experiments, "build_domains", parent_only)
        records = run_suite(fast_config(tmp_path, seeds=(0, 1), held_out=0, jobs=2))
        assert len(records) == 2
        table = sweep(fast_config(tmp_path, seeds=(0,), held_out=0, jobs=2,
                                  out_dir=str(tmp_path / "sweep")), "gamma", [1.0, 10.0])
        assert len(table) == 2

    def test_runs_csv_column_contract(self, tmp_path):
        """The headers of runs.csv, aggregate.csv and ablation.csv."""
        ablation(fast_config(tmp_path, seeds=(0,), held_out=0))
        headers = {}
        for name in ("baseline/runs.csv", "baseline/aggregate.csv", "ablation.csv"):
            with open(tmp_path / "out" / name, newline="") as fh:
                headers[name] = next(csv.reader(fh))
        assert headers == {
            "baseline/runs.csv":
                ["seed", "heldout", "alpha", "tau", "gamma", "m_l", "accuracy", "wall_s"],
            "baseline/aggregate.csv":
                ["alpha", "tau", "gamma", "m_l", "n_runs", "mean_accuracy", "std_accuracy"],
            "ablation.csv": ["variant", "mean_accuracy", "std_accuracy", "delta_vs_baseline"],
        }

    def test_run_json_key_order(self, tmp_path):
        run_suite(fast_config(tmp_path, seeds=(0,), held_out=0))
        log = json.loads((tmp_path / "out" / "run_s0_h0.json").read_text())
        assert list(log) == ["config_hash", "seed", "heldout", "alpha", "tau", "gamma", "m_l",
                             "split_hash", "accuracy", "wall_s", "epochs", "final"]


class TestSharedRunner:
    """sweep and ablation open one runner: one world and, with jobs > 1, one
    pool for all their suites."""

    @staticmethod
    def _run(entry, cfg):
        if entry == "sweep":
            return sweep(cfg, "gamma", [1.0, 10.0])
        return ablation(cfg)

    @pytest.mark.parametrize("entry", ["sweep", "ablation"])
    def test_one_pool_and_one_world_with_the_serial_records(self, tmp_path, monkeypatch,
                                                             entry):
        pools, worlds, suites = [], [], []

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        original_build, original_suite = experiments.build_domains, experiments.run_suite

        def counting_build(config):
            worlds.append(config)
            return original_build(config)

        def recording_suite(config, *args, **kwargs):
            suites.append(original_suite(config, *args, **kwargs))
            return suites[-1]

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(experiments, "build_domains", counting_build)
        monkeypatch.setattr(experiments, "run_suite", recording_suite)
        serial_cfg = fast_config(tmp_path, seeds=(0, 1), held_out=0)
        serial = self._run(entry, serial_cfg)
        assert pools == [] and len(worlds) == 1
        serial_suites, suites[:], worlds[:] = suites[:], [], []
        parallel = self._run(entry, replace(serial_cfg, jobs=2,
                                            out_dir=str(tmp_path / "parallel")))
        assert pools == [2] and len(worlds) == 1
        assert parallel == serial
        assert len(suites) == len(serial_suites) >= 2
        key = lambda r: (r.seed, r.heldout, r.accuracy, r.split_hash, r.epochs, r.report)
        for got, want in zip(suites, serial_suites):
            assert [key(r) for r in got] == [key(r) for r in want]

    def test_no_more_workers_than_runs(self, tmp_path, monkeypatch):
        pools = []

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, max_workers, **kwargs):
                pools.append(max_workers)
                # never start more than the two workers the suite needs
                super().__init__(*args, max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        records = run_suite(fast_config(tmp_path, seeds=(0, 1), held_out=0, jobs=8))
        assert pools == [2] and len(records) == 2


class TestExecuteRun:
    def test_deterministic(self, tmp_path):
        cfg = fast_config(tmp_path)
        # each run on its own build of the world
        a = execute_run(cfg, 3, 1, build_domains(cfg))
        b = execute_run(cfg, 3, 1, build_domains(cfg))
        assert a.accuracy == b.accuracy
        assert a.split_hash == b.split_hash
        assert a.epochs == b.epochs

    def test_seed_changes_split(self, tmp_path):
        cfg = fast_config(tmp_path)
        domains = build_domains(cfg)
        a = execute_run(cfg, 0, 0, domains)
        b = execute_run(cfg, 1, 0, domains)
        assert a.split_hash != b.split_hash

    def test_divergence_on_the_target_names_the_run(self, tmp_path, monkeypatch):
        """Parameters that overflow only at evaluation: the check is evaluate's own."""
        cfg = fast_config(tmp_path)
        real = experiments.evaluate

        def overflowing(model, target):
            model.flat[...] = 1e300
            return real(model, target)

        monkeypatch.setattr(experiments, "evaluate", overflowing)
        with pytest.raises(DivergenceError) as info:
            execute_run(cfg, 3, 2, build_domains(cfg))
        assert str(info.value) == ("non-finite logits on the target domain "
                                   "(seed 3, held-out domain 2)")


class TestSplitPin:
    # (longtail_unlabeled, seed) -> (split_hash, digest of every source's labeled and
    # unlabeled indices and labels); split_hash alone misses the thinned unlabeled pool
    PINNED = {
        (False, 0): ("32c954e7ee61e09d", "ba0428a0e7f8700e"),
        (False, 1): ("d2ee72508fe8e635", "b32001767c7ced7b"),
        (True, 0): ("a5bc1541a7a4cfa0", "ef62941c21fa4be1"),
        (True, 1): ("cf87419f48a56aea", "ffbf115c997edd92"),
    }

    @pytest.mark.parametrize("longtail", [False, True])
    def test_default_split_is_pinned(self, longtail):
        cfg = ExperimentConfig(longtail_unlabeled=longtail)
        domains = build_domains(cfg)
        for seed in (0, 1):
            sources, split_hash = split_sources(cfg, domains, seed, heldout=0)
            digest = hashlib.sha256()
            for source in sources:
                for arr in (source.labeled_indices, source.unlabeled_indices, source.labels):
                    digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
            assert (split_hash, digest.hexdigest()[:16]) == self.PINNED[longtail, seed]


class TestWorldPin:
    # world shape -> digest of each domain's features and labels from build_domains
    PINNED = {
        "default": ("4b8181d1669cec7e", "f4071463aec0012d", "c2b8883372fb6c38",
                    "3f002141377f19db"),
        "wide-classes": ("785d4a2883d305d5", "0fe382cb46939990", "7f02cd566c0af3ed",
                         "54ee896c22780af6"),
    }
    SHAPES = {"default": {}, "wide-classes": dict(num_classes=40, feature_dim=64, m_l=2)}

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_world_is_pinned(self, shape):
        digests = []
        for domain in build_domains(ExperimentConfig(**self.SHAPES[shape])):
            digest = hashlib.sha256(np.ascontiguousarray(domain.features).tobytes())
            digest.update(np.ascontiguousarray(domain.labels, dtype=np.int64).tobytes())
            digests.append(digest.hexdigest()[:16])
        assert tuple(digests) == self.PINNED[shape]


class TestSweep:
    def test_degenerate_sweep_matches_run_suite(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        table = sweep(cfg, "alpha", [1.5])
        records = run_suite(replace(cfg, out_dir=str(tmp_path / "direct")))
        agg = suite_aggregate(cfg, records)
        assert table[0][0] == 1.5
        assert table[0][1] == pytest.approx(agg["mean_accuracy"], abs=1e-12)

    def test_cardinality(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        table = sweep(cfg, "alpha", [1.0, 1.5, 2.0, 3.0])
        assert len(table) == 4
        assert [row[0] for row in table] == [1.0, 1.5, 2.0, 3.0]

    def test_ml_axis_uses_integers(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        table = sweep(cfg, "ml", [3, 4])
        assert [row[0] for row in table] == [3.0, 4.0]

    def test_illegal_value_rejected_before_running(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        with pytest.raises(ConfigError):
            sweep(cfg, "alpha", [1.0, -0.5])
        assert not (tmp_path / "out" / "alpha_1").exists()

    def test_values_sharing_a_directory_rejected_before_running(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        with pytest.raises(ConfigError, match="gamma_10"):
            sweep(cfg, "gamma", [1.0, 10.0, 10.0])
        assert not (tmp_path / "out").exists()

    def test_unknown_axis_rejected(self, tmp_path):
        cfg = fast_config(tmp_path)
        with pytest.raises(ConfigError):
            sweep(cfg, "tau", [0.9])

    def test_plot_data_emitted_and_parses(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0)
        table = sweep(cfg, "gamma", [1.0, 10.0])
        rows = np.loadtxt(tmp_path / "out" / "sweep_gamma.dat", ndmin=2)
        assert [tuple(r) for r in rows] == [tuple(r) for r in table]


class TestAblation:
    def test_three_rows_with_shared_splits(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0, 1), held_out=0)
        rows = ablation(cfg)
        assert [r[0] for r in rows] == ["baseline", "+marginal_entropy",
                                        "+alpha_marginal_entropy"]
        assert rows[0][3] == 0.0
        assert (tmp_path / "out" / "ablation.csv").exists()

    def test_shannon_row_equals_alpha_row_at_alpha_one(self, tmp_path):
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0, alpha=1.0)
        rows = ablation(cfg)
        assert rows[1][1] == pytest.approx(rows[2][1], abs=1e-15)

    def test_variant_with_a_different_split_rejected(self, tmp_path, monkeypatch):
        original = experiments.split_sources

        def skewed(config, domains, seed, heldout):
            sources, split_hash = original(config, domains, seed, heldout)
            return sources, (split_hash + "x" if config.alpha == 1.0 else split_hash)

        monkeypatch.setattr(experiments, "split_sources", skewed)
        with pytest.raises(RuntimeError, match=r"\+marginal_entropy saw a different data split"):
            ablation(fast_config(tmp_path, seeds=(0,), held_out=0, jobs=1))


class TestPlotData:
    def test_single_row_round_trip(self, tmp_path):
        path = tmp_path / "t.dat"
        emit_plot_data([(1.0, 0.53219, 0.0123)], path)
        text = path.read_text().splitlines()
        assert len(text) == 2 and text[0].startswith("#")
        assert np.loadtxt(path, ndmin=2).tolist() == [[1.0, 0.53219, 0.0123]]

    def test_exact_float_round_trip(self, tmp_path):
        path = tmp_path / "t.dat"
        vals = (np.pi, 1 / 3, 2e-17)
        emit_plot_data([vals], path)
        assert tuple(np.loadtxt(path, ndmin=2)[0]) == vals

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([], tmp_path / "t.dat")


class TestConfig:
    def test_hash_stable_under_field_reordering(self):
        a = ExperimentConfig(alpha=2.0, gamma=5.0)
        b = ExperimentConfig(gamma=5.0, alpha=2.0)
        assert a.hash() == b.hash()

    def test_hash_ignores_output_location(self):
        a = ExperimentConfig(out_dir="x")
        b = ExperimentConfig(out_dir="y", jobs=4)
        assert a.hash() == b.hash()

    def test_hash_sensitive_to_values(self):
        assert ExperimentConfig(alpha=1.5).hash() != ExperimentConfig(alpha=2.0).hash()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(held_out=7)
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma=0.2)
        with pytest.raises(ConfigError, match="out_dir"):
            ExperimentConfig(out_dir=" ")

    def test_large_jobs_accepted_by_validation(self):
        # validation only: no pool is started
        assert ExperimentConfig(jobs=10**6).jobs == 10**6

    @pytest.mark.parametrize("override,match", [
        ({"num_classes": 1}, "2 classes"),
        ({"m_l": 100}, "head class"),
        # K=5, m_l=5: head count 11 + 1 spare fits in 12 rows per class
        ({"n_per_class": 12}, "unlabeled pool"),
        # bounded before any array of num_classes entries is made
        ({"num_classes": 10**9}, "float64 values"),
    ])
    def test_infeasible_split_rejected(self, override, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**override)

    def test_balanced_pool_boundary(self):
        # 30 rows per class leave exactly 5x the labeled set unlabeled
        assert ExperimentConfig(n_per_class=30).n_per_class == 30
        with pytest.raises(ConfigError, match="unlabeled pool"):
            ExperimentConfig(n_per_class=29)

    @example(k=5, m_l=5, gamma=10.0, n_per_class=30, longtail=False)
    @example(k=5, m_l=5, gamma=10.0, n_per_class=29, longtail=False)
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 6), m_l=st.integers(1, 12), n_per_class=st.integers(2, 60),
           gamma=st.sampled_from([1.0, 2.5, 10.0, 50.0]) | st.floats(1.0, 100.0),
           longtail=st.booleans())
    def test_feasibility_mirrors_split(self, k, m_l, gamma, n_per_class, longtail):
        """The config rejects exactly the long-tail protocols the split rejects,
        with the split's message unless the m_l guard fires first."""
        overrides = dict(num_classes=k, m_l=m_l, gamma=gamma, n_per_class=n_per_class,
                         longtail_unlabeled=longtail, num_domains=3, feature_dim=2)
        # build_domains reads only the world's fields, so any m_l and gamma do
        world = build_domains(SimpleNamespace(**{**asdict(ExperimentConfig()), **overrides}))
        try:
            split_labeled_unlabeled(world[0], LongTailSpec(k, m_l, gamma), seed=0,
                                    longtail_unlabeled=longtail)
            split_error = None
        except ValueError as exc:
            split_error = str(exc)
        try:
            ExperimentConfig(**overrides)
            config_error = None
        except ConfigError as exc:
            config_error = str(exc)
        assert (config_error is None) == (split_error is None)
        if m_l + 1 <= n_per_class:
            assert config_error == split_error

    def test_longtail_unlabeled_skips_the_balanced_pool_check(self):
        assert ExperimentConfig(n_per_class=12, longtail_unlabeled=True).n_per_class == 12

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "alpha = 2.0\n"
            "gamma=20\n"
            "seeds = 0,1,2\n"
            "held_out = all\n"
            "hidden = 32,16\n"
            "longtail_unlabeled = true\n"
        )
        cfg = ExperimentConfig(**parse_config_file(path))
        assert cfg.alpha == 2.0 and cfg.gamma == 20.0
        assert cfg.seeds == (0, 1, 2) and cfg.held_out is None
        assert cfg.hidden == (32, 16) and cfg.longtail_unlabeled is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("alpha 2.0\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("alpha = 2.0\n")
        cfg = ExperimentConfig(**{**parse_config_file(path), "alpha": 3.0})
        assert cfg.alpha == 3.0
