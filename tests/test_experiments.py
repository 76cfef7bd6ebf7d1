"""Suite orchestration: run records, sweeps, ablation, persistence."""

import concurrent.futures
import csv
import ctypes
import hashlib
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
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
    run_suites,
    split_sources,
    suite_aggregate,
    sweep,
)
from ltinfomax.trainer import _pool_sources, train

# small but real: 3 domains, K=3, quick training
FAST = dict(num_domains=3, num_classes=3, feature_dim=6, n_per_class=25,
            epochs=2, hidden=(8,), unlabeled_batch=32, m_l=3)


def fast_config(tmp_path, **kw):
    merged = {"out_dir": str(tmp_path / "out"), **FAST, **kw}
    return ExperimentConfig(**merged)


class TestRunSuite:
    def test_serial_run_loads_neither_the_pool_nor_numpy_ma(self):
        """A jobs=1 suite imports no process pool, and its data path no
        numpy.ma (np.unique imports it)."""
        src = Path(experiments.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
        code = ("import sys, ltinfomax\n"
                "cfg = ltinfomax.ExperimentConfig(num_domains=3, num_classes=3, feature_dim=4,"
                " n_per_class=25, m_l=3, epochs=1, hidden=(8,), seeds=(0,), held_out=0)\n"
                "ltinfomax.run_suite(cfg, write=False)\n"
                "print(sorted({'numpy.ma', 'concurrent.futures.process'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

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

    def test_spawned_pool_matches_serial(self, tmp_path):
        """Under spawn each worker unpickles the world; its records equal the
        serial ones apart from wall_s."""
        cfg = fast_config(tmp_path, seeds=(0, 1), held_out=0, epochs=1)
        serial = run_suite(cfg, write=False)
        method = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            spawned = run_suite(replace(cfg, jobs=2), write=False)
        finally:
            multiprocessing.set_start_method(method, force=True)
        assert [replace(r, wall_s=0.0) for r in spawned] == [replace(r, wall_s=0.0)
                                                            for r in serial]

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

    def test_run_json_epoch_and_final_key_order(self, tmp_path):
        run_suite(fast_config(tmp_path, seeds=(0,), held_out=0))
        log = json.loads((tmp_path / "out" / "run_s0_h0.json").read_text())
        assert len(log["epochs"]) == FAST["epochs"]
        for epoch in log["epochs"]:
            assert list(epoch) == ["neg_marginal_entropy", "labeled_ce", "pseudo_ce", "total",
                                   "accepted_fraction", "epoch"]
        assert list(log["final"]) == ["accuracy", "per_class_accuracy", "confusion",
                                      "predicted_marginal"]


class TestSharedRunner:
    """run_suites, and so sweep and ablation, open one runner: one world and,
    with jobs > 1, one pool for all their suites."""

    @staticmethod
    def _run(entry, cfg):
        if entry == "sweep":
            return sweep(cfg, "gamma", [1.0, 10.0])
        if entry == "run_suites":
            configs = [replace(cfg, alpha=a, out_dir=str(Path(cfg.out_dir) / str(a)))
                       for a in (1.0, 2.0)]
            return [[replace(r, wall_s=0.0) for r in records] for records in run_suites(configs)]
        return ablation(cfg)

    @pytest.mark.parametrize("entry", ["sweep", "ablation", "run_suites"])
    def test_one_pool_and_one_world_with_the_serial_records(self, tmp_path, monkeypatch,
                                                             entry):
        pools, worlds, suites = [], [], []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
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

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, max_workers, **kwargs):
                pools.append(max_workers)
                # never start more than the two workers the suite needs
                super().__init__(*args, max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        records = run_suite(fast_config(tmp_path, seeds=(0, 1), held_out=0, jobs=8))
        assert pools == [2] and len(records) == 2

    def test_suites_of_another_world_rejected_before_any_build(self, tmp_path, monkeypatch):
        builds = []
        monkeypatch.setattr(experiments, "build_domains", builds.append)
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0, jobs=2)
        other = replace(cfg, data_seed=8, n_per_class=30, gamma=2.0,
                        out_dir=str(tmp_path / "other"))
        with pytest.raises(ConfigError, match=r"differ: n_per_class, data_seed$"):
            run_suites([cfg, replace(cfg, gamma=2.0), other])
        assert builds == [] and not (tmp_path / "out").exists()
        assert not (tmp_path / "other").exists()

    def test_suites_sharing_an_out_dir_rejected_before_any_build(self, tmp_path, monkeypatch):
        """Two distinct suites would overwrite each other's files in one directory;
        unwritten, they may share it."""
        builds = []
        monkeypatch.setattr(experiments, "build_domains", builds.append)
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0, alpha=1.0)
        same_dir = replace(cfg, alpha=2.0, out_dir=str(tmp_path / "x" / ".." / "out"))
        with pytest.raises(ConfigError, match=re.escape(str((tmp_path / "out").resolve()))):
            run_suites([cfg, same_dir])
        assert builds == [] and not (tmp_path / "out").exists()
        monkeypatch.undo()
        first, second = run_suites([cfg, same_dir], write=False)
        assert first != second and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_config_runs_once_and_returns_its_records_again(self, tmp_path,
                                                                     monkeypatch, jobs):
        suites, original = [], experiments.run_suite
        monkeypatch.setattr(experiments, "run_suite",
                            lambda c, *a, **kw: suites.append(c) or original(c, *a, **kw))
        a = fast_config(tmp_path, seeds=(0,), held_out=0, jobs=jobs)
        b = replace(a, alpha=2.0, out_dir=str(tmp_path / "b"))
        got = run_suites([a, b, a], write=False)
        assert suites == [a, b] and len(got) == 3 and got[2] == got[0] != got[1]

    def test_config_listed_twice_to_write_rejected_before_any_build(self, tmp_path,
                                                                   monkeypatch):
        """Written twice, one config would write its files over themselves: it
        shares its own out_dir, and is refused as two suites sharing one are."""
        builds = []
        monkeypatch.setattr(experiments, "build_domains", builds.append)
        a = fast_config(tmp_path, seeds=(0,), held_out=0)
        with pytest.raises(ConfigError, match=re.escape(str((tmp_path / "out").resolve()))):
            run_suites([a, a])
        assert builds == [] and not (tmp_path / "out").exists()

    def test_no_suites_no_world(self, monkeypatch):
        monkeypatch.setattr(experiments, "build_domains", None)
        assert run_suites([]) == []


def worker_threads():
    """(openblas_threads(), this process's OS thread count or None)."""
    tasks = Path("/proc/self/task")
    return openblas_threads(), len(os.listdir(tasks)) if tasks.exists() else None


def openblas_threads():
    """The thread count of each OpenBLAS this process has loaded, read through
    the library's own get_num_threads; empty where none is loaded."""
    maps = Path("/proc/self/maps")
    text = maps.read_text() if maps.exists() else ""
    counts = []
    for path in sorted(set(re.findall(r"(/\S*/[^/\s]*openblas[^/\s]*\.so[^/\s]*)$", text, re.M))):
        lib = ctypes.CDLL(path)
        getters = [n for n in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                               "openblas_get_num_threads") if hasattr(lib, n)]
        counts += [getattr(lib, getters[0])()] if getters else []
    return counts


class TestPoolBlasThreads:
    """Pool workers run OpenBLAS on their share of the CPUs; the caller's
    BLAS is left as it is."""

    @pytest.mark.skipif(not openblas_threads(), reason="no OpenBLAS loaded")
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs forked workers")
    @pytest.mark.parametrize("cap", [1, 1000])
    def test_forked_worker_is_capped_and_never_raised(self, cap):
        caller = openblas_threads()
        world = build_domains(ExperimentConfig(**FAST))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork"),
                initializer=experiments._init_worker, initargs=(world, cap)) as pool:
            worker, os_threads = pool.submit(worker_threads).result(timeout=60)
        assert worker == [min(cap, n) for n in caller]
        assert openblas_threads() == caller
        # no BLAS thread is left idling (and spinning) in the worker
        assert os_threads in (1, None)

    @pytest.mark.skipif(not openblas_threads(), reason="no OpenBLAS loaded")
    def test_caller_threads_unchanged_by_a_pool(self, tmp_path):
        caller = openblas_threads()
        cfg = fast_config(tmp_path, seeds=(0, 1), held_out=0, epochs=1, jobs=2)
        run_suites([cfg, replace(cfg, alpha=1.0)], write=False)
        assert openblas_threads() == caller

    def test_wide_pool_matches_serial(self, tmp_path):
        """At the wide shape the products are large enough for BLAS to thread,
        and the capped workers' records equal the serial ones apart from wall_s."""
        cfg = ExperimentConfig(num_classes=40, feature_dim=64, hidden=(256, 256), m_l=2,
                               epochs=1, seeds=(0, 1), held_out=0, out_dir=str(tmp_path))
        serial = run_suite(cfg, write=False)
        pooled = run_suite(replace(cfg, jobs=2), write=False)
        assert [replace(r, wall_s=0.0) for r in pooled] == [replace(r, wall_s=0.0)
                                                           for r in serial]


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
        world = build_domains(cfg)
        a = execute_run(cfg, 0, 0, world)
        b = execute_run(cfg, 1, 0, world)
        assert a.split_hash != b.split_hash

    def test_divergence_on_the_target_names_the_run(self, tmp_path, monkeypatch):
        """Parameters that overflow only at evaluation: the check is evaluate's own."""
        cfg = fast_config(tmp_path)
        real = experiments.evaluate

        def overflowing(model, world, domain):
            model.flat[...] = 1e300
            return real(model, world, domain)

        monkeypatch.setattr(experiments, "evaluate", overflowing)
        with pytest.raises(DivergenceError) as info:
            execute_run(cfg, 3, 2, build_domains(cfg))
        assert str(info.value) == ("non-finite logits on the target domain "
                                   "(seed 3, held-out domain 2)")


class TestSplitPin:
    # (longtail_unlabeled, seed) -> (split_hash, digest of every source's domain-local
    # labeled and unlabeled ids and its domain's labels); split_hash alone misses the
    # thinned unlabeled pool, and hashes a thinned split like the unthinned one
    PINNED = {
        (False, 0): ("32c954e7ee61e09d", "ba0428a0e7f8700e"),
        (False, 1): ("d2ee72508fe8e635", "b32001767c7ced7b"),
        (True, 0): ("32c954e7ee61e09d", "93e32b95a8fd4304"),
        (True, 1): ("d2ee72508fe8e635", "4b0b4275a6180321"),
    }

    @pytest.mark.parametrize("longtail", [False, True])
    def test_default_split_is_pinned(self, longtail):
        cfg = ExperimentConfig(longtail_unlabeled=longtail)
        world = build_domains(cfg)
        for seed in (0, 1):
            sources, split_hash = split_sources(cfg, world, seed, heldout=0)
            digest = hashlib.sha256()
            for source in sources:
                labels = world.domain(source.domain)[1]
                for arr in (source.labeled_indices, source.unlabeled_indices, labels):
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
        config = ExperimentConfig(**self.SHAPES[shape])
        world, digests = build_domains(config), []
        for features, labels in map(world.domain, range(config.num_domains)):
            digest = hashlib.sha256(np.ascontiguousarray(features).tobytes())
            digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
            digests.append(digest.hexdigest()[:16])
        assert tuple(digests) == self.PINNED[shape]


class TestWorldBuild:
    def test_domains_adopt_their_rows_without_a_copy(self):
        """The world's rows are built in one buffer, each domain's drawn into its
        block, and the World adopts it, so the build holds at most about one
        domain's rows beyond the world it keeps (a copy per domain peaks at
        twice that)."""
        config = ExperimentConfig(**TestWorldPin.SHAPES["wide-classes"])
        build_domains(config)  # warm: first-call allocations are not the build's
        tracemalloc.start()
        try:
            world = build_domains(config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained < 1.5 * world.domain(0)[0].nbytes


class TestCopyFreeRun:
    WIDE = dict(num_classes=40, feature_dim=64, hidden=(256, 256), m_l=2, epochs=1,
                held_out=0, seeds=(0,))

    def test_pooled_rows_are_the_world(self):
        """train gathers its batches from the world's own buffer, by row ids that
        pick out each source's labeled and unlabeled rows in source order."""
        config = ExperimentConfig()
        world = build_domains(config)
        sources, _ = split_sources(config, world, seed=0, heldout=0)
        rows, lab_ids, lab_y, unl_ids, k = _pool_sources(sources)
        assert k == config.num_classes and rows is world.features
        domains = [world.domain(d.domain) for d in sources]
        np.testing.assert_array_equal(rows[lab_ids], np.concatenate(
            [x[d.labeled_indices] for (x, _), d in zip(domains, sources)]))
        np.testing.assert_array_equal(lab_y, np.concatenate(
            [y[d.labeled_indices] for (_, y), d in zip(domains, sources)]))
        np.testing.assert_array_equal(rows[unl_ids], np.concatenate(
            [x[d.unlabeled_indices] for (x, _), d in zip(domains, sources)]))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_thinned_split_pools_the_world_rows_and_hashes_like_the_unthinned(self, seed):
        """A longtail_unlabeled run's pooled rows are the world's, and its labeled
        draw, and so its split_hash, is the unthinned run's."""
        config = ExperimentConfig()
        world = build_domains(config)
        full, full_hash = split_sources(config, world, seed, heldout=0)
        thinned, thinned_hash = split_sources(replace(config, longtail_unlabeled=True), world,
                                              seed, heldout=0)
        assert np.shares_memory(_pool_sources(thinned)[0], world.features)
        assert thinned_hash == full_hash
        assert (sum(len(d.unlabeled_indices) for d in thinned)
                < sum(len(d.unlabeled_indices) for d in full))

    def test_splits_of_two_worlds_are_not_pooled(self):
        config = ExperimentConfig()
        sources = [split_sources(config, build_domains(config), 0, heldout=0)[0][0]
                   for _ in range(2)]
        with pytest.raises(ValueError, match="share one world"):
            _pool_sources(sources)

    def test_pickled_world_is_read_only_and_trains_the_same_bits(self):
        """A pool worker under spawn or forkserver unpickles the world: the copy is
        rebuilt through World's constructor, so it is read-only as well."""
        config = ExperimentConfig(epochs=2)
        world = build_domains(config)
        copy = pickle.loads(pickle.dumps(world))
        np.testing.assert_array_equal(copy.features, world.features)
        np.testing.assert_array_equal(copy.labels, world.labels)
        np.testing.assert_array_equal(copy.bounds, world.bounds)
        assert not world.features.flags.writeable and not copy.features.flags.writeable
        assert not copy.labels.flags.writeable
        models = [train(config, split_sources(config, w, 0, heldout=1)[0], seed=0)[0]
                  for w in (world, copy)]
        assert np.array_equal(models[0].flat, models[1].flat)

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_unpickling_a_wide_world_copies_its_rows_once(self, protocol):
        """A worker started by spawn or forkserver unpickles the world: the peak
        stays within a quarter of the rows' bytes above them, and numpy refuses
        to make the unpickled rows writeable again."""
        world = build_domains(ExperimentConfig(**self.WIDE))
        data = pickle.dumps(world, protocol=protocol)
        pickle.loads(data)  # warm: first-call allocations are not the copy's
        tracemalloc.start()
        try:
            copy = pickle.loads(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * world.features.nbytes, (peak, world.features.nbytes)
        np.testing.assert_array_equal(copy.features, world.features)
        with pytest.raises(ValueError):
            copy.features.flags.writeable = True

    def test_wide_run_holds_less_than_its_unlabeled_rows(self):
        """Beyond four model-sized arrays (the model, velocity, grads and the
        update's transient product), a wide run's training peak stays below the
        bytes of the unlabeled rows it trains on (2.23 MiB): a run that copies
        its pool holds them all at once."""
        config = ExperimentConfig(**self.WIDE)
        world = build_domains(config)
        sources, _ = split_sources(config, world, seed=0, heldout=0)
        train(config, sources, seed=0)  # warm: first-call allocations are not the run's
        tracemalloc.start()
        try:
            model, _ = train(config, sources, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unlabeled = sum(len(d.unlabeled_indices) for d in sources) * config.feature_dim * 8
        assert peak - 4 * model.flat.nbytes < unlabeled, (peak, unlabeled)

    def test_wide_training_peaks_below_five_and_a_half_models(self):
        """A step holds the model, velocity and grads, the update's transient
        product and the forward pass's activations: a warm wide train peaks at
        5.22 model.flat.nbytes. A TrainState that also keeps a model-shaped
        scratch buffer for the product peaks at 6.02."""
        config = ExperimentConfig(**self.WIDE)
        sources, _ = split_sources(config, build_domains(config), seed=1, heldout=0)
        train(config, sources, seed=0)  # warm: first-call allocations are not the run's
        tracemalloc.start()
        try:
            model, _ = train(config, sources, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * model.flat.nbytes, (peak, model.flat.nbytes)

    def test_wide_run_peaks_in_training_not_in_evaluate(self):
        """train returns only the model and its history, so the optimizer's
        velocity and grads are gone before execute_run calls evaluate,
        whose blocks and (N, K) logits fit in the room they leave: a run peaks
        within 3% of its training alone. A run that holds the whole TrainState
        through evaluate peaks 8.8% above it."""
        config = ExperimentConfig(**self.WIDE)
        world = build_domains(config)
        sources, _ = split_sources(config, world, seed=1, heldout=0)
        execute_run(config, 0, 0, world)  # warm: first-call allocations are not the run's
        peaks = []
        for phase in (lambda: train(config, sources, seed=1),
                      lambda: execute_run(config, 1, 0, world)):
            tracemalloc.start()
            try:
                phase()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        train_peak, run_peak = peaks
        assert run_peak <= 1.03 * train_peak, (run_peak, train_peak)


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_alpha_one_trains_the_shannon_suite_once(self, tmp_path, monkeypatch, jobs):
        """At alpha = 1 the Shannon and alpha variants are one config apart from
        out_dir: it trains once, serially or on the pool, and both directories
        hold its records."""
        runs, original = [], experiments.execute_run

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                runs.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(experiments, "execute_run",
                            lambda *args: runs.append(args) or original(*args))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        ablation(fast_config(tmp_path, seeds=(0,), held_out=0, alpha=1.0, jobs=jobs))
        assert len(runs) == 2
        out = tmp_path / "out"
        assert (out / "plus_marginal_entropy" / "runs.csv").read_bytes() == \
            (out / "plus_alpha_marginal_entropy" / "runs.csv").read_bytes()

    def test_variants_run_at_the_configured_marginal_weight(self, tmp_path, monkeypatch):
        """The Shannon and alpha variants' records are the suites of the config
        at alpha 1 and as given, lambda = 0.25 included."""
        suites, original = [], experiments.run_suite

        def recording_suite(config, *args, **kwargs):
            suites.append(original(config, *args, **kwargs))
            return suites[-1]

        monkeypatch.setattr(experiments, "run_suite", recording_suite)
        cfg = fast_config(tmp_path, seeds=(0,), held_out=0, marginal_weight=0.25)
        ablation(cfg)
        for i, config in ((1, replace(cfg, alpha=1.0)), (2, cfg)):
            direct = original(replace(config, out_dir=str(tmp_path / f"direct{i}")))
            assert [replace(r, wall_s=0.0) for r in suites[i]] == \
                [replace(r, wall_s=0.0) for r in direct]

    def test_zero_marginal_weight_rejected_before_any_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "build_domains", None)
        with pytest.raises(ConfigError, match="marginal_weight"):
            ablation(fast_config(tmp_path, marginal_weight=0.0))
        assert not (tmp_path / "out").exists()

    def test_variant_with_a_different_split_rejected(self, tmp_path, monkeypatch):
        original = experiments.split_sources

        def skewed(config, world, seed, heldout):
            sources, split_hash = original(config, world, seed, heldout)
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
            split_labeled_unlabeled(world, 0, LongTailSpec(k, m_l, gamma), seed=0,
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

    def test_byte_order_mark_ignored(self, tmp_path):
        """Editors that save "UTF-8 with BOM" put U+FEFF before the first key."""
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xef\xbb\xbfalpha = 2.0\n")
        assert parse_config_file(path) == {"alpha": 2.0}

    @pytest.mark.parametrize("bom, offset", [(b"", 10000), (b"\xef\xbb\xbf", 10003)],
                             ids=["plain", "bom"])
    def test_bad_byte_offset_past_the_first_chunk(self, tmp_path, bom, offset):
        """The offset counts from the file's first byte, a BOM included, even
        past the 8 KiB a text reader decodes at a time."""
        path = tmp_path / "exp.cfg"
        path.write_bytes(bom + b"#" + b"x" * 9998 + b"\n\xff")
        with pytest.raises(ConfigError, match=rf"invalid start byte at byte {offset}\)$"):
            parse_config_file(path)

    def test_lines_end_only_at_newlines(self, tmp_path):
        """\\n, \\r\\n and \\r end a line; a form feed or U+2028 does not, so
        the line numbers in messages are an editor's."""
        path = tmp_path / "exp.cfg"
        path.write_bytes("# a\x0c b\u2028 c\r\n# d\rbogus = 1\n".encode())
        with pytest.raises(ConfigError, match=r"exp\.cfg:3: unknown config key: 'bogus'"):
            parse_config_file(path)
