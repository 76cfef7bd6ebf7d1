"""Command-line interface: subcommands, overrides, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ltinfomax
from ltinfomax.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, main
from ltinfomax.trainer import DIVERGED_LOSS

FAST_ARGS = [
    "--set", "num_domains=3", "--set", "num_classes=3", "--set", "feature_dim=6",
    "--set", "n_per_class=25", "--set", "epochs=2", "--set", "hidden=8",
    "--set", "unlabeled_batch=32", "--set", "m_l=3",
]


def run_cli(tmp_path, *extra, out="out"):
    argv = ["--out", str(tmp_path / out)] + FAST_ARGS + list(extra)
    return main(argv)


class TestRunCommand:
    def test_basic_run(self, tmp_path, capsys):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0", "run")
        assert code == EXIT_OK
        assert (tmp_path / "out" / "runs.csv").exists()
        assert "mean accuracy" in capsys.readouterr().out

    def test_seed_list_rotation_counts(self, tmp_path):
        run_cli(tmp_path, "--seed-list", "0,1", "--held-out", "all", "run")
        with open(tmp_path / "out" / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 2 seeds x 3 domains

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("alpha = 2.0\nseeds = 0\nheld_out = 0\n")
        code = run_cli(tmp_path, "--config", str(cfg_file), "--set", "alpha=1.5", "run")
        assert code == EXIT_OK
        with open(tmp_path / "out" / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["alpha"]) == 1.5

    def test_jobs_flag(self, tmp_path):
        code = run_cli(tmp_path, "--seed-list", "0,1", "--held-out", "0",
                       "--jobs", "2", "run")
        assert code == EXIT_OK


class TestSweepCommand:
    def test_alpha_sweep(self, tmp_path, capsys):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "sweep", "--axis", "alpha", "--values", "1,2")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert (tmp_path / "out" / "sweep_alpha.dat").exists()
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 2

    def test_bad_value_exit_code(self, tmp_path):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "sweep", "--axis", "alpha", "--values", "1,-2")
        assert code == EXIT_CONFIG


class TestAblateCommand:
    def test_ablation_runs(self, tmp_path, capsys):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0", "ablate")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "baseline" in out and "+alpha_marginal_entropy" in out
        assert (tmp_path / "out" / "ablation.csv").exists()


# one fault per objective and trainer rule, then configs with several: the
# line each exits 2 with, and so which fault is reported first
RULE_MESSAGES = [
    (["alpha=0"], "alpha must be > 0, got 0.0"),
    (["tau=0"], "tau must be > 0, got 0.0"),
    (["marginal_weight=-1"], "marginal_weight must be >= 0"),
    (["learning_rate=0"], "learning_rate must be > 0"),
    (["epochs=-1"], "epochs must be >= 0"),
    (["labeled_batch=0"], "labeled_batch and unlabeled_batch must be >= 1"),
    (["hidden=4,0"], "every hidden width must be >= 1, got (4, 0)"),
    # several faults: the objective's rules first, then the trainer's in order
    (["hidden=0", "learning_rate=0", "tau=0", "alpha=0"], "alpha must be > 0, got 0.0"),
    (["marginal_weight=-1", "learning_rate=0"], "marginal_weight must be >= 0"),
    (["hidden=0", "epochs=-1", "learning_rate=0"], "learning_rate must be > 0"),
    (["epochs=-1", "labeled_batch=0", "hidden=4,0"], "epochs must be >= 0"),
    # finiteness and the class count are checked before them
    (["alpha=nan", "tau=0"], "alpha must be finite, got nan"),
    (["hidden=0", "num_classes=1"], "need at least 2 classes"),
]


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert main(["--config", str(cfg), "run"]) == EXIT_CONFIG

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff")
        assert run_cli(tmp_path, "--config", str(cfg), "run") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg) in err
        assert err.count("\n") == 1

    def test_bad_config_value(self, tmp_path):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "--set", "alpha=-3", "run")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override", ["unlabeled_batch=0", "hidden=0",
                                          "labeled_batch=0", "learning_rate=0"])
    def test_bad_trainer_value(self, tmp_path, override):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "--set", override, "run")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("overrides, message", RULE_MESSAGES,
                             ids=[" ".join(o) for o, _ in RULE_MESSAGES])
    def test_objective_and_trainer_rule_messages(self, tmp_path, capsys, overrides, message):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       *(arg for kv in overrides for arg in ("--set", kv)), "run")
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, tmp_path, jobs):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "--jobs", jobs, "run")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        "num_classes=1", "m_l=100", "n_per_class=10",
        # a run trains on two source domains and tests on the held-out one
        "num_domains=2",
        # non-finite floats: NaN slips past every `x < bound` check
        "gamma=nan", "marginal_weight=nan",
        # malformed text, and values only a spec or a field rule rejects
        "epochs=abc", "hidden=64,x", "held_out=x", "feature_dim=0", "feature_dim=-3",
        "data_seed=-1",
        # removed estimator options, world scales and augmentation strengths
        # are unknown keys, whatever the value
        "include_strong_in_marginal=1", "marginal_momentum=0.5", "noise_scale=1.5",
        "sigma_weak=nan", "noise_scale=nan", "centroid_scale=nan", "rotation_strength=nan",
        "shift_scale=inf", "sigma_weak=0.6", "dropout_frac=1.5", "noise_scale=-1",
        "rotation_strength=-1",
        # runs too large to allocate
        "feature_dim=100000000000", "hidden=1000000000", "labeled_batch=100000000000"])
    def test_infeasible_data_config(self, tmp_path, capsys, override):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "--set", override, "run")
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--seed-list", "a,b", "run"],
        ["--seed-list", "-1", "run"],
        # a repeated seed would train and write the same run twice
        ["--seed-list", "0,0", "run"],
        ["--held-out", "x", "run"],
        ["--jobs", "x", "run"],
        ["--set", "m_l=10000000000000000000", "run"],
        ["sweep", "--axis", "alpha", "--values", "1,x"],
        # values that would write into one <axis>_<value:g> directory
        ["sweep", "--axis", "gamma", "--values", "10,10"],
        ["sweep", "--axis", "alpha", "--values", "1.0000001,1.0000002"],
        # an empty output path would be the working directory
        ["--set", "out_dir=", "run"],
        ["--out", "", "run"],
        # a --set without "=", and a sweep with no values
        ["--set", "foo", "run"],
        ["sweep", "--axis", "gamma", "--values", ","],
    ], ids=" ".join)
    def test_bad_flag_value(self, tmp_path, capsys, monkeypatch, args):
        """Global flags and sweep values parse as the --set of their field."""
        monkeypatch.chdir(tmp_path)
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0", *args)
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists() and not (tmp_path / "runs.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_evaluate_too_large(self, tmp_path, capsys):
        """30000 held-out rows x 3000 classes: evaluate's (N, K) logits alone
        would take 0.67 GiB, and the confusion matrix 72 MB more; the world and
        network are small."""
        sets = ["num_classes=3000", "n_per_class=10", "feature_dim=1", "m_l=1", "gamma=1"]
        code = main(["--out", str(tmp_path / "out"), "--seed-list", "0", "--held-out", "0",
                     *(arg for kv in sets for arg in ("--set", kv)), "run"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_model_buffers_too_large(self, tmp_path, capsys):
        """hidden=(5500, 5500): the model, velocity, grads and the update's
        transient product hold 1.21e8 values between them, though the network
        alone holds 3.04e7."""
        code = main(["--out", str(tmp_path / "out"), "--seed-list", "0", "--held-out", "0",
                     "--set", "hidden=5500,5500", "run"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "float64 values" in err and err.count("\n") == 1

    def test_infeasible_sweep_value_before_any_run(self, tmp_path):
        code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "0",
                       "sweep", "--axis", "ml", "--values", "1,100")
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_divergence(self, tmp_path, capsys):
        """With every domain held out in turn, the line says which run diverged."""
        with np.errstate(all="ignore"):
            code = run_cli(tmp_path, "--seed-list", "0", "--held-out", "all",
                           "--set", "learning_rate=1e150", "run")
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("run diverged: at epoch 0: ")
        assert err.endswith(" (seed 0, held-out domain 0)\n") and err.count("seed") == 1
        assert err.count("\n") == 1

    @staticmethod
    def _diverge_in_subprocess(tmp_path, *args):
        """Run the CLI with warnings as errors; the timeout fails a hang."""
        src = Path(ltinfomax.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "ltinfomax.cli",
                "--out", str(tmp_path / "out"), "--set", "learning_rate=50", *args]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DIVERGENCE, proc.stderr
        assert proc.stderr.startswith("run diverged: at epoch")
        assert proc.stderr.count("\n") == 1

    def test_divergence_prints_one_line(self, tmp_path):
        """No numpy overflow warning comes first, even when warnings are errors."""
        self._diverge_in_subprocess(tmp_path, "--seed-list", "0", "--held-out", "0", "run")

    @pytest.mark.parametrize("seed", [1, 2, 4, 5, 6, 7])
    def test_huge_but_finite_loss_is_a_divergence(self, tmp_path, seed):
        """At these seeds the parameters stay finite and every prediction falls
        in one class; the epoch-mean loss bound catches it."""
        self._diverge_in_subprocess(tmp_path, "--seed-list", str(seed), "--held-out", "0", "run")

    @pytest.mark.parametrize("command", [["sweep", "--axis", "gamma", "--values", "1,10"],
                                         ["ablate"]], ids=["sweep", "ablate"])
    def test_divergence_in_the_shared_pool_prints_one_line(self, tmp_path, command):
        """A worker's DivergenceError cancels the shared pool's pending runs."""
        self._diverge_in_subprocess(tmp_path, "--jobs", "2", "--seed-list", "0,1", *command)

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["--out", str(blocker / "nested"), "--seed-list", "0",
                     "--held-out", "0", "run"])
        assert code == EXIT_IO


class TestAnyBoundedConfigRuns:
    @example(num_domains=2, num_classes=3, feature_dim=4, n_per_class=30, m_l=2, gamma=10.0,
             longtail_unlabeled=False, hidden=[8], labeled_batch=8, unlabeled_batch=32,
             alpha=1.5, tau=0.95, marginal_weight=1.0, learning_rate=0.03)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(num_domains=st.integers(1, 5), num_classes=st.integers(2, 6),
           feature_dim=st.integers(1, 8), n_per_class=st.integers(2, 60),
           m_l=st.integers(1, 8),
           gamma=st.sampled_from([1.0, 10.0, 50.0]) | st.floats(1.0, 100.0),
           longtail_unlabeled=st.booleans(),
           hidden=st.lists(st.integers(1, 16), max_size=2),
           labeled_batch=st.integers(1, 32), unlabeled_batch=st.integers(8, 64),
           alpha=st.floats(0.1, 4.0), tau=st.floats(0.05, 1.5),
           marginal_weight=st.floats(0.0, 4.0), learning_rate=st.floats(1e-3, 100.0))
    def test_finishes_or_fails_fast_with_one_line(self, **fields):
        """A one-epoch run of any bounded config exits 0, or 2, 3 or 4 with one
        stderr line; exit 2 comes before the output directory is made."""
        fields["hidden"] = ",".join(map(str, fields["hidden"]))
        sets = [arg for key, value in fields.items() for arg in ("--set", f"{key}={value}")]
        with tempfile.TemporaryDirectory() as tmp:
            out, err = Path(tmp) / "out", io.StringIO()
            with redirect_stderr(err), np.errstate(all="ignore"):
                code = main(["--out", str(out), "--seed-list", "0", "--held-out", "0",
                             "--set", "epochs=1", *sets, "run"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO)
            if code != EXIT_OK:
                assert err.getvalue().count("\n") == 1, err.getvalue()
            else:
                run = json.loads((out / "run_s0_h0.json").read_text())
                assert all(abs(e["total"]) <= DIVERGED_LOSS for e in run["epochs"]), run["epochs"]
            if code == EXIT_CONFIG:
                assert not out.exists()
