"""Long-tail protocol, domain mixing, augmentation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltinfomax
from ltinfomax.data import (
    DROPOUT_FRAC,
    SIGMA_STRONG,
    SIGMA_WEAK,
    LongTailSpec,
    Split,
    World,
    _expm,
    augment_pair,
    domain_rotation,
    long_tail_counts,
    split_labeled_unlabeled,
)


class TestLongTailCounts:
    def test_gamma_one_is_uniform(self):
        for k, m in ((2, 5), (5, 3), (11, 10)):
            counts = long_tail_counts(LongTailSpec(k, m, 1.0))
            np.testing.assert_array_equal(counts, np.full(k, m))

    def test_two_class_frozen(self):
        # weights (1, 0.1): 10/1.1 = 9.09 -> 9, repair -> (9, 1)
        counts = long_tail_counts(LongTailSpec(2, 5, 10.0))
        np.testing.assert_array_equal(counts, [9, 1])

    def test_eleven_class_frozen(self):
        """Frozen by executing the rounding rule independently."""
        counts = long_tail_counts(LongTailSpec(11, 5, 10.0))
        np.testing.assert_array_equal(counts, [12, 10, 8, 6, 5, 4, 3, 2, 2, 2, 1])
        assert counts.sum() == 55
        assert 5 <= counts[0] / counts[-1] <= 20  # head roughly 10x tail

    def test_budget_exact_over_grid(self):
        for k in (2, 3, 5, 11, 20):
            for m in (1, 5, 10):
                for gamma in (1.0, 2.0, 10.0, 50.0, 100.0):
                    counts = long_tail_counts(LongTailSpec(k, m, gamma))
                    assert counts.sum() == m * k, (k, m, gamma)
                    assert counts.min() >= 1

    def test_ratio_near_gamma(self):
        """Head/tail count ratio tracks gamma once counts are large enough."""
        for k in (5, 11):
            for gamma in (2.0, 10.0, 50.0):
                counts = long_tail_counts(LongTailSpec(k, 10, gamma))
                ratio = counts.max() / counts.min()
                assert gamma / 2 <= ratio <= 2 * gamma, (k, gamma, ratio)

    def test_non_increasing_along_rank(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 15))
            m = int(rng.integers(1, 12))
            gamma = float(rng.uniform(1, 100))
            by_class = long_tail_counts(LongTailSpec(k, m, gamma))
            # identity order: class id == rank
            assert np.all(np.diff(by_class) <= 0)

    def test_class_order_routes_counts(self):
        order = (2, 0, 1)
        counts = long_tail_counts(LongTailSpec(3, 4, 8.0, order))
        by_rank = long_tail_counts(LongTailSpec(3, 4, 8.0))
        assert counts[2] == by_rank[0]
        assert counts[0] == by_rank[1]
        assert counts[1] == by_rank[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            LongTailSpec(1, 5, 10.0)
        with pytest.raises(ValueError):
            LongTailSpec(3, 0, 10.0)
        with pytest.raises(ValueError):
            LongTailSpec(3, 5, 0.5)
        with pytest.raises(ValueError):
            LongTailSpec(3, 5, 10.0, (0, 1, 1))


def small_world(k=3, d=4, n_per_class=30, noise=0.5, seed=123):
    """A one-domain world: Gaussian blobs around mixed centroids."""
    centroids = 3.0 * np.random.default_rng(0).standard_normal((k, d))
    labels = np.repeat(np.arange(k), n_per_class)
    features = ((centroids @ domain_rotation(d, 5, 0.15).T)[labels]
                + noise * np.random.default_rng(seed).standard_normal((len(labels), d)))
    return World(features, labels, [0, len(labels)], k), centroids


class TestGenerateDomain:
    """domain_rotation, the per-domain axis mixing of the synthetic world."""

    def test_rotation_is_orthogonal(self):
        q = domain_rotation(6, rotation_seed=77, strength=0.4)
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-10)
        assert not np.allclose(q, np.eye(6))

    def test_rotation_identity_at_zero_strength(self):
        np.testing.assert_array_equal(domain_rotation(5, 77, 0.0), np.eye(5))


class TestExpm:
    """_expm, the numpy [13/13] Pade exponential behind domain_rotation."""

    @pytest.mark.parametrize("t", [0.5, 40.0])
    def test_plane_rotation_closed_form(self, t):
        # at t = 40 the 1-norm is above theta_13, so the squaring loop runs
        c, s = np.cos(t), np.sin(t)
        np.testing.assert_allclose(_expm(np.array([[0.0, -t], [t, 0.0]])),
                                   [[c, -s], [s, c]], rtol=0, atol=1e-14)

    def test_inverse_is_exp_of_negation(self):
        g = np.random.default_rng(3).standard_normal((64, 64))
        a = g - g.T
        np.testing.assert_allclose(_expm(a) @ _expm(-a), np.eye(64), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_rotation_matches_scipy(self, dim):
        """Ties the world to the one scipy.linalg.expm built before."""
        expm = pytest.importorskip("scipy.linalg").expm
        g = np.random.default_rng(9).standard_normal((dim, dim))
        skew = (g - g.T) / 2.0
        skew /= max(np.linalg.norm(skew, 2), 1e-12)
        np.testing.assert_allclose(domain_rotation(dim, 9, 0.3), expm(0.3 * np.pi * skew),
                                   rtol=0, atol=1e-14)

    def test_package_does_not_import_scipy(self):
        src = Path(ltinfomax.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
        code = "import ltinfomax, sys; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestSplit:
    def test_histogram_matches_counts(self):
        data, _ = small_world(k=5, n_per_class=30)
        spec = LongTailSpec(5, 5, 10.0)
        split = split_labeled_unlabeled(data, 0, spec, seed=11)
        labels = data.labels[split.labeled_indices]
        hist = np.bincount(labels, minlength=5)
        # recompute independently with the realized order
        order = np.argsort(-hist, kind="stable")
        expected = long_tail_counts(LongTailSpec(5, 5, 10.0, tuple(int(c) for c in order)))
        np.testing.assert_array_equal(np.sort(hist), np.sort(long_tail_counts(spec)))
        np.testing.assert_array_equal(hist, expected)
        assert hist.sum() == 25

    def test_balanced_when_gamma_one(self):
        data, _ = small_world(k=3, n_per_class=40)
        split = split_labeled_unlabeled(data, 0, LongTailSpec(3, 5, 1.0), seed=2)
        hist = np.bincount(data.labels[split.labeled_indices], minlength=3)
        np.testing.assert_array_equal(hist, [5, 5, 5])

    def test_seeds_draw_different_orders(self):
        data, _ = small_world(k=5, n_per_class=40)
        spec = LongTailSpec(5, 5, 10.0)
        hists = []
        for seed in range(6):
            split = split_labeled_unlabeled(data, 0, spec, seed=seed)
            hists.append(tuple(np.bincount(data.labels[split.labeled_indices],
                                           minlength=5)))
        assert len(set(hists)) > 1

    def test_partition_no_leakage(self):
        data, _ = small_world(k=3, n_per_class=30)
        split = split_labeled_unlabeled(data, 0, LongTailSpec(3, 4, 5.0), seed=1)
        merged = np.concatenate([split.labeled_indices, split.unlabeled_indices])
        assert len(np.unique(merged)) == len(data.labels)

    def test_deterministic(self):
        data, _ = small_world(k=4, n_per_class=30)
        spec = LongTailSpec(4, 4, 10.0)
        a = split_labeled_unlabeled(data, 0, spec, seed=21)
        b = split_labeled_unlabeled(data, 0, spec, seed=21)
        np.testing.assert_array_equal(a.labeled_indices, b.labeled_indices)

    def test_explicit_order_shared(self):
        data, _ = small_world(k=4, n_per_class=30)
        spec = LongTailSpec(4, 4, 10.0, class_order=(3, 1, 0, 2))
        split = split_labeled_unlabeled(data, 0, spec, seed=9)
        hist = np.bincount(data.labels[split.labeled_indices], minlength=4)
        by_rank = long_tail_counts(LongTailSpec(4, 4, 10.0))
        assert hist[3] == by_rank[0] and hist[2] == by_rank[3]

    def test_insufficient_class_raises(self):
        data, _ = small_world(k=3, n_per_class=5)
        with pytest.raises(ValueError, match="spare|class"):
            split_labeled_unlabeled(data, 0, LongTailSpec(3, 5, 10.0), seed=0)

    def test_unlabeled_ratio_enforced(self):
        data, _ = small_world(k=3, n_per_class=12)
        with pytest.raises(ValueError, match="pool"):
            split_labeled_unlabeled(data, 0, LongTailSpec(3, 5, 1.0), seed=0)

    def test_longtail_unlabeled_flag(self):
        data, _ = small_world(k=4, n_per_class=60)
        spec = LongTailSpec(4, 3, 10.0, class_order=(0, 1, 2, 3))
        split = split_labeled_unlabeled(data, 0, spec, seed=5, longtail_unlabeled=True)
        hist = np.bincount(data.labels[split.unlabeled_indices], minlength=4)
        assert np.all(np.diff(hist) <= 0)  # decays along the shared order
        assert hist[0] / hist[-1] >= 3.0

    def test_unthinned_split_shares_the_domain_rows(self):
        data, _ = small_world(k=3, n_per_class=30)
        split = split_labeled_unlabeled(data, 0, LongTailSpec(3, 4, 5.0), seed=1)
        assert split.world is data
        merged = np.sort(np.concatenate([split.labeled_indices, split.unlabeled_indices]))
        np.testing.assert_array_equal(merged, np.arange(len(data.labels)))

    def test_thinned_split_only_shrinks_the_unlabeled_ids(self):
        """Thinning draws a smaller unlabeled id set into the same world; the
        labeled draw is the unthinned one, and the dropped rows are in neither set."""
        data, _ = small_world(k=4, n_per_class=60)
        spec = LongTailSpec(4, 3, 10.0)
        full = split_labeled_unlabeled(data, 0, spec, seed=5)
        thinned = split_labeled_unlabeled(data, 0, spec, seed=5, longtail_unlabeled=True)
        assert thinned.world is data
        np.testing.assert_array_equal(thinned.labeled_indices, full.labeled_indices)
        assert len(thinned.unlabeled_indices) < len(full.unlabeled_indices)
        assert np.isin(thinned.unlabeled_indices, full.unlabeled_indices).all()


def one_view(x, strength, rng):
    """Oracle for augment_pair: one view of ``x`` per call, 'weak' or 'strong'."""
    if strength == "weak":
        return x + SIGMA_WEAK * rng.standard_normal(x.shape)
    out = x + SIGMA_STRONG * rng.standard_normal(x.shape)
    out[rng.random(x.shape) < DROPOUT_FRAC] = 0.0
    return out


class TestAugment:
    def test_strong_bigger_than_weak(self):
        rng = np.random.default_rng(12)
        x = np.tile(rng.normal(size=8), (1000, 1))
        weak, strong = augment_pair(x, np.random.default_rng(1000))
        dw = np.linalg.norm(weak - x, axis=1)
        ds = np.linalg.norm(strong - x, axis=1)
        assert np.mean(ds) > np.mean(dw)

    def test_dropout_mean(self):
        """DROPOUT_FRAC on d = 10 zeroes on average 10 * DROPOUT_FRAC coordinates."""
        x = np.ones((10_000, 10))
        _, strong = augment_pair(x, np.random.default_rng(77))
        assert abs(np.mean(np.sum(strong == 0.0, axis=1)) - 10 * DROPOUT_FRAC) < 0.1

    def test_pair_deterministic_per_seed(self):
        x = np.random.default_rng(1).normal(size=(4, 6))
        w1, s1 = augment_pair(x, np.random.default_rng(42))
        w2, s2 = augment_pair(x, np.random.default_rng(42))
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(s1, s2)

    def test_pair_is_weak_then_strong_on_one_generator(self):
        x = np.random.default_rng(1).normal(size=(16, 6))
        rng = np.random.default_rng(9)
        weak, strong = one_view(x, "weak", rng), one_view(x, "strong", rng)
        out = np.full((40, 6), np.nan)
        w, s = augment_pair(x, np.random.default_rng(9), out=out[8:])
        assert np.shares_memory(w, out) and np.shares_memory(s, out)
        np.testing.assert_array_equal(out[8:24], weak)
        np.testing.assert_array_equal(out[24:], strong)
        assert np.isnan(out[:8]).all()
        np.testing.assert_array_equal(
            np.concatenate(augment_pair(x, np.random.default_rng(9))), out[8:])


class TestDomainDataset:
    """A domain's data: the World that holds every domain's rows, and the
    Splits of row ids into one of its domains."""

    def test_immutable_arrays(self):
        data, _ = small_world()
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.domain(0)[1][0] = 1

    @staticmethod
    def _world(features):
        return World(features, np.zeros(len(features), dtype=int), [0, len(features)], 2)

    def test_adopts_an_owned_read_only_array(self):
        feats = np.arange(12.0).reshape(4, 3).copy()
        feats.flags.writeable = False
        assert self._world(feats).features is feats

    @pytest.mark.parametrize("view", [False, True], ids=["writeable", "read-only-view"])
    def test_copies_what_the_caller_can_still_write(self, view):
        caller = np.arange(12.0).reshape(4, 3)
        given = caller
        if view:
            given = caller.view()
            given.flags.writeable = False
        data = self._world(given)
        assert not np.shares_memory(data.features, caller)
        caller[...] = -1.0
        np.testing.assert_array_equal(data.features, np.arange(12.0).reshape(4, 3))
        assert not data.features.flags.writeable

    @pytest.mark.parametrize("bounds", [[0, 3], [1, 4], [0, 3, 2, 4], [4]])
    def test_bounds_that_miss_the_rows_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            World(np.zeros((4, 2)), np.zeros(4, dtype=int), bounds, 2)

    @pytest.mark.parametrize("labeled,unlabeled", [([0, 1], [2, 3, 4]), ([-1, 1], [2, 3])])
    def test_index_sets_that_miss_or_leave_the_rows_rejected(self, labeled, unlabeled):
        with pytest.raises(ValueError, match="row ids"):
            Split(self._world(np.zeros((4, 2))), 0, labeled, unlabeled)

    def test_index_sets_that_leave_rows_out_accepted(self):
        split = Split(self._world(np.zeros((4, 2))), 0, [0], [1, 2])
        assert list(split.labeled_indices) == [0] and list(split.unlabeled_indices) == [1, 2]
        assert not split.unlabeled_indices.flags.writeable

    def test_ids_are_local_to_their_domain(self):
        """Domain 1 of two 4-row domains: id 4 is a world row but not one of its rows."""
        world = World(np.zeros((8, 2)), np.zeros(8, dtype=int), [0, 4, 8], 2)
        assert len(Split(world, 1, [3], [0, 1]).labeled_indices) == 1
        with pytest.raises(ValueError, match=r"row ids must lie in the domain's rows \[0, 4\)"):
            Split(world, 1, [0], [4])
        with pytest.raises(ValueError, match="no domain 2"):
            Split(world, 2, [0], [1])

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Split(self._world(np.zeros((4, 2))), 0, labeled_indices=np.array([0, 1]),
                  unlabeled_indices=np.array([1, 2, 3]))

    @pytest.mark.parametrize("bad_label", [-1, 2, 0.5])
    def test_label_out_of_range_rejected(self, bad_label):
        with pytest.raises(ValueError, match="labels must be one integer"):
            World(np.zeros((4, 2)), np.array([0, 1, bad_label, 0]), [0, 4], num_classes=2)
