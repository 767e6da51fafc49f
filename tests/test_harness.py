"""Dataset I/O, synthetic data, accuracy, perturbations, experiments."""
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from cesel import assets, clusterers, harness
from cesel.clusterers import Dataset, Partition
from cesel.consensus import PipelineConfig, run_ces
from cesel.errors import AllMissingColumn, LengthMismatch, ParseError
from cesel.harness import (
    ExperimentSpec,
    _pick_cells,
    accuracy,
    gen_half_ring,
    inject_missing,
    inject_noise,
    load_csv,
    run_experiment,
    sweep_dt,
)


class TestLoadCsv:
    def test_bundled_flowers(self):
        ds = load_csv(assets.iris_csv_path(), label_column="species")
        assert ds.n == 150 and ds.d == 4
        assert len(np.unique(ds.labels)) == 3
        assert ds.feature_names == (
            "sepal_length", "sepal_width", "petal_length", "petal_width",
        )

    def test_empty_cell_imputed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n,3\n5,4\n")
        ds = load_csv(path)
        assert np.isnan(ds.raw[1, 0])
        assert np.isfinite(ds.samples).all()

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\nx,3\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert "row 3" in str(err.value) and "'a'" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "NA"])
    def test_nan_cell_stays_missing(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n5,4\n")
        assert np.isnan(load_csv(path).raw[1, 1])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "Infinity"])
    def test_infinite_cell_named(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert "row 3" in str(err.value) and "'b'" in str(err.value)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column="cls")

    def test_all_missing_column_propagates(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n,2\n,3\n")
        with pytest.raises(AllMissingColumn):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("species,b\nx,1\ny,2\nx,3\n", encoding="utf-8-sig")
        ds = load_csv(path, label_column="species")
        assert ds.feature_names == ("b",)
        assert np.array_equal(ds.labels, [0, 1, 0])


class TestGenHalfRing:
    def test_dimensions_and_classes(self):
        ds = gen_half_ring(400, 0.05, seed=1)
        assert ds.n == 400 and ds.d == 2
        assert np.array_equal(np.bincount(ds.labels), [200, 200])

    def test_zero_noise_points_on_arcs(self):
        ds = gen_half_ring(100, 0.0, seed=5)
        inner = ds.raw[:50]
        outer = ds.raw[50:]
        assert np.allclose(np.linalg.norm(inner, axis=1), 1.0)
        shifted = outer - np.array([0.5, 0.0])
        assert np.allclose(np.linalg.norm(shifted, axis=1), 2.0)

    def test_same_seed_identical(self):
        a = gen_half_ring(60, 0.1, seed=9)
        b = gen_half_ring(60, 0.1, seed=9)
        assert np.array_equal(a.raw, b.raw)
        assert not np.array_equal(a.raw, gen_half_ring(60, 0.1, seed=10).raw)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            gen_half_ring(401, 0.05, seed=1)


def oracle_accuracy(pred: Partition, truth):
    """Brute force over all one-to-one cluster/class matchings."""
    truth = np.asarray(truth)
    classes = sorted(set(truth.tolist()))
    best = 0
    k = pred.k
    side = max(k, len(classes))
    for perm in itertools.permutations(range(side)):
        hits = 0
        for c in range(k):
            if perm[c] >= len(classes):
                continue
            hits += int(np.sum((pred.assignments == c) & (truth == classes[perm[c]])))
        best = max(best, hits)
    return 100.0 * best / truth.size


class TestAccuracy:
    def test_relabeled_prediction_is_perfect(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = Partition(np.array([2, 2, 0, 0, 1, 1]), 3)
        assert accuracy(pred, truth) == 100.0

    def test_alternating_split(self):
        truth = np.array([0, 0, 1, 1])
        pred = Partition(np.array([0, 1, 0, 1]), 2)
        assert accuracy(pred, truth) == oracle_accuracy(pred, truth) == 50.0

    def test_single_cluster_majority(self):
        truth = np.array([0, 0, 1, 1])
        pred = Partition(np.zeros(4, dtype=int), 1)
        assert accuracy(pred, truth) == 50.0

    def test_matches_bruteforce_on_random_tables(self):
        rng = np.random.default_rng(137)
        for _ in range(300):
            n = int(rng.integers(2, 25))
            k = int(rng.integers(1, 5))
            classes = int(rng.integers(1, 5))
            pred = Partition(rng.integers(0, k, n), k)
            truth = rng.integers(0, classes, n)
            assert accuracy(pred, truth) == oracle_accuracy(pred, truth)

    def test_invariant_under_both_relabelings(self):
        rng = np.random.default_rng(139)
        pred = Partition(rng.integers(0, 3, 30), 3)
        truth = rng.integers(0, 3, 30)
        base = accuracy(pred, truth)
        perm = rng.permutation(3)
        assert accuracy(Partition(perm[pred.assignments], 3), truth) == base
        assert accuracy(pred, perm[truth]) == base

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy(Partition(np.array([0, 1]), 2), np.array([0, 1, 1]))


class TestPerturbations:
    DATA = gen_half_ring(60, 0.1, seed=11)

    def test_rate_zero_identity(self):
        assert inject_missing(self.DATA, 0.0, seed=3) is self.DATA
        assert inject_noise(self.DATA, 0.0, seed=3) is self.DATA

    def test_missing_cell_count_exact(self):
        rng_rate = 0.1
        out = inject_missing(self.DATA, rng_rate, seed=5)
        expected = round(rng_rate * self.DATA.n * self.DATA.d)
        added = np.isnan(out.raw).sum() - np.isnan(self.DATA.raw).sum()
        assert added == expected == 12

    def test_missing_deterministic_mask(self):
        a = inject_missing(self.DATA, 0.2, seed=7)
        b = inject_missing(self.DATA, 0.2, seed=7)
        assert np.array_equal(np.isnan(a.raw), np.isnan(b.raw))
        c = inject_missing(self.DATA, 0.2, seed=8)
        assert not np.array_equal(np.isnan(a.raw), np.isnan(c.raw))

    def test_noise_changes_exactly_selected_cells(self):
        out = inject_noise(self.DATA, 0.1, seed=13)
        # the raw matrix of the perturbed dataset is the perturbed z-scored
        # matrix; count cells that moved
        changed = (out.raw != self.DATA.samples).sum()
        assert changed == round(0.1 * self.DATA.n * self.DATA.d)

    def test_noise_draws_from_its_own_stream(self):
        # The values come from SeedSequence([seed, 1]), in cell order, not
        # from the stream that picked the cells.
        out = inject_noise(self.DATA, 0.1, seed=13)
        cells = _pick_cells(self.DATA.n, self.DATA.d, 0.1, 13)
        want = np.random.default_rng(np.random.SeedSequence([13, 1])).standard_normal(cells.size)
        assert np.array_equal(out.raw.reshape(-1)[cells], want)

    def test_noise_output_standardized(self):
        out = inject_noise(self.DATA, 0.3, seed=17)
        assert np.allclose(out.samples.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.samples.std(axis=0), 1.0, atol=1e-12)

    def test_labels_survive(self):
        out = inject_missing(self.DATA, 0.1, seed=19)
        assert np.array_equal(out.labels, self.DATA.labels)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            inject_noise(self.DATA, 1.0, seed=1)


SMALL_PIPELINE = PipelineConfig(
    k_final=2, d_threshold=0.0, committee_target=4, max_attempts=16,
    seed=149, roster=("K", "F", "SLE", "SPS"),
)


class TestRunExperiment:
    DATA = gen_half_ring(80, 0.06, seed=23)

    def test_report_shape(self):
        spec = ExperimentSpec(
            dataset=self.DATA, dataset_name="half-ring-80",
            pipeline=SMALL_PIPELINE, repetitions=2,
            methods=("kmeans", "eac", "weac"),
        )
        report = run_experiment(spec)
        assert {r["method"] for r in report["rows"]} == {"kmeans", "eac", "weac"}
        for row in report["rows"]:
            assert 0.0 <= row["mean"] <= 100.0
            assert row["std"] >= 0.0
            assert len(row["per_run"]) == 2

    def test_reproducible_bit_exact(self):
        spec = ExperimentSpec(
            dataset=self.DATA, dataset_name="hr", pipeline=SMALL_PIPELINE,
            repetitions=1, methods=("kmeans", "weac"),
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert json.dumps(a) == json.dumps(b)

    def test_rows_follow_methods_with_mean_and_population_std(self):
        methods = ("weac", "kmeans", "eac")
        spec = ExperimentSpec(
            dataset=self.DATA, dataset_name="hr", pipeline=SMALL_PIPELINE,
            repetitions=3, methods=methods,
        )
        rows = run_experiment(spec)["rows"]
        assert [r["method"] for r in rows] == list(methods)
        for row in rows:
            assert row["mean"] == np.mean(row["per_run"])
            assert row["std"] == np.std(row["per_run"])

    def test_unlabelled_dataset_rejected(self):
        from cesel.clusterers import Dataset

        raw = self.DATA.samples.copy()
        unlabelled = Dataset(samples=raw, raw=raw)
        spec = ExperimentSpec(
            dataset=unlabelled, dataset_name="x", pipeline=SMALL_PIPELINE,
            repetitions=1,
        )
        with pytest.raises(ValueError):
            run_experiment(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(self.DATA, "x", SMALL_PIPELINE, repetitions=0)
        with pytest.raises(ValueError):
            ExperimentSpec(self.DATA, "x", SMALL_PIPELINE, methods=("kmeans", "dbscan"))


class TestSweepDt:
    def test_rows_and_ratios(self):
        data = gen_half_ring(80, 0.06, seed=29)
        rows = sweep_dt(data, SMALL_PIPELINE, (0.0, 0.3), repetitions=2)
        assert [r["d_threshold"] for r in rows] == [0.0, 0.3]
        assert rows[0]["attempts_per_admission"] == 1.0  # dT=0 admits all
        assert rows[1]["attempts_per_admission"] >= rows[0]["attempts_per_admission"]
        for r in rows:
            assert r["accuracy_mean"] is not None
            assert r["wall_time_ms_mean"] > 0


# The whole roster, so eac/weac runs draw linkage IDs and SPS.
FULL_PIPELINE = PipelineConfig(k_final=2, d_threshold=0.2, committee_target=6,
                               max_attempts=24, seed=151)


def _counting_seed_free_work(monkeypatch):
    """Record each linkage tree and SPS embedding the clusterers compute,
    with the samples it was computed on."""
    computed = []
    tree, embed = clusterers.linkage_merge, clusterers._spectral_embedding

    def counted_tree(x, alg):
        computed.append((alg, x))
        return tree(x, alg)

    def counted_embed(x, k):
        computed.append((("SPS", k), x))
        return embed(x, k)

    monkeypatch.setattr(clusterers, "linkage_merge", counted_tree)
    monkeypatch.setattr(clusterers, "_spectral_embedding", counted_embed)
    return computed


def _memo_per_call(monkeypatch):
    """Every with_memo() call makes a fresh memo, as if nothing shared one."""
    monkeypatch.setattr(Dataset, "with_memo", lambda self: replace(self, _memo={}))


class TestSharedMemo:
    DATA = gen_half_ring(60, 0.06, seed=31)

    def spec(self, methods, **kw):
        return ExperimentSpec(dataset=self.DATA, dataset_name="hr", pipeline=FULL_PIPELINE,
                              repetitions=3, methods=methods, **kw)

    def test_spectral_baseline_embeds_once(self, monkeypatch):
        computed = _counting_seed_free_work(monkeypatch)
        run_experiment(self.spec(("spectral",)))
        assert [key for key, _ in computed] == [("SPS", 2)]

    def test_experiment_builds_each_tree_once_per_dataset(self, monkeypatch):
        computed = _counting_seed_free_work(monkeypatch)
        for data in (self.DATA, inject_noise(self.DATA, 0.1, seed=37)):
            start = len(computed)
            run_experiment(replace(self.spec(("eac", "weac")), dataset=data))
            keys = [key for key, _ in computed[start:]]
            assert keys and len(keys) == len(set(keys))
            assert all(np.array_equal(x, data.samples) for _, x in computed[start:])

    def test_sweep_builds_each_tree_once_per_threshold(self, monkeypatch):
        # Each threshold shares one memo across its repetitions and none with
        # another threshold, so every row's wall time pays for the same kind
        # of work: a repeated threshold recomputes exactly what it did before.
        computed = _counting_seed_free_work(monkeypatch)
        starts = []

        def marking_run_ces(data, cfg):
            starts.append(len(computed))
            return run_ces(data, cfg)

        monkeypatch.setattr(harness, "run_ces", marking_run_ces)
        reps = 2
        sweep_dt(self.DATA, FULL_PIPELINE, (0.0, 0.3, 0.0), repetitions=reps)
        bounds = starts[::reps] + [len(computed)]
        keys = [key for key, _ in computed]
        segments = [keys[a:b] for a, b in zip(bounds, bounds[1:])]
        assert len(segments) == 3
        for seg in segments:
            assert seg and len(seg) == len(set(seg))
        assert segments[0] == segments[2]
        assert self.DATA._memo is None

    def test_sharing_leaves_results_unchanged(self, monkeypatch):
        spec = self.spec(("kmeans", "spectral", "eac", "weac"))
        shared = run_experiment(spec), sweep_dt(self.DATA, FULL_PIPELINE, (0.0, 0.3), 2)
        _memo_per_call(monkeypatch)
        apart = run_experiment(spec), sweep_dt(self.DATA, FULL_PIPELINE, (0.0, 0.3), 2)
        for rows in (shared[1], apart[1]):
            for row in rows:
                row.pop("wall_time_ms_mean")
        assert json.dumps(shared) == json.dumps(apart)
