"""Command-line surface: subcommands, outputs, exit codes."""
import json

import numpy as np
import pytest

from cesel import assets
from cesel.cli import main
from cesel.harness import gen_half_ring, load_csv


@pytest.fixture(scope="module")
def iris_path():
    return str(assets.iris_csv_path())


@pytest.fixture()
def ring_csv(tmp_path):
    path = tmp_path / "ring.csv"
    rc = main(["gen-data", "--n", "60", "--noise", "0.06", "--seed", "3",
               "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture()
def no_candidates(monkeypatch):
    """Fail the test if the pipeline runs any candidate clusterer."""
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate ran before the input was checked")

    monkeypatch.setattr("cesel.consensus.run_algorithm", refuse)


def test_run_writes_report(iris_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "run", "--data", iris_path, "--label", "species", "--k", "3",
        "--dt", "0.0", "--committee", "4", "--attempts", "16",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["nCE"] == 4
    assert len(report["final_assignments"]) == 150
    assert "accuracy:" in capsys.readouterr().out


def test_gen_data_roundtrips(ring_csv):
    ds = load_csv(ring_csv, label_column="label")
    assert ds.n == 60 and ds.d == 2
    direct = gen_half_ring(60, 0.06, seed=3)
    assert np.allclose(ds.raw, direct.raw)


def test_run_with_roster_restriction(iris_path, tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "run", "--data", iris_path, "--label", "species", "--k", "3",
        "--dt", "0.0", "--committee", "3", "--attempts", "12", "--seed", "2",
        "--roster", "K,F", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert {e["algorithm"] for e in report["per_entry"]} <= {"K", "F"}


def test_unknown_roster_id_is_usage_error(iris_path):
    rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
               "--roster", "K,BOGUS"])
    assert rc == 1


def test_baseline_command(ring_csv, capsys):
    rc = main(["baseline", "--method", "kmeans", "--data", ring_csv,
               "--label", "label", "--k", "2", "--reps", "2", "--seed", "1"])
    assert rc == 0
    assert "kmeans:" in capsys.readouterr().out


def test_aidm_command_default_assets(tmp_path, capsys):
    out = tmp_path / "aidm.csv"
    rc = main(["aidm", "--out", str(out)])
    assert rc == 0
    from cesel.independency import load_aidm_csv

    aidm = load_aidm_csv(out)
    assert aidm.lookup("K", "F") == 0.5
    assert len(aidm.algorithm_ids) == 15


def test_cail_command_dot_export(tmp_path, capsys):
    script = tmp_path / "toy.cail"
    script.write_text("begin R(1) while F(1) M(1) end end\n")
    dot = tmp_path / "toy.dot"
    rc = main(["cail", str(script), "--dot", str(dot)])
    assert rc == 0
    text = dot.read_text()
    assert 'entry -> n1 [label="R(1)"]' in text
    out = capsys.readouterr().out
    assert "[R(1)]" in out and "[F(1), M(1)]" in out


def test_perturb_command(ring_csv, tmp_path):
    out = tmp_path / "missing.csv"
    rc = main(["perturb", "--data", ring_csv, "--label", "label",
               "--mode", "missing", "--rate", "0.1", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.count(",,") + text.count(",\n") > 0  # empty cells present


def test_sweep_dt_command(ring_csv, tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep-dt", "--data", ring_csv, "--label", "label", "--k", "2",
               "--dts", "0.0,0.2", "--committee", "4", "--attempts", "16",
               "--reps", "1", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["run", "--k", "3"]) == 1  # missing --data
        assert main(["baseline", "--method", "kmeans", "--data", "x.csv",
                     "--k", "2"]) == 1  # nonexistent path -> usage error

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n2,3\n")
        rc = main(["run", "--data", str(bad), "--k", "2"])
        assert rc == 2

    def test_pipeline_failure_is_3(self, tmp_path, capsys):
        ring = tmp_path / "ring.csv"
        main(["gen-data", "--n", "40", "--noise", "0.05", "--seed", "1",
              "--out", str(ring)])
        # dT=1 rejects every candidate after the first: committee too small
        rc = main(["run", "--data", str(ring), "--label", "label", "--k", "2",
                   "--dt", "1.0", "--committee", "5", "--attempts", "6",
                   "--seed", "2"])
        assert rc == 3

    @pytest.mark.parametrize("flags", [
        ["--k", "500"],                       # more clusters than iris has samples
        ["--k", "3", "--dt", "2"],            # threshold outside [0, 1]
        ["--k", "3", "--committee", "1"],     # a committee needs two members
    ])
    def test_bad_config_is_usage_error_before_any_candidate(
        self, iris_path, flags, no_candidates, capsys
    ):
        rc = main(["run", "--data", iris_path, "--label", "species", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["kmeans", "spectral"])
    def test_baseline_k_above_n_is_usage_error(self, iris_path, method, capsys):
        rc = main(["baseline", "--method", method, "--data", iris_path,
                   "--label", "species", "--k", "500", "--reps", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "",
        ",K,F\nK,-1,0.5\n",
        ",K,F\nK,-1,0.5\nF,0.5\n",
        ",K,F\nK,-1,oops\nF,0.5,-1\n",
        ",K,F\nF,-1,0.5\nK,0.5,-1\n",
        ",K,F\nK,-1,0.5\nF,0.4,-1\n",
        ",K,F\nK,0,0.5\nF,0.5,-1\n",
        ",K,F\nK,-1,1.5\nF,1.5,-1\n",
        ",K,F\nK,-1,nan\nF,nan,-1\n",
        ",K,K\nK,-1,0.5\nK,0.5,-1\n",
    ], ids=["empty", "missing-row", "ragged-row", "non-numeric", "label-order",
            "asymmetric", "diagonal", "above-one", "nan", "duplicate-id"])
    def test_bad_aidm_is_data_error_before_any_candidate(
        self, iris_path, tmp_path, text, no_candidates, capsys
    ):
        bad = tmp_path / "aidm.csv"
        bad.write_text(text)
        rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
                   "--aidm", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_missing_aidm_is_data_error_before_any_candidate(
        self, iris_path, tmp_path, no_candidates, capsys
    ):
        missing = tmp_path / "missing.csv"
        rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
                   "--aidm", str(missing)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(missing) in err

    def test_aidm_without_a_roster_algorithm_is_data_error_before_any_candidate(
        self, iris_path, tmp_path, no_candidates, capsys
    ):
        path = tmp_path / "aidm.csv"
        path.write_text(",K,F\nK,-1,0.5\nF,0.5,-1\n")
        rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
                   "--aidm", str(path), "--roster", "K,F,SPS"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("args, named", [
        (["perturb", "--mode", "noise", "--rate", "2", "--out", "OUT"], "--rate"),
        (["sweep-dt", "--k", "2", "--dts", "abc", "--out", "OUT"], "--dts"),
        (["sweep-dt", "--k", "2", "--dts", "5", "--out", "OUT"], "threshold"),
        (["sweep-dt", "--k", "2", "--reps", "0", "--out", "OUT"], "--reps"),
        (["baseline", "--method", "kmeans", "--k", "2", "--reps", "0"], "--reps"),
    ], ids=["perturb-rate", "sweep-dts-text", "sweep-dts-range", "sweep-reps", "baseline-reps"])
    def test_bad_option_is_usage_error_before_any_work(
        self, ring_csv, tmp_path, args, named, no_candidates, monkeypatch, capsys
    ):
        def refuse(*a, **kw):
            raise AssertionError("the dataset was read before the options were checked")

        monkeypatch.setattr("cesel.cli.load_csv", refuse)
        out = tmp_path / "out.json"
        args = [str(out) if a == "OUT" else a for a in args]
        rc = main([*args, "--data", ring_csv, "--label", "label"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    def test_gen_data_too_few_samples_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ring.csv"
        rc = main(["gen-data", "--n", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        "begin R(1) BOGUS(9) end\n",
        "begin R(1) while F(1)\n",
        "begin end\n",
    ], ids=["unknown-symbol", "unclosed-block", "no-symbols"])
    @pytest.mark.parametrize("command", ["cail", "aidm"])
    def test_malformed_script_is_data_error(self, tmp_path, source, command, capsys):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "bad.cail").write_text(source)
        if command == "cail":
            args = ["cail", str(scripts / "bad.cail")]
        else:
            args = ["aidm", "--scripts", str(scripts), "--out", str(tmp_path / "a.csv")]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("table", [
        "R1\tno parentheses\n",
        "R(1)\n",
        "R(1)\trandom\nr(1)\tagain\n",
    ], ids=["malformed-id", "no-description", "duplicate"])
    @pytest.mark.parametrize("command", ["cail", "aidm"])
    def test_malformed_symbol_table_is_data_error(self, tmp_path, table, command, capsys):
        scmt = tmp_path / "scmt.tsv"
        scmt.write_text(table)
        script = tmp_path / "k.cail"
        script.write_text("begin R(1) end\n")
        if command == "cail":
            args = ["cail", str(script), "--scmt", str(scmt)]
        else:
            args = ["aidm", "--scmt", str(scmt), "--out", str(tmp_path / "a.csv")]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(scmt) in err

    def test_script_directory_without_scripts_is_data_error(self, tmp_path, capsys):
        rc = main(["aidm", "--scripts", str(tmp_path), "--out", str(tmp_path / "a.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0
