"""Command-line surface: subcommands, outputs, exit codes."""
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

import cesel
from cesel import assets, errors
from cesel.cli import cli, main
from cesel.harness import gen_half_ring, inject_missing, inject_noise, load_csv


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
    assert np.array_equal(ds.samples, direct.samples)


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


def test_repeated_roster_id_is_usage_error_before_any_run(iris_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("run_ces must not start")

    monkeypatch.setattr("cesel.cli.run_ces", no_run)
    rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
               "--roster", "K,K"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "usage error: repeated algorithm IDs: ['K']\n"


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
    # the written raw matrix reloads to the perturbed dataset bit for bit
    ring = load_csv(ring_csv, label_column="label")
    for mode, inject in [("missing", inject_missing), ("noise", inject_noise)]:
        out = tmp_path / f"{mode}.csv"
        rc = main(["perturb", "--data", ring_csv, "--label", "label",
                   "--mode", mode, "--rate", "0.1", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        expected = inject(ring, 0.1, 2)
        assert np.array_equal(load_csv(out, label_column="label").samples, expected.samples)
    text = (tmp_path / "missing.csv").read_text()
    assert text.count(",,") + text.count(",\n") > 0  # empty cells present


def test_sweep_dt_command(ring_csv, tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep-dt", "--data", ring_csv, "--label", "label", "--k", "2",
               "--dts", "0.0,0.2", "--committee", "4", "--attempts", "16",
               "--reps", "1", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # Under the POSIX locale (and without UTF-8 mode) Python's default
    # text encoding is ASCII; every file cesel reads or writes is UTF-8.
    env = dict(os.environ, PYTHONPATH=str(Path(cesel.__file__).parents[1]),
               LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    data = tmp_path / "data.csv"
    data.write_text("caf\xe9,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
    scmt = tmp_path / "scmt.tsv"
    scmt.write_text("R(1)\tz\xe9ro\n", encoding="utf-8")
    script = tmp_path / "k.cail"
    script.write_text("begin R(1) end\n", encoding="utf-8")
    commands = [
        ["perturb", "--data", data, "--mode", "noise", "--rate", "0.2",
         "--out", tmp_path / "noisy.csv"],
        ["cail", script, "--scmt", scmt, "--dot", tmp_path / "k.dot"],
    ]
    for args in commands:
        done = subprocess.run([sys.executable, "-m", "cesel.cli", *map(str, args)],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), args
    noisy = (tmp_path / "noisy.csv").read_text(encoding="utf-8")
    assert noisy.startswith("caf\xe9,b\n")


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cesel.__file__).parents[1]))
    code = "import sys, cesel.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["run", "--k", "3"]) == 1  # missing --data
        assert main(["baseline", "--method", "kmeans", "--data", "x.csv",
                     "--k", "2"]) == 1  # nonexistent path -> usage error

    @pytest.mark.parametrize("text, flags", [
        ("a,b\n1,oops\n2,3\n", []),
        ("a,b\n1,2\n", []),
        ("lab\nx\ny\n", ["--label", "lab"]),
        ("a,b\n1,inf\n2,3\n", []),
        ("a,b\n1,caf\xe9\n2,3\n", []),
        ("a,b\n1," + "1" * 200_000 + "\n2,3\n", []),
    ], ids=["non-numeric", "one-row", "label-only", "infinite", "not-utf8", "long-cell"])
    def test_data_error_is_2(self, tmp_path, capsys, text, flags):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="latin-1")
        rc = main(["run", "--data", str(bad), "--k", "2", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cells", [("1e308", "-1e308", "1e308"), ("1e308", "", "1e308")],
                             ids=["variance", "imputed-mean"])
    def test_overflowing_column_is_data_error(self, tmp_path, capsys, cells):
        bad = tmp_path / "huge.csv"
        bad.write_text("a,b\n" + "".join(f"{i},{v}\n" for i, v in enumerate(cells)),
                       encoding="utf-8")
        rc = main(["run", "--data", str(bad), "--k", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: column 'b' ") and err.count("\n") == 1

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
        ",K,F\nK,-1,0.5\nF,0.5,-1\n# caf\xe9\n",
        ",K,F\nK,-1," + "1" * 200_000 + "\nF,0.5,-1\n",
    ], ids=["empty", "missing-row", "ragged-row", "non-numeric", "label-order",
            "asymmetric", "diagonal", "above-one", "nan", "duplicate-id", "not-utf8",
            "long-cell"])
    def test_bad_aidm_is_data_error_before_any_candidate(
        self, iris_path, tmp_path, text, no_candidates, capsys
    ):
        bad = tmp_path / "aidm.csv"
        bad.write_text(text, encoding="latin-1")
        rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
                   "--aidm", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(bad) in err
        assert ("not UTF-8 text (byte" in err) == ("\xe9" in text)

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
        (["run", "--k", "2", "--dt", "2", "--out", "OUT"], "threshold"),
        (["baseline", "--method", "kmeans", "--k", "2", "--committee", "1"], "committee"),
        (["baseline", "--method", "kmeans", "--k", "2", "NO-LABEL"], "--label"),
    ], ids=["perturb-rate", "sweep-dts-text", "sweep-dts-range", "sweep-reps", "baseline-reps",
            "run-dt", "baseline-committee", "baseline-label"])
    def test_bad_option_is_usage_error_before_any_work(
        self, ring_csv, tmp_path, args, named, no_candidates, monkeypatch, capsys
    ):
        def refuse(*a, **kw):
            raise AssertionError("the dataset was read before the options were checked")

        monkeypatch.setattr("cesel.cli.load_csv", refuse)
        out = tmp_path / "out.json"
        args = [str(out) if a == "OUT" else a for a in args]
        label = [] if "NO-LABEL" in args else ["--label", "label"]
        rc = main([a for a in args if a != "NO-LABEL"] + ["--data", ring_csv, *label])
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

    @pytest.mark.parametrize("noise", ["-0.5", "nan", "inf"])
    def test_gen_data_bad_noise_is_usage_error(self, tmp_path, noise, capsys):
        out = tmp_path / "ring.csv"
        rc = main(["gen-data", "--noise", noise, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "noise" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        "begin R(1) BOGUS(9) end\n",
        "begin R(1) while F(1)\n",
        "begin end\n",
        "begin R(1) caf\xe9 end\n",
    ], ids=["unknown-symbol", "unclosed-block", "no-symbols", "not-utf8"])
    @pytest.mark.parametrize("command", ["cail", "aidm"])
    def test_malformed_script_is_data_error(self, tmp_path, source, command, capsys):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "bad.cail").write_text(source, encoding="latin-1")
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
        "R(1)\tcaf\xe9\n",
    ], ids=["malformed-id", "no-description", "duplicate", "not-utf8"])
    @pytest.mark.parametrize("command", ["cail", "aidm"])
    def test_malformed_symbol_table_is_data_error(self, tmp_path, table, command, capsys):
        scmt = tmp_path / "scmt.tsv"
        scmt.write_text(table, encoding="latin-1")
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
        assert ("not UTF-8 text (byte" in err) == ("\xe9" in table)

    def test_script_directory_without_scripts_is_data_error(self, tmp_path, capsys):
        # empty, then a directory named like a script, then a dangling link
        # named like one: no entry is a readable script
        empty, sub, dangling = (tmp_path / name for name in ("empty", "sub", "dangling"))
        for directory in (empty, sub, dangling):
            directory.mkdir()
        (sub / "x.cail").mkdir()
        (dangling / "y.cail").symlink_to(tmp_path / "missing.cail")
        for directory in (empty, sub, dangling):
            rc = main(["aidm", "--scripts", str(directory), "--out", str(tmp_path / "a.csv")])
            err = capsys.readouterr().err
            assert rc == 2, directory
            assert err.startswith("data error: ") and err.count("\n") == 1
            assert str(directory) in err

    @pytest.mark.parametrize("args", [
        ["run", "--data", "DIR", "--k", "3"],
        ["run", "--data", "CSV", "--k", "3", "--out", "DIR"],
        ["baseline", "--method", "kmeans", "--data", "DIR", "--k", "2"],
        ["perturb", "--data", "DIR", "--mode", "noise", "--rate", "0.1", "--out", "NEW"],
        ["perturb", "--data", "CSV", "--mode", "noise", "--rate", "0.1", "--out", "DIR"],
        ["sweep-dt", "--data", "DIR", "--k", "2"],
        ["sweep-dt", "--data", "CSV", "--k", "2", "--out", "DIR"],
        ["gen-data", "--out", "DIR"],
        ["cail", "DIR"],
        ["cail", "SCRIPT", "--scmt", "DIR"],
        ["cail", "SCRIPT", "--dot", "DIR"],
        ["aidm", "--scmt", "DIR", "--out", "NEW"],
        ["aidm", "--scripts", "SCRIPT", "--out", "NEW"],
        ["aidm", "--out", "DIR"],
    ], ids=["run-data", "run-out", "baseline-data", "perturb-data", "perturb-out",
            "sweep-data", "sweep-out", "gen-data-out", "cail-script", "cail-scmt",
            "cail-dot", "aidm-scmt", "aidm-scripts-file", "aidm-out"])
    def test_wrong_path_kind_is_usage_error_before_any_work(
        self, ring_csv, tmp_path, args, no_candidates, monkeypatch, capsys
    ):
        def refuse(*a, **kw):
            raise AssertionError("work started before the paths were checked")

        for name in ("load_csv", "load_script", "gen_half_ring", "_symbol_table"):
            monkeypatch.setattr(f"cesel.cli.{name}", refuse)
        script = tmp_path / "k.cail"
        script.write_text("begin R(1) end\n")
        paths = {"DIR": str(tmp_path), "CSV": ring_csv, "SCRIPT": str(script),
                 "NEW": str(tmp_path / "new.out")}
        rc = main([paths.get(a, a) for a in args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "is a directory" in err or "is a file" in err
        assert not (tmp_path / "new.out").exists()

    @pytest.mark.parametrize("args", [
        ["run", "--data", "CSV", "--k", "2", "--out", "MISSING"],
        ["perturb", "--data", "CSV", "--mode", "noise", "--rate", "0.1", "--out", "MISSING"],
        ["sweep-dt", "--data", "CSV", "--k", "2", "--out", "MISSING"],
        ["gen-data", "--out", "MISSING"],
        ["cail", "SCRIPT", "--dot", "MISSING"],
        ["aidm", "--out", "MISSING"],
    ], ids=["run-out", "perturb-out", "sweep-out", "gen-data-out", "cail-dot", "aidm-out"])
    def test_output_in_missing_directory_is_usage_error_before_any_work(
        self, ring_csv, tmp_path, args, no_candidates, monkeypatch, capsys
    ):
        def refuse(*a, **kw):
            raise AssertionError("work started before the output path was checked")

        for name in ("load_csv", "load_script", "gen_half_ring", "_symbol_table", "run_ces"):
            monkeypatch.setattr(f"cesel.cli.{name}", refuse)
        script = tmp_path / "k.cail"
        script.write_text("begin R(1) end\n")
        missing = tmp_path / "missing"
        paths = {"CSV": ring_csv, "SCRIPT": str(script), "MISSING": str(missing / "out")}
        rc = main([paths.get(a, a) for a in args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "does not exist" in err and str(missing) in err
        assert not missing.exists()

    @pytest.mark.parametrize("refused", ["gen-data-full", "aidm-full", "run-permission"])
    def test_refused_file_is_data_error(self, iris_path, refused, monkeypatch, capsys):
        # an OSError names its file when it carries one; a failed flush does not
        if refused == "run-permission":
            def deny(path, **kwargs):  # root reads files whatever their mode
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

            monkeypatch.setattr("cesel.cli.load_csv", deny)
            args = ["run", "--data", iris_path, "--k", "3"]
            expected = f"{iris_path}: {os.strerror(errno.EACCES)}"
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full device")
            args = [refused.removesuffix("-full"), "--out", "/dev/full"]
            expected = os.strerror(errno.ENOSPC)
        rc = main(args)
        assert (rc, capsys.readouterr().err) == (2, f"data error: {expected}\n")

    def test_aidm_directory_is_data_error_before_any_candidate(
        self, iris_path, tmp_path, no_candidates, capsys
    ):
        rc = main(["run", "--data", iris_path, "--label", "species", "--k", "3",
                   "--aidm", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_script_names_clashing_in_case_are_data_error(self, tmp_path, capsys):
        # k.cail and K.cail both give algorithm ID K
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        for name in ("F", "k", "K"):
            (scripts / f"{name}.cail").write_text("begin R(1) end\n", encoding="utf-8")
        rc = main(["aidm", "--scripts", str(scripts), "--out", str(tmp_path / "a.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: duplicate algorithm IDs") and err.count("\n") == 1
        assert not (tmp_path / "a.csv").exists()

    def test_help_is_0(self, capsys):
        commands = ["run", "baseline", "aidm", "cail", "gen-data", "perturb", "sweep-dt"]
        assert sorted(cli.commands) == sorted(commands)
        for args in [["--help"]] + [[command, "--help"] for command in commands]:
            assert main(args) == 0, args
            assert capsys.readouterr().out.startswith("Usage: "), args

    def test_run_and_baseline_share_their_pipeline_options(self):
        # each shared option is declared once, so both commands print its help alike
        def help_records(name):
            command = cli.commands[name]
            ctx = click.Context(command)
            return {p.name: p.get_help_record(ctx) for p in command.params}

        run, baseline = help_records("run"), help_records("baseline")
        shared = run.keys() & baseline.keys()
        assert shared == {"data", "label", "k", "dt", "committee", "attempts", "seed",
                          "aidm", "roster"}
        assert {name: run[name] for name in shared} == {name: baseline[name] for name in shared}


def _error_classes(cls=errors.CeselError):
    """``cls`` and every subclass of it, recursively."""
    return [cls] + [sub for direct in cls.__subclasses__() for sub in _error_classes(direct)]


# Exit code and stderr prefix for every error class; a class without a row
# fails below instead of falling through to exit 3.
_USAGE = (1, "usage error: ")
_DATA = (2, "data error: ")
_PIPELINE = (3, "pipeline failure: ")
_OTHER = (3, "error: ")
EXIT_POLICY = {
    "CeselError": _OTHER,
    "UnknownSymbol": _DATA,
    "StructureError": _DATA,
    "EmptyGraph": _DATA,
    "EmptyCell": _OTHER,
    "DuplicateAlgorithmId": _DATA,
    "UnknownAlgorithm": _OTHER,
    "DimensionMismatch": _OTHER,
    "CommitteeTooSmall": _PIPELINE,
    "ParseError": _DATA,
    "DataFileError": _DATA,
    "AllMissingColumn": _DATA,
    "ColumnOverflow": _DATA,
    "DegenerateSpectrum": _OTHER,
    "EmptyCommittee": _OTHER,
    "WeightMismatch": _OTHER,
    "InvalidK": _USAGE,
    "LengthMismatch": _OTHER,
}
_ERROR_ARGS = {"UnknownSymbol": ("BOGUS", 3), "StructureError": (3, "unclosed block")}


def test_exit_policy_names_only_existing_classes():
    assert sorted(EXIT_POLICY) == sorted(cls.__name__ for cls in _error_classes())


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_policy(cls, iris_path, monkeypatch, capsys):
    code, prefix = EXIT_POLICY[cls.__name__]
    exc = cls(*_ERROR_ARGS.get(cls.__name__, ("something went wrong",)))

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("cesel.cli.load_csv", fail)
    rc = main(["run", "--data", iris_path, "--k", "3"])
    err = capsys.readouterr().err
    assert rc == code
    assert err == f"{prefix}{exc}\n"
