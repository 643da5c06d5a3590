import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import steinlab
from steinlab import (
    ConfigError,
    SampleBatch,
    cli,
    iid_gaussian,
    io,
    ksd,
    make_gaussian,
)
from steinlab.kernels import KernelSpec
from steinlab.rng import derive_seed

IMQ = KernelSpec("imq", beta=-0.5)


class TestSampleCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        batch = SampleBatch(rng.standard_normal((17, 3)))
        path = tmp_path / "s.csv"
        io.write_samples_csv(path, batch, meta={"seed": 5})
        loaded = io.read_samples_csv(path)
        assert np.array_equal(loaded.points, batch.points)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="expected header x1,x2"):
            io.read_samples_csv(path)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ConfigError, match=r"bad.csv:3: column 2"):
            io.read_samples_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            io.read_samples_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"# seed = 1\nx1,x2\n1.0,2.0\n{cell},2.0\n")
        with pytest.raises(ConfigError, match=r"bad.csv:4: column 1: .* not finite"):
            io.read_samples_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n1.0\n")
        with pytest.raises(ConfigError, match="expected 2 columns"):
            io.read_samples_csv(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\r\n1.0,2.0\r\n1.0,2\xe9\r\n")
        with pytest.raises(ConfigError) as err:
            io.read_samples_csv(path)
        assert str(err.value) == f"{path}:3: byte 0xe9 is not UTF-8"

    def test_file_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        io.write_samples_csv(path, SampleBatch(np.eye(3)))
        reads = []
        data_lines = io._data_lines

        def counted(source):
            reads.append(source)
            return data_lines(source)

        monkeypatch.setattr(io, "_data_lines", counted)
        assert np.array_equal(io.read_samples_csv(path).points, np.eye(3))
        assert reads == [path]


class TestDatasetCsv:
    def test_observations_single_column(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("y\n0.5\n-1.25\n")
        assert np.array_equal(io.read_observations_csv(path), [0.5, -1.25])
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="single observation column"):
            io.read_observations_csv(wide)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_observations_reject_non_finite(self, tmp_path, cell):
        path = tmp_path / "obs.csv"
        path.write_text(f"y\n0.5\n-1.25\n{cell}\n")
        with pytest.raises(ConfigError, match=r"obs.csv:4: column 1: .* not finite"):
            io.read_observations_csv(path)

    def test_labeled_final_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n0.1,0.2,1\n-0.3,0.4,0\n")
        X, y = io.read_labeled_csv(path)
        assert np.array_equal(X, [[0.1, 0.2], [-0.3, 0.4]])
        assert np.array_equal(y, [1.0, 0.0])

    def test_observations_need_a_header_row(self, tmp_path):
        # A numeric first row is data, not a header: it used to be dropped.
        path = tmp_path / "obs.csv"
        path.write_text("# values\n1.0\n2.0\n3.0\n")
        with pytest.raises(ConfigError) as err:
            io.read_observations_csv(path)
        assert str(err.value) == (f"{path}:2: expected a header row naming the "
                                  "columns, got numbers 1.0")

    def test_labeled_needs_a_header_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.2,1\n-0.3,0.4,0\n")
        with pytest.raises(ConfigError, match=r"data.csv:1: expected a header row"):
            io.read_labeled_csv(path)

    def test_labeled_rejects_bad_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n0.1,2\n")
        with pytest.raises(ConfigError, match="not 0 or 1"):
            io.read_labeled_csv(path)

    def test_bad_label_names_file_line_and_column(self, tmp_path):
        # The bad label is data row 2 but file line 5, after a comment and
        # a blank line.
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n0.1,0.2,1\n# note\n\n0.3,0.4,0.5\n")
        with pytest.raises(ConfigError) as err:
            io.read_labeled_csv(path)
        assert str(err.value) == f"{path}:5: column 3: label 0.5 is not 0 or 1"

    def test_non_utf8_byte_in_a_comment_names_file_and_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"f1,label\n0.1,1\n# caf\xe9\n0.2,0\n")
        with pytest.raises(ConfigError) as err:
            io.read_labeled_csv(path)
        assert str(err.value) == f"{path}:3: byte 0xe9 is not UTF-8"


class TestConfigFiles:
    def test_sections_and_inline_comments(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[kernel]\nfamily = imq  # the unscaled default\nbeta = -0.5\n")
        cfg = io.load_config(path)
        assert cfg["kernel"]["family"] == "imq"
        assert cfg["kernel"]["beta"] == "-0.5"

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            io.load_config(tmp_path / "none.ini")
        bad = tmp_path / "bad.ini"
        bad.write_text("key_without_section = 1\n")
        with pytest.raises(ConfigError, match="parse error"):
            io.load_config(bad)

    def test_percent_reads_literally(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[score]\nseed = 3\nsamples = a%b.csv\nout = %(seed)s.json\n")
        cfg = io.load_config(path)
        assert cfg["score"]["samples"] == "a%b.csv"
        assert cfg["score"]["out"] == "%(seed)s.json"

    def test_default_section_is_rejected(self, tmp_path):
        # configparser would copy its keys into every section.
        path = tmp_path / "c.ini"
        path.write_text("[DEFAULT]\nseed = 3\n\n[score]\nsamples = a.csv\n")
        with pytest.raises(ConfigError, match=r"\[DEFAULT\] gives seed to every section"):
            io.load_config(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_bytes(b"[kernel]\rfamily = imq\r# caf\xe9\rbeta = -0.5\r")
        with pytest.raises(ConfigError) as err:
            io.load_config(path)
        assert str(err.value) == f"{path}:3: byte 0xe9 is not UTF-8"


class TestTableCsv:
    @pytest.mark.parametrize("value", [0.1 + 0.2, 1e-05, 1e+16, -0.0])
    def test_floats_are_written_as_fmt_float_writes_them(self, tmp_path, value):
        path = tmp_path / "t.csv"
        io.write_table_csv(path, [{"x": value, "y": np.float64(value), "k": 3}])
        assert path.read_text() == f"x,y,k\n{io.fmt_float(value)},{io.fmt_float(value)},3\n"

    def test_header_is_the_first_rows_keys(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"b": 1, "a": "", "c": "step 4"}, {"b": 2, "a": 0.5, "c": ""}]
        io.write_table_csv(path, rows, meta={"seed": "3"})
        assert path.read_text() == "# seed = 3\nb,a,c\n1,,step 4\n2,0.5,\n"

    @pytest.mark.parametrize("later", [
        {"a": 2},
        {"a": 2, "b": 3, "c": 4},
        {"b": 3, "a": 2},
    ], ids=["missing-key", "extra-key", "reordered-keys"])
    def test_rows_must_share_the_first_rows_keys(self, tmp_path, later):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="first row's keys"):
            io.write_table_csv(path, [{"a": 1, "b": 2}, later])
        assert not path.exists()

    def test_empty_table_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="first row's keys"):
            io.write_table_csv(path, [])
        assert not path.exists()


def _write(path, text):
    path.write_text(textwrap.dedent(text))
    return path


@pytest.fixture
def mode_fixture(tmp_path, monkeypatch):
    """Single sample point at the mode of N(0, I_2), L = 10 equal factors."""
    monkeypatch.chdir(tmp_path)
    io.write_samples_csv(tmp_path / "samples.csv", SampleBatch(np.zeros((1, 2))))
    config = _write(
        tmp_path / "score.ini",
        """\
        [target]
        kind = gaussian
        dim = 2
        mu = 0
        sigma_sq = 1
        L = 10

        [kernel]
        family = imq
        beta = -0.5

        [score]
        samples = samples.csv
        m = 1
        seed = 7
        """,
    )
    return tmp_path, config


class TestCliScore:
    def test_mode_point_value(self, mode_fixture):
        tmp_path, config = mode_fixture
        assert cli.main(["score", "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["result"]["value"] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert doc["result"]["w_sq"] == [1.0, 1.0]
        assert doc["config"]["seed"] == "7"

    def test_full_batch_matches_exact(self, mode_fixture):
        tmp_path, config = mode_fixture
        full = _write(tmp_path / "full.ini",
                      config.read_text().replace("m = 1", "m = 10"))
        exact = _write(tmp_path / "exact.ini",
                       config.read_text().replace("m = 1\n", ""))
        cli.main(["score", "--config", str(full), "--out", "full.json"])
        cli.main(["score", "--config", str(exact), "--out", "exact.json"])
        v_full = json.loads((tmp_path / "full.json").read_text())["result"]
        v_exact = json.loads((tmp_path / "exact.json").read_text())["result"]
        assert v_full["value"] == v_exact["value"]
        assert v_full["w_sq"] == v_exact["w_sq"]
        assert v_exact["seed"] is None and v_exact["m"] == 10

    def test_m_full_matches_omitted_m(self, mode_fixture):
        tmp_path, config = mode_fixture
        full = _write(tmp_path / "full.ini",
                      config.read_text().replace("m = 1", "m = full"))
        exact = _write(tmp_path / "exact.ini",
                       config.read_text().replace("m = 1\n", ""))
        assert cli.main(["score", "--config", str(full), "--out", "full.json"]) == 0
        assert cli.main(["score", "--config", str(exact), "--out", "exact.json"]) == 0
        assert (tmp_path / "full.json").read_bytes() == (tmp_path / "exact.json").read_bytes()

    @pytest.mark.parametrize("value, message", [
        ("fulll", "[score] m = 'fulll' is not an integer or 'full'"),
        ("0", "[score] m = 0 is not in [1, L=10]"),
        ("11", "[score] m = 11 is not in [1, L=10]"),
    ])
    def test_bad_m_names_section_and_key(self, mode_fixture, capsys, value, message):
        tmp_path, config = mode_fixture
        bad = _write(tmp_path / "bad.ini",
                     config.read_text().replace("m = 1", f"m = {value}"))
        assert cli.main(["score", "--config", str(bad), "--out", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "bad.json").exists()

    def test_default_section_is_a_config_error(self, mode_fixture, capsys):
        tmp_path, config = mode_fixture
        bad = _write(tmp_path / "bad.ini", "[DEFAULT]\nseed = 3\n" + config.read_text())
        assert cli.main(["score", "--config", str(bad), "--out", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[DEFAULT] gives seed" in err
        assert "[target]" not in err
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
    def test_thread_count_not_a_positive_integer_is_a_usage_error(self, mode_fixture,
                                                                   capsys, value):
        tmp_path, config = mode_fixture
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["score", "--config", str(config), "--out", "t.json",
                      "--threads", value])
        assert exit_info.value.code == 2
        assert f"argument --threads: '{value}' is not a positive integer" \
            in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_overflowing_pieces_exit_1_without_output(self, tmp_path, monkeypatch, capsys):
        # Scores of order 1e160 overflow the pairwise terms; the command used
        # to exit 0 with NaN and Infinity in its result.
        monkeypatch.chdir(tmp_path)
        io.write_samples_csv(tmp_path / "samples.csv", iid_gaussian(40, 3, 0.0, 1.0, seed=3))
        config = _write(
            tmp_path / "score.ini",
            """\
            [target]
            kind = gaussian
            dim = 3
            mu = 0
            sigma_sq = 1e-160
            L = 4

            [kernel]
            family = imq
            beta = -0.5

            [score]
            samples = samples.csv
            """,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["score", "--config", str(config), "--out", "res.json"]) == 1
        assert "score matrix 0: w_sq[0] = nan is not finite" in capsys.readouterr().err
        assert not (tmp_path / "res.json").exists()

    def test_missing_samples_no_partial_output(self, mode_fixture, capsys):
        tmp_path, config = mode_fixture
        (tmp_path / "samples.csv").unlink()
        code = cli.main(["score", "--config", str(config), "--out", "res.json"])
        assert code != 0
        assert not (tmp_path / "res.json").exists()
        assert "samples.csv" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, mode_fixture):
        tmp_path, config = mode_fixture
        cli.main(["score", "--config", str(config), "--out", "a.json"])
        cli.main(["score", "--config", str(config), "--out", "b.json"])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_thread_count_does_not_change_bytes(self, mode_fixture):
        tmp_path, config = mode_fixture
        cli.main(["score", "--config", str(config), "--out", "t1.json",
                  "--threads", "1"])
        cli.main(["score", "--config", str(config), "--out", "t8.json",
                  "--threads", "8"])
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t8.json").read_bytes()

    def test_threads_environment_variable_is_ignored(self, mode_fixture, monkeypatch):
        # The worker count comes from --threads alone.
        tmp_path, config = mode_fixture
        assert cli.main(["score", "--config", str(config), "--out", "plain.json"]) == 0
        monkeypatch.setenv("STEINLAB_THREADS", "abc")
        assert cli.main(["score", "--config", str(config), "--out", "env.json"]) == 0
        assert (tmp_path / "env.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("name, line", [("samples.csv", 2), ("score.ini", 9)])
    def test_non_utf8_input_exits_before_output(self, mode_fixture, capsys, name, line):
        tmp_path, config = mode_fixture
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] += b" # caf\xe9" if name.endswith(".ini") else b"\xe9"
        path.write_bytes(b"\n".join(lines))
        assert cli.main(["score", "--config", str(config)]) == 2
        assert f"{name}:{line}: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    def test_non_finite_sample_exit_code(self, mode_fixture, capsys):
        tmp_path, config = mode_fixture
        (tmp_path / "samples.csv").write_text("x1,x2\n0.0,nan\n")
        assert cli.main(["score", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "samples.csv:2: column 2" in err
        assert not (tmp_path / "result.json").exists()

    def test_percent_value_is_not_substituted(self, mode_fixture, capsys):
        tmp_path, config = mode_fixture
        bad = _write(tmp_path / "bad.ini",
                     config.read_text().replace("seed = 7", "seed = %(x)s"))
        assert cli.main(["score", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "[score] seed = '%(x)s' is not an integer" in err
        assert not (tmp_path / "result.json").exists()

    def test_malformed_config_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = _write(tmp_path / "bad.ini", "no section here = 1\n")
        assert cli.main(["score", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err


def _tune_config(tmp_path, *, grid="5e-3", trials=2, extra=""):
    return _write(
        tmp_path / "tune.ini",
        f"""\
        [target]
        kind = gaussian
        dim = 1
        mu = 0
        sigma_sq = 1
        L = 6

        [kernel]
        family = imq
        beta = -0.5

        [tune]
        eps_grid = {grid}
        trials = {trials}
        chain_steps = 80
        sgld_batch = 2
        init = 0
        m_list = 2,full
        seed = 3
        {extra}
        """,
    )


class TestCliTune:
    def test_degenerate_grid_argmin(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _tune_config(tmp_path)
        assert cli.main(["tune-sgld", "--config", str(config), "--out", "t.csv"]) == 0
        summary = (tmp_path / "t.summary.csv").read_text()
        assert "# argmin_epsilon.m=2 = 0.005" in summary
        assert "# argmin_epsilon.m=6 = 0.005" in summary

    def test_trial_rows_stable_when_extending_trials(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        short = _tune_config(tmp_path, trials=2)
        cli.main(["tune-sgld", "--config", str(short), "--out", "short.csv"])
        longer = _write(tmp_path / "tune6.ini",
                        short.read_text().replace("trials = 2", "trials = 4"))
        cli.main(["tune-sgld", "--config", str(longer), "--out", "long.csv"])

        def rows(name):
            lines = [l for l in (tmp_path / name).read_text().splitlines()
                     if l and not l.startswith("#")]
            return lines[1:]

        assert set(rows("short.csv")) <= set(rows("long.csv"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_cells_are_flagged_and_excluded(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _tune_config(tmp_path, grid="5e-3,1e308")
        assert cli.main(["tune-sgld", "--config", str(config), "--out", "d.csv"]) == 0
        body = [l for l in (tmp_path / "d.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        diverged = [l for l in body[1:] if l.split(",")[5] == "1"]
        assert diverged and all(l.split(",")[3] == "" for l in diverged)
        summary = (tmp_path / "d.summary.csv").read_text()
        assert "# argmin_epsilon.m=2 = 0.005" in summary
        assert "1e+308" not in summary.split("m,epsilon")[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_trial_diverged_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # The summary is checked before either table is written.
        monkeypatch.chdir(tmp_path)
        config = _tune_config(tmp_path, grid="1e308")
        assert cli.main(["tune-sgld", "--config", str(config), "--out", "d.csv"]) == 1
        assert "every trial diverged for m=2" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()
        assert not (tmp_path / "d.summary.csv").exists()

    def test_one_lockstep_sweep_before_any_scoring(self, tmp_path, monkeypatch):
        # perfbench stamps set-up time and counts SGLD steps on the name
        # cli.sgld_chain and its second argument's .steps.  Each chain is
        # then scored by one sksd call at every m of m_list, with the seeds
        # derived from its trial and each m.
        monkeypatch.chdir(tmp_path)
        config = _tune_config(tmp_path, grid="5e-3,1e-2,2e-2", trials=2)
        calls = []

        def recorder(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "sgld_chain", recorder("sgld_chain", cli.sgld_chain))
        monkeypatch.setattr(cli, "sksd", recorder("sksd", cli.sksd))
        monkeypatch.setattr(cli, "ksd", recorder("ksd", cli.ksd))
        assert cli.main(["tune-sgld", "--config", str(config), "--out", "t.csv",
                         "--threads", "2"]) == 0
        names = [name for name, _ in calls]
        assert names[0] == "sgld_chain" and names.count("sgld_chain") == 1
        assert names.count("sksd") == 3 * 2
        assert "ksd" not in names
        assert calls[0][1][1].steps == 3 * 2 * 80
        for _, args in calls[1:]:
            m_values, seeds = args[3], args[4]
            assert list(m_values) == [2, 6]
            trial = [derive_seed(3, "tune-score", t, 2) for t in range(2)].index(seeds[0])
            assert list(seeds) == [derive_seed(3, "tune-score", trial, m) for m in (2, 6)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_scores_are_divergences(self, tmp_path, monkeypatch):
        # Large steps on the mixture posterior overflow (x - y)^2 in the
        # score before the iterate overflows; those chains are diverged rows
        # and the run goes on.
        monkeypatch.chdir(tmp_path)
        config = _write(tmp_path / "gmm.ini", """\
            [target]
            kind = gmm_posterior
            l = 100
            data_seed = 11

            [kernel]
            family = imq
            beta = -0.5

            [tune]
            eps_grid = 1e-3,5e-1,2,1e3
            trials = 2
            chain_steps = 300
            sgld_batch = 10
            init = 0,1
            m_list = 1,10
            seed = 7
            """)
        outputs = []
        for threads in ("1", "2"):
            out = f"t{threads}.csv"
            assert cli.main(["tune-sgld", "--config", str(config), "--out", out,
                             "--threads", threads]) == 0
            outputs.append(((tmp_path / out).read_bytes(),
                            (tmp_path / f"t{threads}.summary.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        body = [l.split(",") for l in outputs[0][0].decode().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(body) == 4 * 2 * 2
        assert all(row[5] == "0" for row in body if row[0] == "0.001")
        diverged = [row for row in body if row[0] != "0.001"]
        assert all(row[5] == "1" and row[6].startswith("step ") for row in diverged)


def _rank_config(tmp_path, step_b="0.5"):
    # modest true weights keep the small-step chain inside the posterior
    # bulk at this horizon, so the large step loses clearly
    return _write(
        tmp_path / "rank.ini",
        f"""\
        [target]
        kind = logreg
        n = 40
        d = 2
        w_true = 0.3,-0.2
        data_seed = 5

        [kernel]
        family = imq
        beta = -0.5

        [sampler_a]
        step = 5e-3
        batch = 4
        init = 0

        [sampler_b]
        step = {step_b}
        batch = 4
        init = 0

        [rank]
        n_grid = 300,600
        m_list = 4,full
        seed = 9
        """,
    )


class TestCliRank:
    def test_identical_samplers_tie(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _rank_config(tmp_path, step_b="5e-3")
        assert cli.main(["rank-samplers", "--config", str(config),
                         "--out", "r.csv"]) == 0
        body = [l for l in (tmp_path / "r.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert all(line.endswith(",tie") for line in body[1:])

    def test_small_step_preferred_everywhere(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _rank_config(tmp_path)
        cli.main(["rank-samplers", "--config", str(config), "--out", "r.csv"])
        body = [l for l in (tmp_path / "r.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(body) == 1 + 4
        assert all(line.endswith(",a") for line in body[1:])

    def test_one_scoring_call_per_sampler_and_n(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _rank_config(tmp_path)
        calls = []

        def recorder(batch, target, spec, m, seed, threads=1):
            calls.append((batch.n, list(m), list(seed)))
            return sksd(batch, target, spec, m, seed, threads=threads)

        sksd = cli.sksd
        monkeypatch.setattr(cli, "sksd", recorder)
        assert cli.main(["rank-samplers", "--config", str(config),
                         "--out", "r.csv", "--threads", "2"]) == 0
        expected = [
            (n, [4, 40], [derive_seed(9, "rank-score", n, m) for m in (4, 40)])
            for n in (300, 600)
            for _ in "ab"
        ]
        assert sorted(calls) == sorted(expected)


def _svgd_config(tmp_path, *, rounds, batch, init_lines, extra_lines=()):
    text = textwrap.dedent(
        """\
        [target]
        kind = gaussian
        dim = 1
        mu = 0
        sigma_sq = 1
        L = 20

        [kernel]
        family = rbf
        bandwidth = 1.0

        [svgd]
        rounds = {rounds}
        batch = {batch}
        step = 0.05
        schedule = adagrad
        bandwidth_policy = median_per_round
        seed = 5
        """
    ).format(rounds=rounds, batch=batch)
    text += "".join(f"{line}\n" for line in (*init_lines, *extra_lines))
    path = tmp_path / "svgd.ini"
    path.write_text(text)
    return path


class TestCliSsvgd:
    def test_zero_rounds_returns_init(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        init = SampleBatch(rng.standard_normal((12, 1)))
        io.write_samples_csv(tmp_path / "init.csv", init)
        config = _svgd_config(tmp_path, rounds=0, batch=5,
                              init_lines=["init = init.csv"])
        assert cli.main(["ssvgd", "--config", str(config), "--out", "p.csv"]) == 0
        out = io.read_samples_csv(tmp_path / "p.csv")
        assert np.array_equal(out.points, init.points)

    def test_term_eval_ratio_quarter_batch(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def run(batch, out):
            config = _svgd_config(
                tmp_path, rounds=8, batch=batch,
                init_lines=["init_n = 10", "init_mu = 0.5", "init_sigma = 0.5"],
            )
            cli.main(["ssvgd", "--config", str(config), "--out", out])
            lines = [l for l in (tmp_path / out.replace(".csv", ".diagnostics.jsonl"))
                     .read_text().splitlines() if l and not l.startswith("#")]
            return json.loads(lines[-1])["term_evals"]

        quarter = run(5, "quarter.csv")
        full = run(20, "full.csv")
        assert full == 4 * quarter == 8 * 10 * 20

    def test_diagnostics_report_ksd_and_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _svgd_config(
            tmp_path, rounds=6, batch=5,
            init_lines=["init_n = 8", "init_mu = 0.5", "init_sigma = 0.5"],
            extra_lines=["checkpoint_every = 3", "report_ksd = true",
                         "save_trajectory = true"],
        )
        cli.main(["ssvgd", "--config", str(config), "--out", "p.csv"])
        records = [json.loads(l) for l in
                   (tmp_path / "p.diagnostics.jsonl").read_text().splitlines()
                   if l and not l.startswith("#")]
        assert [r["round"] for r in records] == [3, 6]
        assert all("ksd" in r and r["ksd"] >= 0 for r in records)
        for round_no in (3, 6):
            snap = io.read_samples_csv(tmp_path / f"p.round-{round_no}.csv")
            assert snap.points.shape == (8, 1)
        final = io.read_samples_csv(tmp_path / "p.csv")
        assert np.array_equal(
            final.points,
            io.read_samples_csv(tmp_path / "p.round-6.csv").points,
        )

    @pytest.mark.parametrize("rounds, ksd_calls", [(6, 2), (7, 3)])
    def test_final_ksd_only_when_appended(self, tmp_path, monkeypatch,
                                          rounds, ksd_calls):
        # With checkpoint_every dividing rounds, the last checkpoint is the
        # final record and no separate final KSD is computed.
        monkeypatch.chdir(tmp_path)
        config = _svgd_config(
            tmp_path, rounds=rounds, batch=5,
            init_lines=["init_n = 8", "init_mu = 0.5", "init_sigma = 0.5"],
            extra_lines=["checkpoint_every = 3", "report_ksd = true"],
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return ksd(*args, **kwargs)

        monkeypatch.setattr(cli, "ksd", counted)
        assert cli.main(["ssvgd", "--config", str(config), "--out", "p.csv"]) == 0
        records = [json.loads(l) for l in
                   (tmp_path / "p.diagnostics.jsonl").read_text().splitlines()
                   if l and not l.startswith("#")]
        assert [r["round"] for r in records] == sorted({3, 6, rounds})
        assert all("ksd" in r for r in records)
        assert len(calls) == ksd_calls


def _curve_config(tmp_path, *, seeds=3, mu="0,0"):
    return _write(
        tmp_path / "curve.ini",
        f"""\
        [target]
        kind = gaussian
        dim = 2
        mu = 0
        sigma_sq = 1
        L = 4

        [kernel]
        family = imq
        beta = -0.5

        [curve]
        n_grid = 50
        m = 1
        seeds = {seeds}
        mu = {mu}
        sigma = 1.0
        seed = 2
        """,
    )


class TestCliCurve:
    def test_rows_and_reproducibility(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _curve_config(tmp_path)
        assert cli.main(["curve", "--config", str(config), "--out", "c.csv"]) == 0
        body = [l for l in (tmp_path / "c.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(body) == 1 + 3
        cli.main(["curve", "--config", str(config), "--out", "c2.csv"])
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()


def _svgd_init_n(tmp_path):
    return _svgd_config(tmp_path, rounds=1, batch=5, init_lines=["init_n = 4"])


def _score_d2_config(tmp_path):
    io.write_samples_csv(tmp_path / "samples.csv", SampleBatch(np.zeros((3, 2))))
    return _write(
        tmp_path / "score.ini",
        """\
        [target]
        kind = gaussian
        dim = 2
        L = 4

        [kernel]
        family = imq

        [score]
        samples = samples.csv
        """,
    )


def _svgd_init_csv(tmp_path):
    io.write_samples_csv(tmp_path / "init.csv", SampleBatch(np.zeros((3, 1))))
    return _svgd_config(tmp_path, rounds=1, batch=5, init_lines=["init = init.csv"])


def _gmm_config(tmp_path):
    return _write(
        tmp_path / "gmm.ini",
        """\
        [target]
        kind = gmm_posterior
        l = 20
        sigma1_sq = 10
        sigma_x_sq = 2
        data_seed = 1

        [kernel]
        family = imq

        [curve]
        n_grid = 10
        m = 2
        seeds = 1
        """,
    )


class TestConfigValidation:
    """Bad values fail with exit 2 and a message naming section and key,
    before any output is written."""

    @staticmethod
    def _assert_config_error(capsys, argv, message, out):
        assert cli.main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("old, new, message", [
        ("mu = 0", "mu = 0,1,2", "[target] mu has 3 values; expected 1 or dim = 2"),
        ("sigma_sq = 1", "sigma_sq = 1,2,3",
         "[target] sigma_sq has 3 values; expected 1 or dim = 2"),
        ("mu = 0", "mu = ", "[target] mu has 0 values; expected 1 or dim = 2"),
    ], ids=["mu", "sigma_sq", "empty-mu"])
    def test_target_lists_take_one_or_dim_values(self, mode_fixture, capsys,
                                                 old, new, message):
        tmp_path, config = mode_fixture
        bad = _write(tmp_path / "bad.ini", config.read_text().replace(old, new, 1))
        self._assert_config_error(
            capsys, ["score", "--config", str(bad)], message, "bad.json"
        )

    def test_curve_mu_takes_one_or_dim_values(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = _curve_config(tmp_path, mu="0,0,0")
        self._assert_config_error(
            capsys, ["curve", "--config", str(config)],
            "[curve] mu has 3 values; expected 1 or dim = 2", "c.csv",
        )

    def test_svgd_init_mu_takes_one_or_dim_values(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        config = _svgd_config(tmp_path, rounds=1, batch=5,
                              init_lines=["init_n = 4", "init_mu = 0,1"])
        self._assert_config_error(
            capsys, ["ssvgd", "--config", str(config)],
            "[svgd] init_mu has 2 values; expected 1 or dim = 1", "p.csv",
        )

    def test_dim_length_lists_match_one_value(self, mode_fixture):
        tmp_path, config = mode_fixture
        text = config.read_text()
        assert "mu = 0\nsigma_sq = 1\n" in text
        listed = _write(tmp_path / "listed.ini", text.replace(
            "mu = 0\nsigma_sq = 1\n", "mu = 0,0\nsigma_sq = 1,1\n"))
        for path, out in ((config, "one.json"), (listed, "listed.json")):
            assert cli.main(["score", "--config", str(path), "--out", out]) == 0
        one, listed_doc = (json.loads((tmp_path / name).read_text())
                           for name in ("one.json", "listed.json"))
        assert listed_doc["result"] == one["result"]

    def test_curve_seeds_must_be_positive(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = _curve_config(tmp_path, seeds=0)
        self._assert_config_error(
            capsys, ["curve", "--config", str(config)],
            "[curve] seeds = 0 is less than 1", "c.csv",
        )

    def test_headerless_observations_are_rejected(self, tmp_path, monkeypatch,
                                                  capsys):
        # Without a header the first observation used to be dropped.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "obs.csv").write_text("1.0\n2.0\n3.0\n")
        text = _gmm_config(tmp_path).read_text()
        bad = _write(tmp_path / "bad.ini", text.replace(
            "l = 20\n", "").replace("data_seed = 1", "data = obs.csv"))
        self._assert_config_error(
            capsys, ["curve", "--config", str(bad)],
            "obs.csv:1: expected a header row naming the columns, got numbers 1.0",
            "out.csv",
        )

    def test_tune_trials_must_be_positive(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = _tune_config(tmp_path, trials=0)
        self._assert_config_error(
            capsys, ["tune-sgld", "--config", str(config)],
            "[tune] trials = 0 is less than 1", "t.csv",
        )

    @pytest.mark.parametrize("old, new, message", [
        ("chain_steps = 80", "chain_steps = 0", "[tune] chain_steps = 0 is less than 1"),
        ("sgld_batch = 2", "sgld_batch = 7", "[tune] sgld_batch = 7 is not in [1, L=6]"),
        ("sgld_batch = 2", "sgld_batch = 0", "[tune] sgld_batch = 0 is not in [1, L=6]"),
        ("init = 0", "init = 0,0", "[tune] init has 2 values; expected 1 or dim = 1"),
    ], ids=["chain_steps", "sgld_batch-above-L", "sgld_batch-zero", "init"])
    def test_tune_chain_settings(self, tmp_path, monkeypatch, capsys, old, new,
                                 message):
        monkeypatch.chdir(tmp_path)
        text = _tune_config(tmp_path).read_text()
        bad = _write(tmp_path / "bad.ini", text.replace(old, new, 1))
        self._assert_config_error(
            capsys, ["tune-sgld", "--config", str(bad)], message, "t.csv"
        )

    @pytest.mark.parametrize("old, new, message", [
        ("step = 5e-3", "step = 0", "[sampler_a] step = 0.0 is not positive"),
        ("step = 0.5", "step = -0.5", "[sampler_b] step = -0.5 is not positive"),
        ("batch = 4", "batch = 41", "[sampler_a] batch = 41 is not in [1, L=40]"),
        ("batch = 4", "batch = 0", "[sampler_a] batch = 0 is not in [1, L=40]"),
        ("init = 0", "init = 0,0,0",
         "[sampler_a] init has 3 values; expected 1 or dim = 2"),
    ], ids=["step-zero", "step-negative", "batch-above-L", "batch-zero", "init"])
    def test_sampler_settings(self, tmp_path, monkeypatch, capsys, old, new,
                              message):
        monkeypatch.chdir(tmp_path)
        text = _rank_config(tmp_path).read_text()
        bad = _write(tmp_path / "bad.ini", text.replace(old, new, 1))
        self._assert_config_error(
            capsys, ["rank-samplers", "--config", str(bad)], message, "r.csv"
        )

    @pytest.mark.parametrize("grid, entry", [
        ("-1e-3", "-0.001"), ("5e-3,0", "0.0"), ("5e-3,nan", "nan"),
    ], ids=["negative", "zero", "nan"])
    def test_tune_step_sizes_must_be_positive(self, tmp_path, monkeypatch, capsys,
                                              grid, entry):
        monkeypatch.chdir(tmp_path)
        config = _tune_config(tmp_path, grid=grid)
        self._assert_config_error(
            capsys, ["tune-sgld", "--config", str(config)],
            f"[tune] eps_grid entry {entry} is not positive", "t.csv",
        )

    @pytest.mark.parametrize("section, key", [
        ("svgd", "rpunds_typo"), ("target", "sigma_sqq"), ("kernel", "bandwith"),
    ])
    def test_unknown_svgd_keys(self, tmp_path, monkeypatch, capsys, section, key):
        monkeypatch.chdir(tmp_path)
        text = _svgd_config(tmp_path, rounds=1, batch=5,
                            init_lines=["init_n = 4"]).read_text()
        bad = _write(tmp_path / "bad.ini",
                     text.replace(f"[{section}]\n", f"[{section}]\n{key} = 9\n", 1))
        self._assert_config_error(
            capsys, ["ssvgd", "--config", str(bad)],
            f"[{section}] {key} is not read by ssvgd", "p.csv",
        )

    def test_unknown_score_key(self, mode_fixture, capsys):
        tmp_path, config = mode_fixture
        bad = _write(tmp_path / "bad.ini", config.read_text() + "m_typo = 2\n")
        self._assert_config_error(
            capsys, ["score", "--config", str(bad)],
            "[score] m_typo is not read by score", "bad.json",
        )

    def test_unknown_tune_rank_and_curve_keys(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cases = (
            ("tune-sgld", _tune_config(tmp_path), "tune", "trails"),
            ("rank-samplers", _rank_config(tmp_path), "sampler_b", "stepp"),
            ("curve", _curve_config(tmp_path), "curve", "n_gird"),
        )
        for command, config, section, key in cases:
            bad = _write(tmp_path / "bad.ini", config.read_text().replace(
                f"[{section}]\n", f"[{section}]\n{key} = 3\n", 1))
            self._assert_config_error(
                capsys, [command, "--config", str(bad)],
                f"[{section}] {key} is not read by {command}", "out.csv",
            )

    def test_key_unused_by_this_config_fails(self, tmp_path, monkeypatch, capsys):
        # With init = <csv> the init_n key is never read.
        monkeypatch.chdir(tmp_path)
        io.write_samples_csv(tmp_path / "init.csv", SampleBatch(np.zeros((3, 1))))
        config = _svgd_config(tmp_path, rounds=1, batch=5,
                              init_lines=["init = init.csv", "init_n = 4"])
        self._assert_config_error(
            capsys, ["ssvgd", "--config", str(config)],
            "[svgd] init_n is not read by ssvgd", "p.csv",
        )

    def test_seed_overridden_on_the_command_line_is_read(self, mode_fixture):
        tmp_path, config = mode_fixture
        assert cli.main(["score", "--config", str(config), "--seed", "3",
                         "--out", "s.json"]) == 0
        assert json.loads((tmp_path / "s.json").read_text())["config"]["seed"] == "3"

    @pytest.mark.parametrize("make, command, old, new, message", [
        (_tune_config, "tune-sgld", "eps_grid = 5e-3", "eps_grid = 1e-3,1e-3",
         "[tune] eps_grid lists 0.001 twice"),
        (_tune_config, "tune-sgld", "m_list = 2,full", "m_list = 2,2",
         "[tune] m_list lists 2 twice"),
        (_tune_config, "tune-sgld", "m_list = 2,full", "m_list = 6,full",
         "[tune] m_list lists 6 twice"),
        (_rank_config, "rank-samplers", "m_list = 4,full", "m_list = 40,full",
         "[rank] m_list lists 40 twice"),
        (_rank_config, "rank-samplers", "n_grid = 300,600", "n_grid = 300,300",
         "[rank] n_grid lists 300 twice"),
        (_curve_config, "curve", "n_grid = 50", "n_grid = 50,50",
         "[curve] n_grid lists 50 twice"),
    ], ids=["tune-eps", "tune-m", "tune-m-full", "rank-m-full", "rank-n", "curve-n"])
    def test_grid_entries_must_be_distinct(self, tmp_path, monkeypatch, capsys,
                                           make, command, old, new, message):
        # A repeated entry is the same cell, derived seeds included, counted
        # twice: tune-sgld used to report each duplicate with twice the trials.
        self._assert_edit_rejected(tmp_path, monkeypatch, capsys, make, command,
                                   old, new, message)

    @pytest.mark.parametrize("make, command, old, new, message", [
        (_svgd_init_n, "ssvgd", "schedule = adagrad", "schedule = foo",
         "[svgd] schedule = 'foo' is not one of constant, adagrad"),
        (_svgd_init_n, "ssvgd", "bandwidth_policy = median_per_round",
         "bandwidth_policy = Median_per_round",
         "[svgd] bandwidth_policy = 'Median_per_round' is not one of fixed, median_per_round"),
        (_svgd_init_n, "ssvgd", "rounds = 1", "rounds = -1",
         "[svgd] rounds = -1 is less than 0"),
        (_svgd_init_n, "ssvgd", "step = 0.05", "step = 0",
         "[svgd] step = 0.0 is not positive"),
        (_svgd_init_n, "ssvgd", "init_n = 4", "init_n = 4\ncheckpoint_every = -1",
         "[svgd] checkpoint_every = -1 is less than 0"),
        (_svgd_init_n, "ssvgd", "init_n = 4", "init_n = 0",
         "[svgd] init_n = 0 is less than 1"),
        (_svgd_init_n, "ssvgd", "init_n = 4", "init_n = 4\ninit_sigma = 0",
         "[svgd] init_sigma = 0.0 is not positive"),
        (_curve_config, "curve", "L = 4", "L = 0", "[target] L = 0 is less than 1"),
        (_curve_config, "curve", "sigma_sq = 1", "sigma_sq = 0",
         "[target] sigma_sq entry 0.0 is not positive"),
        (_curve_config, "curve", "dim = 2", "dim = 0", "[target] dim = 0 is less than 1"),
        (_gmm_config, "curve", "sigma1_sq = 10", "sigma1_sq = 0",
         "[target] sigma1_sq = 0.0 is not positive"),
        (_gmm_config, "curve", "sigma_x_sq = 2", "sigma_x_sq = -1",
         "[target] sigma_x_sq = -1.0 is not positive"),
        (_rank_config, "rank-samplers", "n = 40", "n = 0", "[target] n = 0 is less than 1"),
        (_rank_config, "rank-samplers", "d = 2", "d = 0", "[target] d = 0 is less than 1"),
        (_curve_config, "curve", "sigma = 1.0", "sigma = -1",
         "[curve] sigma = -1.0 is not positive"),
        (_curve_config, "curve", "beta = -0.5", "beta = -2",
         "[kernel] beta = -2.0 is not in (-1, 0) for family imq"),
        (_curve_config, "curve", "family = imq\nbeta = -0.5",
         "family = log_inverse\nbeta = 0.5",
         "[kernel] beta = 0.5 is not negative for family log_inverse"),
        (_curve_config, "curve", "family = imq\nbeta = -0.5",
         "family = log_inverse\nbeta = -0.5\nalpha = 0",
         "[kernel] alpha = 0.0 is not positive for family log_inverse"),
        (_svgd_init_n, "ssvgd", "bandwidth = 1.0", "bandwidth = 0",
         "[kernel] bandwidth = 0.0 is not positive"),
    ], ids=["schedule", "bandwidth_policy", "rounds", "svgd-step", "checkpoint_every",
            "init_n", "init_sigma", "L", "sigma_sq", "dim", "gmm-sigma1_sq",
            "gmm-sigma_x_sq", "logreg-n", "logreg-d", "curve-sigma", "imq-beta",
            "log_inverse-beta", "log_inverse-alpha", "bandwidth"])
    def test_ranges_name_section_and_key(self, tmp_path, monkeypatch, capsys,
                                         make, command, old, new, message):
        self._assert_edit_rejected(tmp_path, monkeypatch, capsys, make, command,
                                   old, new, message)

    @pytest.mark.parametrize("make, command, old, new, message", [
        (_svgd_init_n, "ssvgd", "init_n = 4", "init_n = 4\nfudge = -1",
         "[svgd] fudge = -1.0 is not positive"),
        (_curve_config, "curve", "sigma_sq = 1", "sigma_sq = inf",
         "[target] sigma_sq entry inf is not finite"),
        (_svgd_init_n, "ssvgd", "bandwidth = 1.0", "bandwidth = inf",
         "[kernel] bandwidth = inf is not finite"),
        (_curve_config, "curve", "mu = 0\n", "mu = nan\n",
         "[target] mu entry nan is not finite"),
        (_curve_config, "curve", "mu = 0,0", "mu = 0,inf",
         "[curve] mu entry inf is not finite"),
        (_tune_config, "tune-sgld", "eps_grid = 5e-3", "eps_grid = 5e-3,inf",
         "[tune] eps_grid entry inf is not finite"),
        # An empty list entry used to be dropped: init = 0,,1 ran from [0, 1].
        (_tune_config, "tune-sgld", "init = 0", "init = 0,,1",
         "[tune] init = '0,,1' has an empty entry"),
        (_tune_config, "tune-sgld", "eps_grid = 5e-3", "eps_grid = 1e-3, ,1e-2",
         "[tune] eps_grid = '1e-3, ,1e-2' has an empty entry"),
        (_rank_config, "rank-samplers", "m_list = 4,full", "m_list = 4,full,",
         "[rank] m_list = '4,full,' has an empty entry"),
    ], ids=["fudge", "sigma_sq-inf", "bandwidth-inf", "mu-nan", "curve-mu-inf", "eps-inf",
            "empty-coordinate-entry", "empty-grid-entry", "trailing-comma"])
    def test_values_once_accepted_silently(self, tmp_path, monkeypatch, capsys,
                                           make, command, old, new, message):
        self._assert_edit_rejected(tmp_path, monkeypatch, capsys, make, command,
                                   old, new, message)

    @pytest.mark.parametrize("make, command, old, new, message", [
        (_rank_config, "rank-samplers", "w_true = 0.3,-0.2", "w_true = 0.3,-0.2,0.1",
         "[target] w_true has 3 values; expected d = 2"),
        (_curve_config, "curve", "beta = -0.5", "beta = abc",
         "[kernel] beta = 'abc' is not a number"),
        (_curve_config, "curve", "family = imq\n", "", "[kernel] is missing the 'family' key"),
        (_curve_config, "curve", "family = imq", "family = triangle",
         "[kernel] family = 'triangle' is not one of imq, log_inverse, rbf"),
        (_score_d2_config, "score", "dim = 2", "dim = 3",
         "[score] samples = 'samples.csv' has dimension 2, target expects 3"),
        (_svgd_init_csv, "ssvgd", "dim = 1", "dim = 2",
         "[svgd] init = 'init.csv' has dimension 1, target expects 2"),
        (_svgd_init_n, "ssvgd", "init_n = 4", "init_n = 4\nsave_trajectory = true",
         "[svgd] save_trajectory = true writes a round-*.csv at each checkpoint, "
         "but checkpoint_every = 0 makes none"),
    ], ids=["w_true-length", "beta-not-a-number", "family-missing", "family-unknown",
            "samples-dimension", "init-dimension", "trajectory-without-checkpoints"])
    def test_messages_name_the_key(self, tmp_path, monkeypatch, capsys,
                                   make, command, old, new, message):
        self._assert_edit_rejected(tmp_path, monkeypatch, capsys, make, command,
                                   old, new, message)

    @pytest.mark.parametrize("init, message", [
        ("init_n = 1", "[svgd] init_n = 1, but"),
        ("init = one.csv", "[svgd] init = 'one.csv' has 1 row, but"),
    ], ids=["init_n", "init-csv"])
    def test_median_bandwidth_needs_two_particles(self, tmp_path, monkeypatch, capsys,
                                                  init, message):
        monkeypatch.chdir(tmp_path)
        io.write_samples_csv(tmp_path / "one.csv", SampleBatch(np.zeros((1, 1))))
        config = _svgd_config(tmp_path, rounds=3, batch=5, init_lines=[init])
        inputs = sorted(os.listdir(tmp_path))
        self._assert_config_error(
            capsys, ["ssvgd", "--config", str(config)],
            f"{message} bandwidth_policy = median_per_round needs at least 2 "
            "particles when rounds >= 1", "p.csv",
        )
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("rounds, policy", [(0, "median_per_round"), (3, "fixed")])
    def test_one_particle_runs_without_a_median(self, tmp_path, monkeypatch,
                                                rounds, policy):
        monkeypatch.chdir(tmp_path)
        text = _svgd_config(tmp_path, rounds=rounds, batch=5,
                            init_lines=["init_n = 1"]).read_text()
        config = _write(tmp_path / "one.ini", text.replace(
            "bandwidth_policy = median_per_round", f"bandwidth_policy = {policy}"))
        assert cli.main(["ssvgd", "--config", str(config), "--out", "p.csv"]) == 0
        assert io.read_samples_csv(tmp_path / "p.csv").points.shape == (1, 1)

    def _assert_edit_rejected(self, tmp_path, monkeypatch, capsys, make, command,
                              old, new, message):
        monkeypatch.chdir(tmp_path)
        text = make(tmp_path).read_text()
        assert old in text
        bad = _write(tmp_path / "bad.ini", text.replace(old, new, 1))
        self._assert_config_error(capsys, [command, "--config", str(bad)], message,
                                  "out.csv")

    def test_seeded_w_true_is_echoed(self, tmp_path, monkeypatch):
        # Without w_true the weights are drawn from data_seed, and the echo
        # holds the drawn values so the run can be regenerated from it.
        monkeypatch.chdir(tmp_path)
        text = _rank_config(tmp_path).read_text()
        drawn = _write(tmp_path / "drawn.ini", text.replace("w_true = 0.3,-0.2\n", ""))
        assert cli.main(["rank-samplers", "--config", str(drawn), "--out", "d.csv"]) == 0
        echoed = dict(line[2:].split(" = ") for line in
                      (tmp_path / "d.csv").read_text().splitlines() if line.startswith("#"))
        pinned = _write(tmp_path / "pinned.ini", text.replace(
            "w_true = 0.3,-0.2", f"w_true = {echoed['target.w_true']}"))
        assert cli.main(["rank-samplers", "--config", str(pinned), "--out", "p.csv"]) == 0
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


class _ConfigAccepted(Exception):
    pass


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDENS = Path(__file__).resolve().parent / "goldens"
PERFBENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
COMMAND_SECTIONS = {"score": "score", "tune": "tune-sgld", "rank": "rank-samplers",
                    "svgd": "ssvgd", "curve": "curve"}


def _command_for(config):
    """The command whose own section the config holds."""
    sections = io.load_config(config)
    return next(cmd for name, cmd in COMMAND_SECTIONS.items() if name in sections)


def _assert_config_accepted(config, monkeypatch):
    """Run the command of ``config`` up to its first compute call, which
    comes after every section has been read and checked."""
    def stop(*args, **kwargs):
        raise _ConfigAccepted

    for name in ("sksd", "ksd", "sgld_chain", "iid_gaussian", "run_ssvgd"):
        monkeypatch.setattr(cli, name, stop)
    with pytest.raises(_ConfigAccepted):
        cli.main([_command_for(config), "--config", str(config), "--out", "out"])


SHIPPED_CONFIGS = [
    *sorted(CONFIGS.glob("*.ini")),
    *(GOLDENS / f"perfbench_{name}.ini"
      for name in ("ssvgd_seed7001", "tune_reference", "tune_seed7001")),
]


@pytest.mark.parametrize(
    "command, config", [(_command_for(path), path) for path in SHIPPED_CONFIGS],
    ids=lambda value: getattr(value, "stem", value),
)
def test_shipped_configs_have_no_unread_keys(tmp_path, monkeypatch, command, config):
    monkeypatch.chdir(tmp_path)
    io.write_samples_csv(tmp_path / "samples.csv", SampleBatch(np.zeros((3, 2))))
    _assert_config_accepted(config, monkeypatch)


@pytest.mark.parametrize("workload", ["score-d8", "tune-gmm", "ssvgd-n50"])
def test_perfbench_inputs_are_accepted(tmp_path, monkeypatch, workload):
    # A config the field tables reject would fail every benchmark run.  The
    # module is only read: no bytecode is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    monkeypatch.chdir(tmp_path)
    configs = [inputs.write_inputs(workload, 7001, tmp_path / "seed"),
               inputs.write_reference_inputs(workload, tmp_path / "reference")]
    assert configs[0] is not None
    for config in filter(None, configs):
        _assert_config_accepted(config, monkeypatch)


def _with_src_on_path(env):
    """``env`` with the tested package's source directory first on
    PYTHONPATH, so a child interpreter imports the same package."""
    src = str(Path(steinlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steinlab.cli", "--help"],
            env=_with_src_on_path(dict(os.environ)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "tune-sgld" in proc.stdout


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreadCount:
    """Command outputs do not depend on how many threads BLAS uses: SSVGD
    directions go through matrix products."""

    def _run_commands(self, workdir, blas_threads):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        if blas_threads is not None:
            env.update({k: str(blas_threads) for k in BLAS_THREAD_VARS})
        _with_src_on_path(env)
        for command, out in (("score", "score.json"), ("ssvgd", "particles.csv")):
            proc = subprocess.run(
                [sys.executable, "-m", "steinlab.cli", command,
                 "--config", "run.ini", "--out", out, "--threads", "2"],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    def test_pinned_and_default_blas_write_identical_files(self, tmp_path):
        config = textwrap.dedent("""\
            [target]
            kind = gaussian
            dim = 3
            mu = 0
            sigma_sq = 1
            L = 6

            [kernel]
            family = imq
            beta = -0.5

            [score]
            samples = samples.csv
            m = 2
            seed = 7

            [svgd]
            rounds = 4
            batch = 3
            step = 0.05
            bandwidth_policy = median_per_round
            checkpoint_every = 2
            report_ksd = true
            save_trajectory = true
            init_n = 300
            init_mu = 0.5
            init_sigma = 0.5
            seed = 7
            """)
        outputs = []
        for label, blas_threads in (("pinned", 1), ("default", None)):
            workdir = tmp_path / label
            workdir.mkdir()
            (workdir / "run.ini").write_text(config)
            io.write_samples_csv(workdir / "samples.csv",
                                 iid_gaussian(300, 3, 0.2, 1.0, seed=4))
            outputs.append(self._run_commands(workdir, blas_threads))
        pinned, default = outputs
        assert "score.json" in pinned and "particles.round-4.csv" in pinned
        assert pinned == default


class TestLibraryJsonRoundTrip:
    def test_result_document_survives_json(self, tmp_path):
        target = make_gaussian(0.0, 1.0, 3, dim=2)
        batch = SampleBatch(np.array([[0.2, -0.4], [1.0, 0.5]]))
        result = ksd(batch, target, IMQ)
        path = tmp_path / "r.json"
        io.write_json(path, result.to_dict())
        loaded = json.loads(path.read_text())
        assert loaded["value"] == result.value
        assert loaded["w_sq"] == [float(v) for v in result.w_sq]
