"""End-to-end tests of the command-line surface."""

from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mixexact
from mixexact import cli, lattice
from mixexact.cli import ingest
from mixexact.errors import IngestError

WORKED = "0\n0\n0\n1\n2\n2\n4\n"

# every RunConfig field but the subcommand's own is a config-document key
DOCUMENT_KEYS = [
    f.name for f in fields(cli.RunConfig) if f.name not in ("command", "compare", "dump_table")
]

# document values of the wrong JSON type or shape, each with what the error must name
BAD_DOCUMENTS = {
    "grid-string": ({"grid": "0,5,10"}, "grid"),
    "grid-points-float": ({"grid": {"lower": 0.1, "upper": 5, "points": 2.5}}, "grid.points"),
    "param-number": ({"param": 5}, "param"),
    "family-number": ({"family": 3}, "family"),
    "family-unknown": ({"family": "gauss"}, "family must be one of"),
    "data-number": ({"data": 7}, "data"),
    "out-number": ({"out": 1}, "out"),
    "k-bool": ({"k": True}, "k"),
    "k-float": ({"k": 2.0}, "k"),
    "alpha-string": ({"alpha": "11"}, "alpha"),  # read as two entries "1", "1"
    "component-extra-key": ({"components": [{"shape": 1, "rate": 1, "bogus": 9}] * 2}, "components[0]"),
    "component-missing-key": ({"components": [{"shape": 1}] * 2}, "components[0]"),
    "component-string-value": ({"components": [{"shape": "1", "rate": 1}] * 2}, "components[0].shape"),
    "synthetic-missing-field": (
        {"data": None, "synthetic": "poisson:n=3", "seed": 1}, "--synthetic poisson takes n=..,rate=.."
    ),
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED)
    return str(path)


class TestIngest:
    def test_poisson_lines(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("0\n0\n1\n")
        data, report = ingest(str(path), "poisson")
        assert data == [0, 0, 1]
        assert report == {"n": 3, "min": 0, "max": 1, "sum": 1}

    def test_multinomial_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("3,1\n0,4\n")
        data, report = ingest(str(path), "multinomial")
        assert data == [(3, 1), (0, 4)]
        assert report["n"] == 2

    def test_normal_lines(self, tmp_path):
        path = tmp_path / "reals.txt"
        path.write_text("-0.5\n1.25\n")
        data, _ = ingest(str(path), "normal")
        assert data == [-0.5, 1.25]

    def test_negative_count_names_line_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1\n")
        with pytest.raises(IngestError, match="line 1"):
            ingest(str(path), "poisson")

    def test_parse_failure_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\nx\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest(str(path), "poisson")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("1\n\n2\n\n")
        data, _ = ingest(str(path), "poisson")
        assert data == [1, 2]

    def test_missing_file(self):
        with pytest.raises(IngestError):
            ingest("/nonexistent/data.txt", "poisson")

    def test_ragged_multinomial_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(IngestError):
            ingest(str(path), "multinomial")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(IngestError):
            ingest(str(path), "poisson")


class TestSubcommands:
    def test_enumerate_conservation_line(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("0\n0\n")
        code, out, _ = run_cli(
            capsys, "enumerate", "--data", str(path), "--family", "poisson", "--k", "2"
        )
        assert code == 0
        assert "distinct=3 total=4 expected=4 OK" in out

    def test_evidence_single_count(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0\n")
        code, out, _ = run_cli(
            capsys, "evidence", "--data", str(path), "--family", "poisson", "--k", "1"
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1])
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    def test_posterior_summary_artifact(self, capsys, worked_file, tmp_path):
        out_path = tmp_path / "summary.txt"
        code, _, _ = run_cli(
            capsys,
            "posterior",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--gamma",
            "1,1;1,10",
            "--out",
            str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        fields = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert fields["distinct"] == "42"
        assert fields["mass99"] == "14"
        assert float(fields["E_p1"]) == pytest.approx(0.6485753850390694, rel=1e-12)

    def test_marginal_csv(self, capsys, worked_file, tmp_path):
        out_path = tmp_path / "lambda1.csv"
        code, _, _ = run_cli(
            capsys,
            "marginal",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--param",
            "lambda1",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "param,density"
        assert len(lines) == 513

    def test_default_lambda_grid_covers_the_mass(self, capsys, worked_file, tmp_path):
        # the README example: the rate-10 component puts lambda2's mass
        # below 0.01, which a display grid starting there used to miss
        out_path = tmp_path / "lambda2.csv"
        code, _, _ = run_cli(
            capsys, "marginal", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--gamma", "1,1;1,10", "--param", "lambda2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 513
        grid, density = np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).T
        assert abs(np.trapezoid(density, grid) - 1.0) <= 1e-4

    def test_marginal_explicit_grid(self, capsys, worked_file):
        code, out, _ = run_cli(
            capsys,
            "marginal",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--param",
            "p1",
            "--grid",
            "0.1,0.9,5",
        )
        assert code == 0
        assert len(out.strip().splitlines()) >= 6

    def test_marginal_multinomial_category(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("3,1,0\n0,2,2\n1,1,1\n")
        code, out, _ = run_cli(
            capsys,
            "marginal",
            "--data",
            str(path),
            "--family",
            "multinomial",
            "--k",
            "2",
            "--param",
            "q1,2",
        )
        assert code == 0
        lines = out.splitlines()
        header_at = lines.index("param,density")
        assert len(lines) - header_at == 513

    def test_concentration_prints_count(self, capsys, worked_file):
        code, out, _ = run_cli(
            capsys,
            "concentration",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--gamma",
            "1,1;1,10",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "14"

    def test_concentration_threshold_flag(self, capsys, worked_file):
        code, out, _ = run_cli(
            capsys,
            "concentration",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--threshold",
            "0.5",
        )
        assert code == 0
        assert int(out.strip().splitlines()[-1]) >= 1

    def test_oracle_compare_match(self, capsys, worked_file):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--gamma",
            "1,1;1,10",
            "--compare",
        )
        assert code == 0
        match_line = [line for line in out.splitlines() if line.startswith("MATCH")]
        assert match_line, out
        max_rel = float(match_line[0].rsplit("max_rel=", 1)[1])
        assert max_rel <= 1e-10

    def test_oracle_weight_table(self, capsys, worked_file, tmp_path):
        table = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys,
            "oracle",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--dump-table",
            str(table),
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "allocation,statistic,log_weight"
        assert len(lines) == 1 + 2**7

    def test_enumerate_dump_artifact_loads(self, capsys, worked_file, tmp_path):
        out_path = tmp_path / "lattice.tsv"
        code, _, _ = run_cli(
            capsys,
            "enumerate",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--out",
            str(out_path),
        )
        assert code == 0
        loaded = lattice.load(out_path.read_text())
        assert loaded.distinct_count() == 42
        assert loaded.total_count() == 128


class TestSynthetic:
    def test_seeded_generator_is_reproducible(self, capsys):
        args = ("evidence", "--synthetic", "poisson:n=15,rate=2", "--seed", "9", "--k", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_mixture_generator(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evidence",
            "--synthetic",
            "mixture:n=10,weight=0.4,rate1=1,rate2=8",
            "--seed",
            "3",
            "--k",
            "2",
        )
        assert code == 0
        float(out.strip().splitlines()[-1])

    def test_synthetic_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "evidence", "--synthetic", "poisson:n=5,rate=1")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("n", ["3.7", "inf"])
    def test_size_must_be_whole_and_finite(self, capsys, n):
        code, out, err = run_cli(capsys, "evidence", "--synthetic", f"poisson:n={n},rate=2", "--seed", "1")
        assert code == 2
        assert err == f"error: --synthetic poisson takes a whole, finite n, got {float(n)!r}\n"
        assert out == ""

    def test_repeated_key_rejected(self, capsys):
        code, out, err = run_cli(capsys, "evidence", "--synthetic", "poisson:n=3,n=9,rate=1", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error: --synthetic poisson repeats the key 'n'\n"

    def test_unknown_kind_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "evidence", "--synthetic", "negbin:n=5,r=2", "--seed", "1"
        )
        assert code == 2


class TestConfigResolution:
    def test_json_config(self, capsys, tmp_path, worked_file):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "family": "poisson",
                    "k": 2,
                    "data": worked_file,
                    "alpha": [1, 1],
                    "components": [
                        {"shape": 1, "rate": 1},
                        {"shape": 1, "rate": 10},
                    ],
                }
            )
        )
        code, out, _ = run_cli(capsys, "evidence", "--config", str(config))
        assert code == 0
        value = float(out.strip().splitlines()[-1])
        assert math.exp(value) == pytest.approx(3.76384520427329e-06, rel=1e-12)

    def test_flags_override_config(self, capsys, tmp_path, worked_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "poisson", "k": 2, "data": worked_file}))
        _, base, _ = run_cli(capsys, "evidence", "--config", str(config))
        _, overridden, _ = run_cli(
            capsys, "evidence", "--config", str(config), "--alpha", "3,1"
        )
        assert base != overridden

    def test_unknown_config_key_rejected(self, capsys, tmp_path, worked_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "poisson", "data": worked_file, "bogus": 1}))
        code, _, err = run_cli(capsys, "evidence", "--config", str(config))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "key, value", [("command", "oracle"), ("compare", True), ("dump_table", "table.csv")]
    )
    def test_command_line_field_is_no_config_key(self, capsys, tmp_path, worked_file, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "poisson", "data": worked_file, key: value}))
        code, out, err = run_cli(capsys, "oracle", "--config", str(config))
        assert code == 2
        assert err.startswith("error: unknown config keys") and key in err
        assert out == ""

    def test_threads_is_no_setting(self, capsys, tmp_path, worked_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "poisson", "data": worked_file, "threads": 2}))
        code, out, err = run_cli(capsys, "evidence", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: unknown config keys: ['threads']\n"
        with pytest.raises(SystemExit) as exited:
            cli.main(["evidence", "--data", worked_file, "--family", "poisson", "--threads", "2"])
        assert exited.value.code == 2

    def test_empty_string_flags_leave_the_setting(self, capsys, tmp_path, worked_file):
        # as with an unset $OUT: --out "" writes to stdout, --alpha "" keeps the document's alpha
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "poisson", "k": 2, "data": worked_file, "alpha": [3, 1]}))
        _, expected, _ = run_cli(capsys, "evidence", "--config", str(config))
        code, out, err = run_cli(capsys, "evidence", "--config", str(config), "--alpha", "", "--out", "")
        assert (code, err) == (0, "")
        assert out == expected

    @pytest.mark.parametrize("key", DOCUMENT_KEYS)
    def test_every_setting_is_a_config_key(self, capsys, tmp_path, worked_file, key):
        values = {
            "family": "poisson", "k": 2, "alpha": [1, 1], "components": [{"shape": 1, "rate": 1}] * 2,
            "data": worked_file, "seed": 3, "synthetic": "poisson:n=5,rate=2", "param": "p1",
            "grid": {"lower": 0.1, "upper": 0.9, "points": 5}, "threshold": 0.5,
            "entry_budget": 1000, "oracle_cap": 1000, "out": str(tmp_path / "p1.csv"),
        }
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"family": "poisson", "data": worked_file, "param": "p1", key: values[key]})
        )
        code, _, err = run_cli(capsys, "marginal", "--config", str(config))
        assert code == 0, err

    @pytest.mark.parametrize("override, named", BAD_DOCUMENTS.values(), ids=list(BAD_DOCUMENTS))
    def test_wrong_value_type_is_2(self, capsys, tmp_path, worked_file, override, named):
        config = tmp_path / "run.json"
        document = {"family": "poisson", "k": 2, "data": worked_file, "param": "lambda1"}
        config.write_text(json.dumps({**document, **override}))
        code, _, err = run_cli(capsys, "marginal", "--config", str(config))
        assert code == 2
        assert err.startswith(f"error: {named}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--gamma", "1,1;1,1", "--beta", "1,1;1,1"), "exclusive"),
            (("--beta", "1,1;1,1"), "--beta"),
            (("--gamma", "1,1,2;1,1"), "shape,rate"),
            (("--grid", "0,5"), "--grid"),
            (("--grid", "0,5,inf"), "--grid"),
            (("--grid", "0,,5,10"), "empty cell"),
            (("--gamma", "1,1;1,,10"), "empty cell"),
            (("--alpha", "1,,1"), "empty cell"),
            (("--alpha", "1,1,"), "empty cell"),
        ],
        ids=[
            "two-prior-flags", "flag-off-family", "prior-arity", "grid-pair", "grid-inf-points",
            "grid-empty-cell", "gamma-empty-cell", "alpha-inner-empty-cell", "alpha-trailing-empty-cell",
        ],
    )
    def test_flag_misuse_is_2(self, capsys, worked_file, flags, named):
        code, _, err = run_cli(
            capsys, "marginal", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--param", "lambda1", *flags,
        )
        assert code == 2
        assert err.startswith("error:")
        assert named in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code, _, _ = run_cli(capsys, "evidence", "--config", str(config))
        assert code == 2


class TestExitCodes:
    def test_invalid_config_is_2(self, capsys, worked_file):
        code, _, _ = run_cli(
            capsys, "evidence", "--data", worked_file, "--family", "poisson", "--k", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("param", ["zeta1", "lambda", "q1", "lambda1,2", "p1,1", "q1,x", "p3"])
    def test_bad_marginal_param_is_2(self, capsys, worked_file, param):
        code, out, err = run_cli(
            capsys,
            "marginal",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--param",
            param,
        )
        assert code == 2
        assert err.startswith("error:") and param in err
        assert "param,density" not in out

    def test_normal_engine_run_is_2(self, capsys, tmp_path):
        path = tmp_path / "reals.txt"
        path.write_text("0.5\n1.5\n")
        code, _, err = run_cli(
            capsys,
            "posterior",
            "--data",
            str(path),
            "--family",
            "normal",
            "--k",
            "2",
            "--nig",
            "0,1,3,2;0,1,3,2",
        )
        assert code == 2
        assert "oracle" in err

    def test_normal_oracle_compare_is_2_before_any_artifact(self, capsys, tmp_path):
        path = tmp_path / "reals.txt"
        path.write_text("0.5\n1.5\n")
        out_path, table = tmp_path / "o.txt", tmp_path / "table.csv"
        code, out, err = run_cli(
            capsys, "oracle", "--data", str(path), "--family", "normal", "--k", "2",
            "--nig", "0,1,3,2;0,1,3,2", "--compare", "--out", str(out_path), "--dump-table", str(table),
        )
        assert code == 2
        assert err == "error: normal-family lattices are not supported; use the oracle\n"
        assert out == "ingest n=2 min=0.5 max=1.5 sum=2.0\n"
        assert not out_path.exists() and not table.exists()

    def test_category_marginal_on_poisson_is_2(self, capsys, worked_file):
        code, out, err = run_cli(
            capsys, "marginal", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--param", "q1,1",
        )
        assert code == 2
        assert "no categories" in err
        assert "param,density" not in out

    def test_ingestion_failure_is_3(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n-2\n")
        code, _, err = run_cli(
            capsys, "evidence", "--data", str(path), "--family", "poisson"
        )
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize("row", ["1,,2", "1,0,2,"])
    def test_multinomial_empty_cell_is_3(self, capsys, tmp_path, row):
        path = tmp_path / "rows.csv"
        path.write_text(f"2,1,0\n{row}\n")
        code, _, err = run_cli(
            capsys, "evidence", "--data", str(path), "--family", "multinomial"
        )
        assert code == 3
        assert "line 2" in err
        assert "empty cell" in err

    def test_missing_file_is_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "evidence", "--data", "/nonexistent.txt", "--family", "poisson"
        )
        assert code == 3

    def test_resource_limit_is_4(self, capsys, worked_file):
        code, _, err = run_cli(
            capsys,
            "enumerate",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "4",
            "--budget",
            "10",
        )
        assert code == 4
        assert err == "error: entry budget 10 exceeded at 20 entries on observation 3\n"

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB for an array"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_4(self, capsys, worked_file, monkeypatch, error, message):
        # stands in for numpy failing to allocate, say, a 1e12-point --grid
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.posterior, "marginal_component_density", exhausted)
        code, _, err = run_cli(
            capsys, "marginal", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--param", "lambda1",
        )
        assert code == 4
        assert err == f"error: {message}\n"

    def test_unwritable_out_is_2(self, capsys, worked_file, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        code, stdout, err = run_cli(
            capsys, "posterior", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--out", str(out),
        )
        assert code == 2
        assert stdout == "ingest n=7 min=0 max=4 sum=9\n"
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_directory_out_is_2(self, capsys, worked_file, tmp_path):
        code, _, err = run_cli(
            capsys, "enumerate", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_unwritable_dump_table_is_2(self, capsys, worked_file, tmp_path):
        table = tmp_path / "missing" / "t.csv"
        code, stdout, err = run_cli(
            capsys, "oracle", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--dump-table", str(table),
        )
        assert code == 2
        assert "distinct=42" in stdout  # the summary went out before the table
        assert err == f"error: cannot write {table}: No such file or directory\n"

    def test_budget_covers_the_first_observation(self, capsys):
        code, stdout, err = run_cli(
            capsys, "enumerate", "--synthetic", "poisson:n=1,rate=2", "--seed", "1", "--k", "4",
            "--budget", "1",
        )
        assert code == 4
        assert "distinct=" not in stdout
        assert err.startswith("error: entry budget 1 exceeded at 4 entries on observation 1")

    def test_single_component_weight_marginal_is_2(self, capsys, worked_file):
        code, stdout, err = run_cli(
            capsys, "marginal", "--data", worked_file, "--family", "poisson", "--k", "1",
            "--param", "p1",
        )
        assert code == 2
        assert "param,density" not in stdout
        assert err == "error: p1 is identically 1 when k = 1; it has no density\n"

    def test_oracle_cap_is_5(self, capsys, worked_file):
        code, _, _ = run_cli(
            capsys,
            "oracle",
            "--data",
            worked_file,
            "--family",
            "poisson",
            "--k",
            "2",
            "--cap",
            "5",
        )
        assert code == 5

    def test_exit_code_reaches_the_shell(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mixexact.cli", "evidence", "--data", str(path), "--family", "poisson"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3


    def test_non_finite_evidence_is_6_without_traceback(self, worked_file):
        proc = subprocess.run(
            [
                sys.executable, "-m", "mixexact.cli", "evidence", "--data", worked_file,
                "--family", "poisson", "--k", "2", "--alpha", "1e308,1e308",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert "nan" not in proc.stdout

    def test_non_finite_density_is_6_without_traceback(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n3\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "mixexact.cli", "marginal", "--data", str(path),
                "--family", "poisson", "--k", "2", "--gamma", "0.5,1;0.5,1",
                "--param", "lambda1", "--grid", "0,5,4",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "inf" not in proc.stdout

    def test_divergent_weight_grid_is_6_with_one_error_line(self, tmp_path):
        # Beta(3.5, 0.5) has its 1 - 1e-8 quantile at 1.0, where it diverges
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n3\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "mixexact.cli", "marginal", "--data", str(path),
                "--family", "poisson", "--k", "2", "--alpha", "0.5,0.5", "--param", "p1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr == "error: density diverges at the support edge 1.0; pass an explicit grid (--grid)\n"
        assert proc.stdout == "ingest n=3 min=0 max=3 sum=3\n"


class TestDeterminism:
    def test_repeated_artifacts_are_byte_identical(self, capsys, worked_file, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        for out_path in (first, second):
            code, _, _ = run_cli(
                capsys,
                "posterior",
                "--data",
                worked_file,
                "--family",
                "poisson",
                "--k",
                "2",
                "--gamma",
                "1,1;1,10",
                "--out",
                str(out_path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


COLD_IMPORT_PROBE = """
import sys
import mixexact.cli
print(sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules))
from mixexact import lattice, oracle, posterior
from mixexact.families import PoissonGamma
prior = posterior.MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0)))
data = [0, 1, 3]
print(repr(posterior.log_evidence(lattice.build(data, 2), prior)))
print(repr(oracle.quadrature_evidence(data, prior)))
"""


class TestColdImport:
    def test_cli_import_leaves_out_stats_and_integrate(self):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_IMPORT_PROBE], capture_output=True, text=True, check=True
        )
        loaded, closed, quad = proc.stdout.splitlines()
        assert loaded == "[]"
        # the quadrature check still imports its integrator on demand
        assert float(quad) == pytest.approx(float(closed), rel=1e-6)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_session() -> list[list]:
    """(command, output lines) for each `$ ` line of the README's Command line shell block."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = section[section.index("```sh\n") + len("```sh\n") :]
    session: list[list] = []
    for line in block[: block.index("```")].splitlines():
        if line.startswith("$ "):
            session.append([line[2:], []])
        elif session[-1][0].endswith("\\"):  # a continued command
            session[-1][0] = session[-1][0][:-1] + line
        elif line:
            session[-1][1].append(line)
    return session


class TestReadmeSession:
    def test_commands_print_what_the_readme_shows(self, tmp_path):
        # the subprocesses import the package this test imports
        src = str(Path(mixexact.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        session = readme_session()
        assert sum(command.startswith("mixexact ") for command, _ in session) == 6
        for command, expected in session:
            argv = shlex.split(command)
            if argv[0] == "printf":  # printf 'text' > file
                assert argv[2] == ">"
                (tmp_path / argv[3]).write_text(argv[1].encode().decode("unicode_escape"))
                lines = []
            elif argv[0] == "head":  # head -<count> file
                lines = (tmp_path / argv[2]).read_text().splitlines()[: int(argv[1][1:])]
            else:
                assert argv[0] == "mixexact"
                proc = subprocess.run(
                    [sys.executable, "-m", "mixexact.cli", *argv[1:]],
                    cwd=tmp_path, env=env, capture_output=True, text=True,
                )
                assert proc.returncode == 0, (command, proc.stderr)
                lines = proc.stdout.splitlines()
            if "..." in expected:  # elided output: only its last lines are shown
                tail = expected[expected.index("...") + 1 :]
                assert lines[-len(tail) :] == tail, command
            else:
                assert lines == expected, command
