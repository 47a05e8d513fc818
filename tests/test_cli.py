"""End-to-end tests of the command-line surface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mixexact
from mixexact import cli, lattice, posterior
from mixexact.cli import ingest
from mixexact.errors import (
    IngestError,
    LatticeFormatError,
    MixtureError,
    NumericalError,
    OracleCapError,
    ResourceLimitError,
    UnsupportedFamilyError,
)
from conftest import run_capped
from test_golden import _sum_312

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


def write_config(tmp_path, document: dict) -> str:
    """The path of a fresh config file holding the document as JSON."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(document))
    return str(path)


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

    def test_ragged_row_names_its_own_line(self, tmp_path):
        # the first row fixes the category count
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n\n3,4\n1,2,3\n5,6\n")
        with pytest.raises(IngestError, match=r"ragged\.csv line 4: expected 2 categories, got 3$"):
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

    @pytest.mark.parametrize("builtin_sum", [sum, _sum_312], ids=["sum", "sum-312"])
    def test_normal_ingest_sum_ignores_python_3_12s_sum(self, capsys, tmp_path, monkeypatch, builtin_sum):
        # ten rows of 0.1: the in-sequence sum is 0.9999999999999999, the
        # correctly rounded one and CPython 3.12's compensated `sum()` 1.0
        path = tmp_path / "tenths.txt"
        path.write_text("0.1\n" * 10)
        monkeypatch.setattr(cli, "sum", builtin_sum, raising=False)
        code, out, _ = run_cli(
            capsys, "oracle", "--data", str(path), "--family", "normal", "--k", "2", "--nig", "0,1,3,2;0,1,3,2"
        )
        assert code == 0
        assert out.splitlines()[0] == "ingest n=10 min=0.1 max=0.1 sum=1.0"

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
            (("--grid", "0.1,inf,3"), "grid bounds must be finite"),
            # json reads Infinity: a config's bound refused as the flag's is
            (("--config", {"grid": {"lower": 0.1, "upper": math.inf, "points": 3}}), "grid bounds must be finite"),
            (("--grid", "0,,5,10"), "empty cell"),
            (("--gamma", "1,1;1,,10"), "empty cell"),
            (("--alpha", "1,,1"), "empty cell"),
            (("--alpha", "1,1,"), "empty cell"),
            # the n=0 lattice holds one entry, and an oracle run one allocation
            (("--budget", "0"), "entry budget must be >= 1, got 0"),
            (("--budget", "-5"), "entry budget must be >= 1, got -5"),
            (("--cap", "0"), "oracle cap must be >= 1, got 0"),
            (("--config", {"entry_budget": 0}), "entry budget must be >= 1, got 0"),
        ],
        ids=[
            "two-prior-flags", "flag-off-family", "prior-arity", "grid-pair", "grid-inf-points",
            "grid-inf-bound", "config-grid-inf-bound",
            "grid-empty-cell", "gamma-empty-cell", "alpha-inner-empty-cell", "alpha-trailing-empty-cell",
            "budget-zero", "budget-negative", "cap-zero", "config-budget-zero",
        ],
    )
    def test_flag_misuse_is_2(self, capsys, tmp_path, worked_file, flags, named):
        # a dict among the flags stands for a config file holding it
        flags = [write_config(tmp_path, f) if isinstance(f, dict) else f for f in flags]
        code, _, err = run_cli(
            capsys, "marginal", "--data", worked_file, "--family", "poisson", "--k", "2",
            "--param", "lambda1", *flags,
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code, _, _ = run_cli(capsys, "evidence", "--config", str(config))
        assert code == 2


# each error a run can raise, with the exit code and stderr line it becomes
RAISED = {
    "ingest": (IngestError("counts.txt line 2: bad"), 3, "error: counts.txt line 2: bad\n"),
    "budget": (ResourceLimitError("entry budget 1 exceeded", 2, 1, (1, 2)), 4, "error: entry budget 1 exceeded\n"),
    "memory": (MemoryError(), 4, "error: MemoryError\n"),
    "cap": (OracleCapError("k^n exceeds the cap"), 5, "error: k^n exceeds the cap\n"),
    "numerical": (NumericalError("log evidence overflows"), 6, "error: log evidence overflows\n"),
    "unsupported": (UnsupportedFamilyError("no lattice"), 2, "error: no lattice\n"),
    "lattice-format": (LatticeFormatError("bad dump"), 2, "error: bad dump\n"),
    "value": (ValueError("k must be >= 1"), 2, "error: k must be >= 1\n"),
    "key": (KeyError("gamma"), 2, "error: 'gamma'\n"),
    "type": (TypeError("not a number"), 2, "error: not a number\n"),
}


class TestExitCodes:
    def test_each_error_class_carries_its_exit_code(self):
        classes = (MixtureError, IngestError, ResourceLimitError, OracleCapError, NumericalError,
                   UnsupportedFamilyError, LatticeFormatError)
        assert [cls.exit_code for cls in classes] == [2, 3, 4, 5, 6, 2, 2]

    @pytest.mark.parametrize("error,code,line", RAISED.values(), ids=RAISED)
    def test_raised_error_sets_code_and_message(self, capsys, worked_file, monkeypatch, error, code, line):
        def fails(config):
            raise error

        monkeypatch.setattr(cli, "run_subcommand", fails)
        assert run_cli(capsys, "evidence", "--data", worked_file, "--family", "poisson") == (code, "", line)

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
        assert err == "error: entry budget 10 exceeded at 20 entries after 3 observations\n"

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
        assert err.startswith("error: entry budget 1 exceeded at 4 entries after 1 observations")

    def test_k_above_the_budget_is_4_before_the_first_step(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("0\n0\n3\n")
        code, _, err = run_cli(capsys, "evidence", "--data", str(path), "--family", "poisson", "--k", "6000000")
        assert code == 4
        assert err == "error: entry budget 5000000 exceeded at 6000000 entries after 1 observations\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("k", [30_000, 1_000_000])
    def test_k_within_the_budget_but_beyond_memory_is_4(self, tmp_path, k):
        # radix 4 per packed column puts 31 columns in a word, so the first
        # step tiles k copies of about k/15 code words and the second k times
        # that: past the cap at either, which must fail fast on allocation
        path = tmp_path / "counts.txt"
        path.write_text("0\n0\n3\n")
        proc = run_capped("-m", "mixexact.cli", "evidence", "--data", str(path), "--family", "poisson", "--k", str(k))
        assert proc.returncode == 4
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_a_digit_past_the_int64_key_range_is_2(self, capsys, tmp_path):
        # every digit times k must stay below 2**63: (2**62 + 1) * 3 does not
        path = tmp_path / "counts.txt"
        path.write_text(f"{2**62}\n1\n")
        code, _, err = run_cli(capsys, "evidence", "--data", str(path), "--family", "poisson", "--k", "3")
        assert code == 2
        assert err == "error: a statistic digit would leave the int64 key range\n"

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

    def test_interior_overflow_is_6_with_one_error_line(self, worked_file):
        proc = subprocess.run(
            [
                sys.executable, "-m", "mixexact.cli", "marginal", "--data", worked_file,
                "--family", "poisson", "--k", "2", "--gamma", "1e300,1;1,1", "--param", "lambda1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr == "error: density overflows inside [1.25e+299, 1e+300]; pass an explicit grid (--grid)\n"
        assert proc.stdout == "ingest n=7 min=0 max=4 sum=9\n"

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


    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    def test_overflowing_grid_end_is_6_with_one_error_line(self, tmp_path, warnings):
        # Gamma(1e300, 1e-300) members put their mass near 1e600, past the
        # largest double; numpy's overflow warning once printed first, and
        # under CI's warning filter it was a traceback with exit 1
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n3\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "mixexact.cli", "marginal", "--data", str(path),
                "--family", "poisson", "--k", "2", "--gamma", "1e300,1e-300;1,1", "--param", "lambda1",
            ],
            env={**os.environ, "PYTHONWARNINGS": warnings},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr == (
            "error: member mass reaches past the largest double: [3.3333333333333335e+299, inf]; "
            "pass an explicit grid (--grid)\n"
        )
        assert proc.stdout == "ingest n=3 min=0 max=3 sum=3\n"

    @pytest.mark.parametrize(
        "rows, flags",
        [
            ("0\n0\n3\n", ["--family", "poisson", "--alpha", "1e300,1", "--param", "p1"]),
            ("1,2,0\n3,0,1\n", ["--family", "multinomial", "--beta", "1e300,1,1;1,1,1", "--param", "q1,1"]),
        ],
        ids=["p1", "q1,1"],
    )
    def test_swamped_member_is_6_without_nan(self, tmp_path, rows, flags):
        # a concentration of 1e300 absorbs the rest of its sum, so a member's
        # second Beta shape rounds to 0; its quantiles came out nan, and the
        # error named nan a support edge
        path = tmp_path / "data.txt"
        path.write_text(rows)
        proc = subprocess.run(
            [sys.executable, "-m", "mixexact.cli", "marginal", "--data", str(path), "--k", "2", *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr == (
            "error: a member parameter is 0.0, not a positive double: the prior swamps the data "
            "in double precision\n"
        )
        assert "nan" not in proc.stdout + proc.stderr


# np.random.default_rng(5).multinomial(6, [0.5, 0.3, 0.2], size=16): under the
# CLI's default concentration of 1/2, a member whose category count is 0 has a
# q density that diverges at q = 0
HALF_PRIOR_ROWS = "".join(
    f"{a},{b},{c}\n"
    for a, b, c in [
        (4, 1, 1), (3, 2, 1), (1, 3, 2), (3, 3, 0), (1, 0, 5), (3, 2, 1), (3, 0, 3), (5, 0, 1),
        (3, 2, 1), (4, 2, 0), (3, 2, 1), (4, 2, 0), (4, 0, 2), (2, 1, 3), (4, 2, 0), (4, 2, 0),
    ]
)


def far_clusters(base: int) -> str:
    return "".join(f"{x}\n" for x in (2, 5, 1, 3, 0, 4, base, base + 3, base - 2))


# name: (data, flags, whether exit 6 may answer). Each default grid here
# wrote a CSV far from integrating to 1 with exit 0 before its grid was laid
# out in the family's own coordinate (trapezoid 1.3e6, 1.0074, up to 2.2e5
# for q, 1.6e15 and 5.6e15 for p1, 1.5e-6 near 1e9). A t^-0.7 edge is
# beyond 512 trapezoid points, so those may be refused, naming the
# trapezoid. Members 1e9 away from 0 are answered: each member's Laplace
# points seed the probe.
DEFAULT_GRID_CASES = {
    "gamma-half-lambda1": ("0\n0\n3\n", ["--family", "poisson", "--gamma", "0.5,1;0.5,1", "--param", "lambda1"], False),
    "far-1e6-lambda1": (far_clusters(10**6), ["--family", "poisson", "--param", "lambda1"], False),
    **{
        f"half-prior-q1,{u}": (HALF_PRIOR_ROWS, ["--family", "multinomial", "--param", f"q1,{u}"], False)
        for u in (1, 2, 3)
    },
    "alpha-0.3-p1-zeros": ("0\n0\n3\n", ["--family", "poisson", "--alpha", "0.3,2.7", "--param", "p1"], True),
    "alpha-0.3-p1-counts": (WORKED, ["--family", "poisson", "--alpha", "0.3,2.7", "--param", "p1"], True),
    "far-1e9-lambda1": (far_clusters(10**9), ["--family", "poisson", "--param", "lambda1"], False),
}


class TestDefaultGridPromise:
    @pytest.mark.parametrize("name", list(DEFAULT_GRID_CASES))
    def test_integrates_to_one_or_exits_6(self, capsys, tmp_path, name):
        text, flags, may_refuse = DEFAULT_GRID_CASES[name]
        data, out = tmp_path / "data.txt", tmp_path / "grid.csv"
        data.write_text(text)
        code, _, err = run_cli(capsys, "marginal", "--data", str(data), "--k", "2", *flags, "--out", str(out))
        if may_refuse and code == 6:
            refusal = r"error: default (p1|lambda1) grid integrates to \S+, not 1 within 0\.0001; pass an explicit grid"
            assert re.fullmatch(refusal + r" \(--grid\)\n", err)
            assert not out.exists()
            return
        assert code == 0, err
        grid, density = np.array([[float(c) for c in line.split(",")] for line in out.read_text().splitlines()[1:]]).T
        assert grid.size == posterior.DEFAULT_GRID_POINTS
        assert abs(np.trapezoid(density, grid) - 1.0) <= 1e-4


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
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


# the outputs of every subcommand's library path on small cases, as text, by
# path: evidence, enumerate (dump, load), posterior, concentration, oracle
# --compare, default and explicit marginal grids, and the quadrature check
SCIPY_FREE_RUN = """
from mixexact import lattice, oracle, posterior
from mixexact.families import DirichletMultinomial, NormalInverseGamma, PoissonGamma
cases = [
    ([0, 1, 3, 3], (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0))),
    ([(2, 0, 1), (0, 3, 0), (1, 1, 1)], (DirichletMultinomial((0.5, 0.5, 0.5)),) * 2),
]
values = {path: [] for path in ("evidence", "dump", "summary", "concentration", "compare", "grid", "quadrature")}
posteriors = []
for data, components in cases:
    prior = posterior.MixturePrior((1.0, 1.0), components)
    lat = lattice.build(data, 2)
    posteriors.append(posterior.normalize(lat, prior))
    values["evidence"].append(repr(posterior.log_evidence(lat, prior)))
    values["dump"].append(lattice.dump(lattice.load(lattice.dump(lat))))
    values["summary"].append(posterior.summarize(posteriors[-1]).to_text())
    values["concentration"].append(repr(posterior.mass_concentration(posteriors[-1])))
    values["compare"].append(oracle.compare_report(posteriors[-1], oracle.oracle_posterior(data, prior))[2])
rates, counts = posteriors
for grid in (None, [0.25, 0.5, 0.75]):
    values["grid"] += [
        posterior.marginal_component_density(rates, 0, grid).to_csv(),
        posterior.marginal_weight_density(rates, 0, grid).to_csv(),
        posterior.marginal_component_density(counts, 0, grid, category=0).to_csv(),
    ]
normal = posterior.MixturePrior((1.0, 1.0), (NormalInverseGamma(0.0, 1.0, 3.0, 2.0),) * 2)
values["quadrature"] += [
    repr(oracle.quadrature_evidence([0, 1, 3], posterior.MixturePrior((1.0, 1.0), cases[0][1]))),
    repr(oracle.quadrature_evidence([-0.3, 1.2, 0.4], normal)),
]
"""

# SCIPY_FREE_RUN in a process whose first meta-path finder refuses scipy
SCIPY_REFUSED_PROBE = (
    """
import json, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import numpy
ma_by_numpy = "numpy.ma" in sys.modules
import mixexact.cli
"""
    + SCIPY_FREE_RUN
    + """
try:
    import scipy
    refused = False
except ImportError:
    refused = True
print(json.dumps([values, refused, ma_by_numpy, "numpy.ma" in sys.modules]))
"""
)


class TestColdImport:
    def test_cli_import_leaves_out_stats_and_integrate(self):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_IMPORT_PROBE], capture_output=True, text=True, check=True
        )
        loaded, closed, quad, after = proc.stdout.splitlines()
        assert loaded == "[]"
        # the quadrature check integrates by the in-package rule: still no scipy
        assert float(quad) == pytest.approx(float(closed), rel=1e-10)
        assert after == "[]"

    def test_a_child_that_refuses_scipy_gives_the_same_bits(self):
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_REFUSED_PROBE], capture_output=True, text=True, check=True
        )
        values, refused, ma_by_numpy, ma_at_exit = json.loads(proc.stdout)
        here: dict = {}
        exec(SCIPY_FREE_RUN, here)
        assert refused
        assert values == here["values"]
        # the oracle agrees, and the grids have their sizes: default, then explicit
        assert all(report.startswith("MATCH ") for report in values["compare"])
        points = posterior.DEFAULT_GRID_POINTS
        assert [csv.count("\n") - 1 for csv in values["grid"]] == [points] * 3 + [3] * 3
        # no path loads numpy.ma on its own: a plain np.unique would
        assert ma_at_exit == ma_by_numpy


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


def readme_library() -> str:
    """The README's Library quick start: its ```python blocks, joined in order."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") : text.index("## Command line")]
    return "".join(block[: block.index("```")] for block in section.split("```python\n")[1:])


class TestReadmeLibrary:
    def test_quick_start_gives_what_its_comments_show(self):
        code = readme_library()
        namespace: dict = {}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            exec(compile(code, str(README), "exec"), namespace)
        # `print(...)  # text`: the text is a line of the output, in order
        shown = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(") and "# " in line]
        assert shown == ["-12.490069462412716", "MATCH entries=42 max_rel=3.935e-15"]
        printed = stdout.getvalue().splitlines()
        assert [line for line in printed if line in shown] == shown
        # `lattice = build(...)  # 42 distinct statistics, Σμ = 128`
        distinct, total = map(int, re.search(r"# (\d+) distinct statistics, Σμ = (\d+)\n", code).groups())
        assert (distinct, total) == (42, 128)
        assert (namespace["lattice"].distinct_count(), namespace["lattice"].total_count()) == (distinct, total)
