"""Command-line surface: sweeps, verification, generation, the example,
file handling, and the exit-status contract."""

import dataclasses
import importlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from nlsthermo import cli, core, fluctuation, genrand, response, spinboson
from nlsthermo.cli import main
from nlsthermo.core import EvaluationError, InvalidInputError

CSV_FIELD = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run_cli(*argv):
    return main(list(argv))


def reject_constant(token):
    """``parse_constant`` of json: a report carries no NaN or Infinity."""
    raise ValueError(f"{token} in a report")


def run_process(*argv):
    return subprocess.run([sys.executable, "-m", "nlsthermo.cli", *argv],
                          capture_output=True, text=True)


class TestGen:
    def test_writes_schema_fields(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "4", "--seed", "7", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert sorted(obj) == ["beta0", "degeneracies", "energies", "transition"]
        assert obj["beta0"] == 1.0
        assert len(obj["transition"]) == 4

    def test_same_seed_gives_identical_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("gen", "5", "--seed", "3", "--out", str(a))
        run_cli("gen", "5", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_single_level_is_a_usage_error(self):
        result = run_process("gen", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("argv", [("gen", "3", "--seed", "-1"),
                                      ("verify", "--random", "3", "--seed", "-1"),
                                      ("sweep", "--random", "3", "--seed", "-1")])
    def test_negative_seed_is_a_usage_error(self, argv):
        result = run_process(*argv)
        assert result.returncode == 2
        assert "seed must be nonnegative" in result.stderr
        assert "Traceback" not in result.stderr

    def test_gen_then_verify_round_trips(self, tmp_path):
        out = tmp_path / "inst.json"
        run_cli("gen", "4", "--seed", "11", "--out", str(out))
        report = tmp_path / "report.json"
        assert run_cli("verify", "--input", str(out), "--out", str(report)) == 0
        assert json.loads(report.read_text())["overall_pass"] is True


class TestExample:
    def test_middle_entry_is_one_half(self, capsys):
        assert run_cli("example", "spin1", "--beta0", "1.0") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["transition"][1][1] == 0.5
        assert obj["energies"] == [1.0, 0.0, -1.0]

    def test_oracle_reports_small_deviation(self, capsys):
        assert run_cli("example", "spin1", "--beta0", "1.0", "--oracle") == 0
        err = capsys.readouterr().err
        match = re.search(r"deviation: ([0-9.e+-]+)", err)
        assert match is not None
        assert float(match.group(1)) < 1e-8

    def test_nonpositive_beta0_is_an_input_error(self, capsys):
        assert run_cli("example", "spin1", "--beta0", "-1.0") == 2

    @pytest.mark.parametrize("beta0", ["237", "400", "1e5", "236", "235.43899233019476"])
    def test_beta0_past_the_closed_form_range_is_an_input_error(self, beta0):
        result = run_process("example", "spin1", "--beta0", beta0)
        assert result.returncode == 2
        assert "MAX_BETA0 = 235.43899233019474]" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["example", "verify"])
    def test_beta0_at_the_bound_has_finite_entries(self, command):
        # certification fails there (exit 1), but not for non-finite entries
        argv = (("example", "spin1") if command == "example"
                else ("verify", "--example", "spin1"))
        result = run_process(*argv, "--beta0", "235.43899233019474")
        assert result.returncode == 1
        assert "finite" not in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_name_is_a_usage_error(self):
        result = run_process("example", "spin2")
        assert result.returncode == 2

    @pytest.mark.parametrize("beta0", ["1e-16", "2.2e-16", "5e-324"])
    @pytest.mark.parametrize("argv", [("example", "spin1"), ("sweep", "--example", "spin1"),
                                      ("verify", "--example", "spin1")])
    def test_beta0_below_the_closed_form_range_is_an_input_error(self, capsys, argv, beta0):
        assert run_cli(*argv, "--beta0", beta0) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[MIN_BETA0 = 2.2204460492503136e-16," in captured.err

    def test_oracle_past_its_cutoff_bound_is_an_input_error(self, capsys):
        assert run_cli("example", "spin1", "--beta0", "1e-9", "--oracle") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_CUTOFF = 41446533; the oracle admits beta0 >= 1e-06" in captured.err

    def test_tiny_beta0_certifies(self, capsys):
        assert run_cli("example", "spin1", "--beta0", "1e-7") == 0
        assert json.loads(capsys.readouterr().out)["beta0"] == 1e-7


class TestSourceOptions:
    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("source, option", [
        (("--random", "4"), ("--beta0", "3")),
        (("--input",), ("--beta0", "3")),
        (("--input",), ("--seed", "1")),
        (("--example", "spin1"), ("--seed", "1")),
    ])
    def test_option_the_source_ignores_is_a_usage_error(self, tmp_path, capsys,
                                                        command, source, option):
        if source == ("--input",):
            path = tmp_path / "inst.json"
            run_cli("gen", "4", "--out", str(path))
            source = ("--input", str(path))
        assert run_cli(command, *source, *option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {option[0]} applies only to" in captured.err

    def test_defaults_fill_the_descriptor(self, capsys):
        assert run_cli("verify", "--random", "3", "--suite", "slopes") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instance"] == {"source": "random", "n": 3, "seed": 0}
        assert run_cli("verify", "--example", "spin1", "--suite", "slopes") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instance"] == {"source": "example", "name": "spin1", "beta0": 1.0}

    @pytest.mark.parametrize("argv", [("gen", "4"), ("verify", "--random", "4")])
    def test_inaccurate_stationary_solve_exits_one(self, monkeypatch, capsys, argv):
        exact = np.linalg.solve
        calls = []

        def solve(a, b):
            x = exact(a, b)
            if not calls:  # only the first solve is off
                x[0] += 1e-9
            calls.append(1)
            return x

        monkeypatch.setattr("nlsthermo.genrand.np.linalg.solve", solve)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: stationary solve left residual" in captured.err


class TestSweep:
    def test_csv_format_and_fixed_point_row(self, capsys):
        assert run_cli("sweep", "--example", "spin1", "--beta0", "1.0",
                       "--beta-min", "-5", "--beta-max", "5",
                       "--steps", "101") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta,beta_dQ,beta0_dQ,dS"
        assert len(lines) == 102
        for field in lines[1].split(","):
            assert CSV_FIELD.match(field), field
        row = {}
        for line in lines[1:]:
            beta, beta_dq, beta0_dq, ds = map(float, line.split(","))
            row[beta] = (beta_dq, beta0_dq, ds)
        assert max(abs(v) for v in row[1.0]) <= 1e-10
        assert row[-5.0][0] >= 0.0

    def test_rows_round_trip_doubles(self, capsys):
        run_cli("sweep", "--example", "spin1", "--steps", "11")
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            for text in line.split(","):
                assert repr(float(text)) is not None
                assert float(text) == float(f"{float(text):.16e}")

    def test_emitted_rows_keep_the_clausius_ordering(self, capsys):
        run_cli("sweep", "--random", "4", "--seed", "1",
                "--beta-min", "-10", "--beta-max", "10", "--steps", "81")
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        ds_negative_side = []
        for line in lines:
            beta, beta_dq, beta0_dq, ds = map(float, line.split(","))
            assert beta0_dq <= ds + 1e-12
            assert ds <= beta_dq + 1e-12
            if beta < 0:
                ds_negative_side.append(ds)
        signs = np.sign(ds_negative_side)
        assert (np.diff(signs) != 0).any()  # second zero at negative beta

    @pytest.mark.parametrize("bound, label", [
        ("lower", "clausius lower bound: worst slack of beta0<dQ> <= <dS> [beta=2]"),
        ("upper", "clausius upper bound: worst slack of <dS> <= beta<dQ> [beta=2]"),
    ], ids=["lower", "upper"])
    def test_a_failed_clausius_line_stops_the_sweep_naming_its_beta(self, monkeypatch,
                                                                    capsys, bound, label):
        """sweep reads the inequality suite's Clausius verdict: <dS> moved one
        unit past either bound at beta = 2 fails that line, and no row is
        written."""
        original = cli.grid_pass

        def tampered(G, betas):
            grid = original(G, betas)
            ds = grid.ds.copy()
            ds[7] = (G.beta0 * grid.dq[7] - 1.0 if bound == "lower"
                     else grid.betas[7] * grid.dq[7] + 1.0)
            return dataclasses.replace(grid, ds=ds)

        monkeypatch.setattr(cli, "grid_pass", tampered)
        assert run_cli("sweep", "--random", "4", "--steps", "11",
                       "--beta-min", "-5", "--beta-max", "5") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: clausius ordering violated: {label}\n"

    def test_fine_grid_locates_the_entropy_extremum(self, capsys):
        run_cli("sweep", "--example", "spin1", "--beta0", "1.0",
                "--beta-min", "0.0", "--beta-max", "1.0", "--steps", "1001")
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        best = max((abs(float(l.split(",")[3])), float(l.split(",")[0]))
                   for l in lines if 0.0 < float(l.split(",")[0]) < 1.0)
        assert best[1] == pytest.approx(0.2799, abs=2e-3)

    def test_json_output(self, capsys):
        assert run_cli("sweep", "--example", "spin1", "--steps", "5", "--json") == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 5
        assert set(records[0]) == {"beta", "beta_dQ", "beta0_dQ", "dS"}

    def test_requires_exactly_one_source(self, capsys):
        assert run_cli("sweep", "--steps", "5") == 2
        assert run_cli("sweep", "--random", "3", "--example", "spin1") == 2

    def test_bad_grid_is_an_input_error(self, capsys):
        assert run_cli("sweep", "--example", "spin1", "--steps", "1") == 2
        assert run_cli("sweep", "--example", "spin1",
                       "--beta-min", "2", "--beta-max", "-2") == 2


class TestNegativeFloatValues:
    """A negative float in any form ``float`` reads, exponent included, is the
    value of ``--beta-min``, ``--beta-max`` or ``--beta0`` when it follows
    the option as a separate word, just as when attached with ``=``."""

    @pytest.mark.parametrize("argv, code", [
        (("sweep", "--random", "3", "--steps", "5",
          "--beta-min", "-4.76837158203125e-06"), 0),
        (("sweep", "--random", "3", "--steps", "5",
          "--beta-min", "-2E-3", "--beta-max", "-1e-3"), 0),
        (("verify", "--random", "3", "--steps", "5", "--suite", "slopes",
          "--beta-min", "-1e-3", "--beta-max", "1e-3"), 0),
        (("verify", "--example", "spin1", "--beta0", "-1e-3"), 2),
        (("example", "spin1", "--beta0", "-1e-3"), 2),
        (("sweep", "--random", "3", "--beta-min", "-inf"), 2),
    ], ids=["sweep", "sweep-both", "verify", "verify-beta0", "example", "sweep-inf"])
    def test_separate_value_reads_as_the_attached_one(self, argv, code, capsys):
        words = iter(argv)
        attached = [f"{word}={next(words)}" if word.startswith("--beta") else word
                    for word in words]
        assert run_cli(*attached) == code
        expected = capsys.readouterr()
        assert run_cli(*argv) == code
        captured = capsys.readouterr()
        assert captured.out == expected.out
        if code == 2:  # verify's stderr carries its timing otherwise
            assert captured.err == expected.err

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_missing_value_still_names_the_option(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--random", "3", "--beta-min")
        assert exit_info.value.code == 2
        assert "argument --beta-min: expected one argument" in capsys.readouterr().err


class TestUnitRescaling:
    """The slope lines hold in a power-of-two change of the energy unit,
    E -> 2^k E and beta0 -> 2^-k beta0: the tangent they read is exact, with
    no step that carries the unit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-20, -10, 10, 20])
    @pytest.mark.parametrize("n, seed", [(8, 0), (32, 1)])
    def test_slope_suite_passes_on_the_rescaled_instance(self, n, seed, k, tmp_path):
        path = tmp_path / "inst.json"
        assert run_cli("gen", str(n), "--seed", str(seed), "--out", str(path)) == 0
        obj = json.loads(path.read_text())
        obj["energies"] = [math.ldexp(e, k) for e in obj["energies"]]
        obj["beta0"] = math.ldexp(obj["beta0"], -k)
        path.write_text(json.dumps(obj))
        assert run_cli("verify", "--input", str(path), "--suite", "slopes") == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-20, 20])
    @pytest.mark.parametrize("n, seed", [(8, 0), (32, 1)])
    def test_the_rescaled_instance_verifies_with_the_same_cumulant_line(self, n, seed, k,
                                                                        tmp_path):
        """t = tau / max|dQ| is in the heat's own unit: at E x 2^20, where a
        fixed t = 0.1 overflowed <exp(t dQ)>, verify writes a report with no
        NaN, every line holds, and the cumulant line is the unscaled one."""
        path = tmp_path / "inst.json"
        assert run_cli("gen", str(n), "--seed", str(seed), "--out", str(path)) == 0
        lines = []
        for scale in (0, k):
            obj = json.loads(path.read_text())
            obj["energies"] = [math.ldexp(e, scale) for e in obj["energies"]]
            obj["beta0"] = math.ldexp(obj["beta0"], -scale)
            scaled, out = tmp_path / f"inst{scale}.json", tmp_path / f"report{scale}.json"
            scaled.write_text(json.dumps(obj))
            assert run_cli("verify", "--input", str(scaled), "--out", str(out)) == 0
            lines.append([line for line in json.loads(out.read_text(),
                                                      parse_constant=reject_constant)["checks"]
                          if line["label"].startswith("cumulant truncation")])
        assert lines[0] == lines[1] and len(lines[0]) == 1


class TestVerify:
    def test_example_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--example", "spin1", "--beta0", "1.0",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["overall_pass"] is True
        assert report["instance"] == {"source": "example", "name": "spin1",
                                      "beta0": 1.0}
        labels = [c["label"] for c in report["checks"]]
        assert any("certification" in label for label in labels)
        assert any("clausius" in label for label in labels)
        assert all(c["holds"] for c in report["checks"])

    def test_timing_goes_to_stderr_not_the_report(self, capsys):
        assert run_cli("verify", "--random", "3", "--seed", "5") == 0
        captured = capsys.readouterr()
        assert "ms" in captured.err
        assert "ms" not in captured.out
        json.loads(captured.out)

    def test_suite_subsets(self, capsys, tmp_path):
        assert run_cli("verify", "--random", "3", "--seed", "5",
                       "--suite", "slopes") == 0
        report = json.loads(capsys.readouterr().out)
        labels = [c["label"] for c in report["checks"]]
        assert any(label.startswith("slope agreement") for label in labels)
        assert not any("clausius" in label for label in labels)
        # the certification lines carry the J-equations: no suite repeats them
        out = tmp_path / "vj.json"
        result = run_process("verify", "--random", "3", "--suite", "jequation",
                             "--out", str(out))
        assert result.returncode == 2
        assert "invalid choice" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_corrupted_matrix_fails_certification(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        run_cli("gen", "4", "--seed", "2", "--out", str(good))
        obj = json.loads(good.read_text())
        obj["transition"][0] = [1.001 * x for x in obj["transition"][0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run_cli("verify", "--input", str(bad)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["overall_pass"] is False
        failing = [c for c in report["checks"] if not c["holds"]]
        assert failing
        assert any("certification" in c["label"] for c in failing)

    def test_malformed_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("verify", "--input", str(path)) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, capsys):
        result = run_process("verify", "--input", "/nonexistent/inst.json")
        assert result.returncode in (1, 2)

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{kind}{field}")
        for kind, value in (("", 10 ** 400), ("string-", "1"), ("bool-", True))
        for field in ("energies", "degeneracies", "transition", "beta0")])
    def test_integer_past_the_double_range_is_an_input_error(self, field, value, tmp_path,
                                                             capsys):
        """A JSON integer past the double range, a string or a boolean where
        the schema asks for numbers exits 2 naming the field."""
        obj = {"energies": [0.0, 1.0], "degeneracies": [1, 1],
               "transition": [[1.0, 0.0], [0.0, 1.0]], "beta0": 1.0}
        obj[field] = value if field == "beta0" else (
            [[value, value], [value, value]] if field == "transition" else [value, value])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        for command in ("verify", "sweep"):
            assert run_cli(command, "--input", str(path)) == 2
            assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degeneracy_past_two_to_the_53_is_an_input_error(self, tmp_path, capsys):
        obj = {"energies": [0.0, 1.0], "degeneracies": [1, 1e300],
               "transition": [[1.0, 0.0], [0.0, 1.0]], "beta0": 1.0}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(obj))
        for command in ("verify", "sweep"):
            assert run_cli(command, "--input", str(path)) == 2
            err = capsys.readouterr().err
            assert "fields 'energies'/'degeneracies'" in err
            assert "integers in [1, 2**53]" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vast_unused_gap_keeps_slopes_and_cumulants_exact(self, tmp_path, capsys):
        # identity dynamics: every flow off the diagonal is 0, so the gap of
        # 1e300 must not enter a slope or cumulant table
        obj = {"energies": [0.0, 1e300], "degeneracies": [1, 1],
               "transition": [[1.0, 0.0], [0.0, 1.0]], "beta0": 1.0}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(obj))
        assert run_cli("verify", "--input", str(path), "--suite", "slopes",
                       "--suite", "cumulant") == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert all(c["holds"] and c["lhs"] <= 0.0 for c in checks
                   if not c["label"].startswith("certification"))

    def test_sweep_certification_failure_exits_one(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        run_cli("gen", "3", "--seed", "8", "--out", str(good))
        obj = json.loads(good.read_text())
        obj["beta0"] = 2.0  # fixed point no longer matches
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run_cli("sweep", "--input", str(bad)) == 1


def certification_repro(tmp_path, name):
    """Instance files that break one Gibbs-matrix rule by a margin the old
    single 1e-10 bound missed or turned into a usage error."""
    if name == "column-deviation":
        run_cli("gen", "4", "--seed", "2", "--out", str(tmp_path / "good.json"))
        obj = json.loads((tmp_path / "good.json").read_text())
        obj["transition"][0][0] += 5e-11
    else:
        entry = {"negative-entry": -1e-11, "identity-plus": 1.005e-10}[name]
        transition = np.eye(3)
        transition[1, 2] = entry
        transition[2, 2] -= min(entry, 0.0)  # keep the column sum for the negative entry
        obj = {"energies": [0.0, 1.0, 2.0], "degeneracies": [1, 1, 1],
               "transition": transition.tolist(), "beta0": 1.0}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return ("--input", str(path))


REPROS = ["column-deviation", "negative-entry", "identity-plus", "spin1-beta0-25"]


def repro_source(tmp_path, name):
    if name == "spin1-beta0-25":
        return ("--example", "spin1", "--beta0", "25")
    return certification_repro(tmp_path, name)


class TestCertification:
    @pytest.mark.parametrize("name", REPROS)
    def test_verify_reports_the_failing_rule_and_exits_one(self, tmp_path, capsys, name):
        assert run_cli("verify", *repro_source(tmp_path, name)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["overall_pass"] is False
        assert [c["label"].split(":")[0] for c in report["checks"]] == ["certification"] * 3
        assert [c["rhs"] for c in report["checks"]] == [1e-12, 1e-10, 0.0]
        assert any(not c["holds"] for c in report["checks"])
        for c in report["checks"]:
            assert c["slack"] == c["rhs"] - c["lhs"]
            assert c["holds"] == (c["slack"] >= 0.0)

    @pytest.mark.parametrize("name", REPROS)
    def test_sweep_names_the_failing_rule_and_exits_one(self, tmp_path, capsys, name):
        assert run_cli("sweep", *repro_source(tmp_path, name)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: certification:" in captured.err

    def test_example_past_the_certified_range_exits_one_with_plain_floats(self):
        result = run_process("example", "spin1", "--beta0", "12")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "column 0 sums to 1.0000000000025728" in result.stderr
        assert "np.float64" not in result.stderr
        assert "Traceback" not in result.stderr


class TestOverflowingGrids:
    @pytest.mark.parametrize("bounds", [("--beta-min=-1e308", "--beta-max=1e308"),
                                        ("--beta-max=inf",),
                                        ("--beta-min=nan",)])
    def test_nonfinite_span_is_a_usage_error_without_warnings(self, bounds):
        result = run_process("sweep", "--random", "3", *bounds, "--steps", "5")
        assert result.returncode == 2
        assert "--beta-min, --beta-max" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    def test_heat_j_holds_where_the_log_space_sum_overflowed(self):
        # a grid found by scanning, on which rounding once overflowed the
        # factored log-space heat J sums at some points
        result = run_process("verify", "--random", "3", "--seed", "4",
                             "--beta-min=-1e20", "--beta-max=1e20", "--steps", "101")
        assert result.returncode == 0
        assert "RuntimeWarning" not in result.stderr
        assert json.loads(result.stdout)["overall_pass"] is True


def write_instance(tmp_path, energies, transition):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"energies": energies, "degeneracies": [1, 1],
                                "transition": transition, "beta0": 1.0}))
    return str(path)


class TestSubnormalFixedPoint:
    """Instances whose Gibbs weight at beta0 is subnormal or underflows to 0:
    the fixed-point ratio, formed in log space, certifies the exact ones and
    rejects the defective ones before any grid line."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_gibbs_weight_fails_verify_naming_the_level(self, tmp_path, capsys):
        """p0_1 underflows to 0, yet rho = 1 exactly: verify passes, as sweep
        does."""
        path = write_instance(tmp_path, [0.0, 1e300], [[1.0, 0.0], [0.0, 1.0]])
        assert run_cli("verify", "--input", path) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["overall_pass"] is True
        assert report["checks"][1]["lhs"] == 0.0
        assert "Traceback" not in captured.err
        assert run_cli("sweep", "--input", path) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_past_the_double_range_exits_one_naming_beta(self, tmp_path, capsys):
        # -beta E_1 = 1e310 at beta = -1e10: once NaN rows with exit 0
        path = write_instance(tmp_path, [0.0, 1e300], [[1.0, 0.0], [0.0, 1.0]])
        assert run_cli("sweep", "--input", path, "--beta-min=-1e10", "--beta-max=1e10",
                       "--steps", "5") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the Gibbs exponent leaves the double range "
                                "at beta=-10000000000.0\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gap", [735.0, 740.0])
    def test_subnormal_weight_fails_the_heat_line_with_a_full_report(self, tmp_path, capsys,
                                                                    gap):
        """The residual |T p0 - p0| is 1e-11, but p0_1 = e^-gap / Z is
        subnormal, so rho_1 = 1e-11 e^gap is huge or overflows: verify writes
        the three certification lines, the fixed-point one failed, and exits 1."""
        path = write_instance(tmp_path, [0.0, gap], [[1.0 - 1e-11, 0.0], [1e-11, 1.0]])
        assert run_cli("verify", "--input", path) == 1
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        checks = json.loads(captured.out)["checks"]
        assert [c["label"] for c in checks] == [
            "certification: column-sum deviation <= tol",
            "certification: fixed-point ratio max |rho - 1| <= tol",
            "certification: entries nonnegative"]
        assert [c["holds"] for c in checks] == [True, False, True]
        assert checks[1]["lhs"] > 1e300

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gap", [735.0, 740.0])
    def test_subnormal_weight_breaks_the_sweep_clausius_ordering(self, tmp_path, capsys, gap):
        """The same instances: sweep stops at certification with exit 1 and
        writes no row, so no Clausius ordering is ever evaluated."""
        path = write_instance(tmp_path, [0.0, gap], [[1.0 - 1e-11, 0.0], [1e-11, 1.0]])
        assert run_cli("sweep", "--input", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: certification: fixed-point ratio max |rho - 1| <= tol fails: ")
        assert "clausius" not in captured.err
        assert "Warning" not in captured.err
        assert "Traceback" not in captured.err


class TestFixedPointTable:
    """Each verify or sweep forms rho once, and each verify the fixed-point
    heat table twice; a level whose log Gibbs weight at beta0 is -inf stops
    verify and sweep."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--example", "spin1"),
        ("verify", "--random", "8"),
        ("verify", "--input", "{gen6}"),
        ("sweep", "--random", "8"),
        ("sweep", "--example", "spin1"),
    ], ids=["verify-example", "verify-random", "verify-input", "sweep-random",
            "sweep-example"])
    def test_each_command_forms_rho_once(self, argv, tmp_path, monkeypatch, capsys):
        """rho once, in the constructor (for --random, at generation); the
        heat table once for the slope suite and once for the cumulant suite."""
        gen6 = str(tmp_path / "gen6.json")
        assert run_cli("gen", "6", "--out", gen6) == 0
        calls = []
        for module, name in ((core, "_fixed_point_ratio"), (response, "_heat_table")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _name=name, _original=original:
                                calls.append(_name) or _original(*args))
        assert run_cli(*(arg.format(gen6=gen6) for arg in argv)) == 0
        heat_tables = 2 if argv[0] == "verify" else 0
        assert sorted(calls) == ["_fixed_point_ratio"] + ["_heat_table"] * heat_tables

    @pytest.mark.parametrize("transition, holds, forms", [
        ([[0.5, 0.5], [0.5, 0.5]], [True, False, True], 2),
        ([[1.1, 0.5], [-0.1, 0.5]], [True, False, False], 1),
        ([[0.5, 0.5], [0.4, 0.5]], [False, False, True], 1),
    ], ids=["fixed-point", "sign", "column-sum"])
    def test_only_a_failing_certification_forms_rho_again(self, transition, holds, forms,
                                                          tmp_path, monkeypatch, capsys):
        """A failed certification forms its report lines anew: rho twice for
        a matrix that fails only the fixed-point rule (once in the
        constructor), once for one the transition-matrix rules reject."""
        path = write_instance(tmp_path, [0.0, 1.0], transition)
        calls = []
        original = core._fixed_point_ratio
        monkeypatch.setattr(core, "_fixed_point_ratio",
                            lambda *args: calls.append(1) or original(*args))
        assert run_cli("verify", "--input", path) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["holds"] for c in checks] == holds
        assert len(calls) == forms

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_minus_inf_log_weight_exits_one_naming_the_level(self, tmp_path, capsys,
                                                            command):
        """log p0_1 = -1e310 at beta0 = 1e10: verify once wrote NaN lines."""
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"energies": [0.0, 1e300], "degeneracies": [1, 1],
                                    "transition": [[1.0, 0.0], [0.0, 1.0]],
                                    "beta0": 1e10}))
        assert run_cli(command, "--input", str(path), "--beta-min=0", "--beta-max=1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the Gibbs log weight of level m=1 leaves the "
                                "double range at beta0=10000000000.0\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gap", [735.0, 740.0])
    def test_sweep_names_the_level_of_the_broken_fixed_point(self, tmp_path, capsys, gap):
        path = write_instance(tmp_path, [0.0, gap], [[1.0 - 1e-11, 0.0], [1e-11, 1.0]])
        assert run_cli("sweep", "--input", path) == 1
        assert capsys.readouterr().err.endswith(
            " at level m=1 exceeds 1e-10 at beta0=1.0\n")


class TestOneEvaluator:
    """Every per-beta value of verify and sweep comes from grid_pass: no
    command reaches the scalar per-beta path."""

    SCALAR = ("heat_and_entropy_change", "_marginal_changes", "make_gibbs_state",
              "propagate")

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("source", [("--random", "8"), ("--input", "{gen6}"),
                                        ("--example", "spin1")],
                             ids=["random", "input", "example"])
    def test_no_command_calls_the_scalar_path(self, command, source, tmp_path,
                                              monkeypatch, capsys):
        gen6 = str(tmp_path / "gen6.json")
        assert run_cli("gen", "6", "--out", gen6) == 0
        calls = []
        for module in (core, fluctuation, response, spinboson, genrand, cli):
            for name in self.SCALAR:
                if hasattr(module, name):
                    original = getattr(module, name)
                    monkeypatch.setattr(module, name,
                                        lambda *args, _name=name, _original=original:
                                        calls.append(_name) or _original(*args))
        argv = (command, *(arg.format(gen6=gen6) for arg in source))
        assert run_cli(*argv) == 0
        assert calls == []

    @pytest.mark.parametrize("suites, passes", [
        (("slopes",), 0),
        (("slopes", "cumulant"), 0),
        (("inequalities",), 1),
        ((), 1),
    ], ids=["slopes", "no-inequalities", "inequalities", "all"])
    def test_only_the_inequality_suite_reads_a_grid(self, suites, passes, monkeypatch,
                                                     capsys):
        """Verify forms the grid once for the inequality suite and not
        otherwise."""
        calls = []
        for module in (cli, response):
            original = module.grid_pass
            monkeypatch.setattr(module, "grid_pass", lambda *args, _original=original:
                                calls.append(1) or _original(*args))
        argv = ["verify", "--random", "8"] + [f"--suite={suite}" for suite in suites]
        assert run_cli(*argv) == 0
        assert len(calls) == passes


class TestExitContract:
    @pytest.mark.parametrize("module", ["core", "fluctuation", "genrand", "response",
                                        "spinboson", "cli"])
    def test_every_exported_error_derives_from_one_of_two_bases(self, module):
        # main catches exactly these two bases (and OSError) for exits 1 and 2
        mod = importlib.import_module(f"nlsthermo.{module}")
        errors = [getattr(mod, name) for name in mod.__all__]
        errors = [e for e in errors if isinstance(e, type) and issubclass(e, BaseException)]
        for error in errors:
            assert issubclass(error, (InvalidInputError, EvaluationError)), error

    def test_exhausted_generation_exits_one_without_traceback(self):
        result = run_process("gen", "128", "--seed", "0")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "no acceptable instance" in result.stderr
        assert "Traceback" not in result.stderr


class TestDeterminism:
    def test_verify_reports_are_byte_identical(self):
        first = run_process("verify", "--random", "4", "--seed", "42")
        second = run_process("verify", "--random", "4", "--seed", "42")
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0

    def test_verify_file_matches_generated_instance(self, tmp_path, capsys):
        # serializing the instance and re-verifying reproduces every check
        inst_path = tmp_path / "inst.json"
        run_cli("gen", "4", "--seed", "42", "--out", str(inst_path))
        capsys.readouterr()
        assert run_cli("verify", "--random", "4", "--seed", "42") == 0
        from_random = json.loads(capsys.readouterr().out)
        assert run_cli("verify", "--input", str(inst_path)) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert from_file["checks"] == from_random["checks"]
