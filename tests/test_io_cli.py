import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from herglotz import (
    CoefficientSequence,
    ProblemFile,
    ProblemFormatError,
    RunConfig,
    parse_problem,
    serialize_problem,
)
from herglotz import cli
from herglotz.cli import (
    EXIT_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOLERANCE,
    build_parser,
    main,
)
from herglotz.io import canonical_json


def problem_text(values):
    seq = CoefficientSequence.from_scalars(values)
    return serialize_problem(ProblemFile.from_sequence(seq))


def write_problem(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(problem_text(values))
    return str(path)


class TestProblemFormat:
    def test_round_trip_awkward_floats(self):
        seq = CoefficientSequence.from_scalars([1 / 3, 1e-17 + 0.1j, -0.0, 2**-52])
        text = serialize_problem(ProblemFile.from_sequence(seq, metadata={"b": "2", "a": "1"}))
        parsed = parse_problem(text)
        assert serialize_problem(parsed) == text
        assert np.array_equal(parsed.to_sequence().coefficients, seq.coefficients)

    def test_canonical_key_order(self):
        text = problem_text([1.0])
        assert text.index('"block_dim"') < text.index('"coefficients"') < text.index('"metadata"')
        assert text.endswith("\n")

    def test_seventeen_significant_digits(self):
        text = problem_text([1 / 3])
        assert "0.33333333333333331" in text

    def test_parse_accepts_non_canonical_input(self):
        raw = json.dumps(
            {"metadata": {}, "coefficients": [[[[1, 0]]]], "block_dim": 1}, indent=4
        )
        pf = parse_problem(raw)
        assert pf.block_dim == 1
        assert np.allclose(pf.coefficients[0], [[1.0]])

    def test_bad_json_reports_position(self):
        with pytest.raises(ProblemFormatError, match="line 1"):
            parse_problem("{nope")

    def test_missing_key(self):
        with pytest.raises(ProblemFormatError, match="coefficients"):
            parse_problem('{"block_dim": 1}')

    def test_shape_mismatch(self):
        with pytest.raises(ProblemFormatError, match="coefficient 0"):
            parse_problem('{"block_dim": 2, "coefficients": [[[[1, 0]]]]}')

    def test_non_pair_entries(self):
        with pytest.raises(ProblemFormatError):
            parse_problem('{"block_dim": 1, "coefficients": [[[1]]]}')

    def test_non_finite_rejected_on_serialize(self):
        pf = ProblemFile(block_dim=1, coefficients=[np.array([[np.inf]])])
        with pytest.raises(ProblemFormatError):
            serialize_problem(pf)

    def test_metadata_must_be_string_map(self):
        with pytest.raises(ProblemFormatError, match="metadata"):
            parse_problem('{"block_dim": 1, "coefficients": [[[[1, 0]]]], "metadata": {"a": 1}}')


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.eps == 1e-8 and cfg.tol == 1e-9 and cfg.horizon == 64
        assert cfg.truncation == 256 and cfg.grid == 16 and cfg.radius == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"tol": -1.0},
            {"radius": 1.0},
            {"radius": 0.0},
            {"grid": 0},
            {"horizon": -1},
            {"truncation": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ProblemFormatError):
            RunConfig(**kwargs)

    def test_cli_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["check", "p.json"])
        cfg = RunConfig()
        for name in ("eps", "tol", "horizon", "truncation", "grid", "seed", "radius"):
            assert getattr(args, name) == getattr(cfg, name)

    @pytest.mark.parametrize("flag", ["--grid=0", "--horizon=-3", "--truncation=-1"])
    def test_invalid_run_flag_is_an_argument_error(self, tmp_path, capsys, flag):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        assert main(["solve", path, flag]) == EXIT_PARSE
        assert flag[2:].split("=")[0] in capsys.readouterr().err


class TestCheckCommand:
    def test_positive_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 1])
        assert main(["check", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "level 0" in out and "level 1" in out and "verdict: PSD" in out

    def test_infeasible_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 2])
        assert main(["check", path]) == EXIT_INFEASIBLE
        assert "not PSD" in capsys.readouterr().out

    def test_single_level(self, tmp_path):
        path = write_problem(tmp_path, "p.json", [1])
        assert main(["check", path]) == EXIT_OK

    def test_json_report(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 1])
        assert main(["check", path, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "check"
        assert report["all_psd"] is True
        assert report["levels"][0]["min_eigenvalue"] == pytest.approx(1.0)
        assert report["levels"][1]["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)

    def test_interlaced_levels_report_a_bracket(self, tmp_path, capsys):
        # identity data: the ends are decomposed, the levels between them are
        # decided by interlacing and carry the bracket instead of a value
        path = write_problem(tmp_path, "p.json", [1, 0, 0, 0])
        assert main(["check", path, "--json"]) == EXIT_OK
        levels = json.loads(capsys.readouterr().out)["levels"]
        assert [sorted(level) for level in levels[1:-1]] == [
            ["is_psd", "is_strictly_positive", "level", "min_eigenvalue_bounds"]
        ] * 2
        for level in levels[1:-1]:
            lower, upper = level["min_eigenvalue_bounds"]
            assert lower < 1.0 < upper and level["is_psd"] and level["is_strictly_positive"]
        assert levels[0]["min_eigenvalue"] == levels[-1]["min_eigenvalue"] == pytest.approx(1.0)
        assert main(["check", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level 0: min eigenvalue +1.000000e+00  PSD"
        assert lines[1] == "level 1: min eigenvalue in [+1.000000e+00, +1.000000e+00]  PSD"

    def test_unreadable_file(self, tmp_path):
        assert main(["check", str(tmp_path / "missing.json")]) == EXIT_PARSE

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["check", str(path)]) == EXIT_PARSE
        assert "line" in capsys.readouterr().err


class TestSolveCommand:
    def test_geometric_family(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        out_path = tmp_path / "solved.json"
        code = main(
            ["solve", path, "--horizon", "8", "--truncation", "8", "--output", str(out_path)]
        )
        assert code == EXIT_OK
        solved = parse_problem(out_path.read_text())
        got = np.array([m[0, 0].real for m in solved.coefficients])
        assert np.allclose(got, 0.5 ** np.arange(9), atol=1e-6)
        assert "kernel gram min eigenvalue" in capsys.readouterr().out

    def test_constant_family_to_stdout(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1])
        code = main(["solve", path, "--horizon", "4", "--truncation", "4"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        solved = parse_problem(captured.out)
        got = np.array([m[0, 0].real for m in solved.coefficients])
        assert np.allclose(got, [1, 0, 0, 0, 0], atol=1e-7)
        assert "kernel gram min eigenvalue" in captured.err

    def test_infeasible_reports_level(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 2])
        assert main(["solve", path]) == EXIT_INFEASIBLE
        assert "level 1" in capsys.readouterr().err

    def test_generated_fixture_default_config(self, tmp_path, capsys):
        # full default pipeline: the kernel summary is evaluated at the
        # truncation length, so the reported Gram bound is meaningful
        fixture = tmp_path / "fixture.json"
        assert main(["generate", "--seed", "5", "--state-dim", "3", "--order", "4",
                     "--output", str(fixture)]) == EXIT_OK
        capsys.readouterr()
        code = main(["solve", str(fixture), "--json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kernel"]["min_eigenvalue"] >= -1e-6
        assert len(report["problem"]["coefficients"]) == 65

    def test_json_report_and_output_file_share_the_problem(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        out_path = tmp_path / "solved.json"
        argv = ["solve", path, "--horizon", "4", "--truncation", "4", "--json",
                "--output", str(out_path)]
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert out_path.read_text() == canonical_json(report["problem"])

    def test_json_solution(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        code = main(["solve", path, "--horizon", "4", "--truncation", "4", "--json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "solve"
        assert report["kernel"]["psd"] is True
        coeffs = report["problem"]["coefficients"]
        assert coeffs[2][0][0][0] == pytest.approx(0.25, abs=1e-6)

    def test_kernel_report_not_psd_fails(self, tmp_path, capsys):
        # eps = 1 moves the extension off the data's ball: the report is
        # still emitted, and its own verdict sets the exit status
        path = write_problem(tmp_path, "p.json", [1, 0.9])
        assert main(["solve", path, "--eps", "1", "--json"]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["kernel"]["psd"] is False
        assert report["kernel"]["min_eigenvalue"] < -1
        assert "error: kernel Gram matrix is not PSD" in captured.err


class TestEvalCommands:
    def test_eval_all_ones(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", np.ones(201))
        assert main(["eval", path, "--z", "0.5", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["value"][0][0][0] == pytest.approx(3.0, abs=1e-6)
        assert report["tail_bound"] < 1e-6

    def test_eval_origin(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [0.25, 1, 1])
        assert main(["eval", path, "--z", "0,0", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["value"][0][0][0] == pytest.approx(0.25)

    def test_eval_outside_radius(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 1])
        assert main(["eval", path, "--z", "0.95"]) == EXIT_DOMAIN
        assert "radius" in capsys.readouterr().err

    def test_kernel_all_ones(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", np.ones(201))
        assert main(["kernel", path, "--z", "0.5", "--w", "0.5", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["value"][0][0][0] == pytest.approx(8.0, abs=1e-6)

    def test_text_eval_follows_redirected_stdout(self, tmp_path):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["eval", path, "--z", "0.5"]) == EXIT_OK
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("value at z")
        assert lines[1] == "  [+1.500000000000e+00+0.000000000000e+00j]"
        assert lines[2].startswith("truncation tail bound")

    def test_kernel_human_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", np.ones(51))
        assert main(["kernel", path, "--z", "0.1", "--w", "0.2,0.1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel at" in out and "tail bound" in out


class TestReduceCommand:
    def test_scalar_two_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [2, 2])
        assert main(["reduce", path, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        reduced = report["reduced"]
        assert reduced["rank"] == 1
        assert abs(reduced["t0"][0][0][0]) == pytest.approx(np.sqrt(2))
        assert reduced["t_coefficients"][0][0][0][0] == pytest.approx(1.0)
        assert reduced["t_coefficients"][1][0][0][0] == pytest.approx(1.0)

    def test_skew_constant_term(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1 + 2j, 0])
        assert main(["reduce", path, "--json"]) == EXIT_OK
        reduced = json.loads(capsys.readouterr().out)["reduced"]
        assert reduced["d_imag"][0][0] == pytest.approx([0.0, 2.0])
        assert abs(reduced["t0"][0][0][0]) == pytest.approx(1.0)

    def test_zero_real_part(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [2j, 0])
        assert main(["reduce", path, "--json"]) == EXIT_OK
        reduced = json.loads(capsys.readouterr().out)["reduced"]
        assert reduced["rank"] == 0
        assert reduced["t_coefficients"] == []

    def test_incompatible_data(self, tmp_path):
        path = write_problem(tmp_path, "p.json", [2j, 0.5])
        assert main(["reduce", path]) == EXIT_INFEASIBLE

    def test_writes_output_file(self, tmp_path):
        path = write_problem(tmp_path, "p.json", [2, 2])
        out_path = tmp_path / "reduced.json"
        assert main(["reduce", path, "--output", str(out_path)]) == EXIT_OK
        reduced = json.loads(out_path.read_text())
        assert reduced["rank"] == 1


class TestGenerateCommand:
    def test_generated_file_passes_check(self, tmp_path, capsys):
        out_path = tmp_path / "fixture.json"
        code = main(
            ["generate", "--seed", "0", "--block-dim", "1", "--state-dim", "1",
             "--order", "4", "--output", str(out_path)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        assert main(["check", str(out_path), "--tol", "1e-10"]) == EXIT_OK

    def test_deterministic_per_seed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["generate", "--seed", "7", "--block-dim", "2", "--state-dim", "5", "--order", "6"]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["generate", "--seed", "1", "--output", str(a)]) == EXIT_OK
        assert main(["generate", "--seed", "2", "--output", str(b)]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    def test_zero_c_kills_hermitian_parts(self, tmp_path):
        out_path = tmp_path / "zc.json"
        code = main(
            ["generate", "--seed", "3", "--block-dim", "2", "--state-dim", "4",
             "--order", "3", "--zero-c", "--output", str(out_path)]
        )
        assert code == EXIT_OK
        pf = parse_problem(out_path.read_text())
        for idx, m in enumerate(pf.coefficients):
            herm = (m + m.conj().T) / 2
            assert not herm.any()
            if idx > 0:
                assert not m.any()

    def test_unwritable_output_is_an_argument_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.json"
        assert main(["generate", "--seed", "0", "--output", str(out_path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_path.exists()

    def test_round_trip_identity_on_generated(self, tmp_path):
        out_path = tmp_path / "f.json"
        assert main(["generate", "--seed", "11", "--output", str(out_path)]) == EXIT_OK
        text = out_path.read_text()
        assert serialize_problem(parse_problem(text)) == text


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        proc = subprocess.run(
            [sys.executable, "-m", "herglotz", "check", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict: PSD" in proc.stdout

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        # main reuses one parser; each call must still parse on its own
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        argvs = [["check", path], ["eval", path], ["eval", path, "--z", "0.5"], ["check", path]]
        fresh = [
            subprocess.run([sys.executable, "-m", "herglotz", *argv], capture_output=True, text=True)
            for argv in argvs
        ]
        for argv, proc in zip(argvs, fresh):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)

    def test_replaced_command_function_runs(self, tmp_path, monkeypatch):
        # the parser is reused, but each call dispatches to the command
        # function the module holds at that time
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        assert main(["check", path]) == EXIT_OK
        monkeypatch.setattr(cli, "cmd_check", lambda args: 42)
        assert main(["check", path]) == 42

    def test_argument_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["eval"])  # missing input and --z
        assert err.value.code == EXIT_PARSE
