import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herglotz import (
    CoefficientSequence,
    ProblemFile,
    ProblemFormatError,
    RunConfig,
    parse_problem,
    serialize_problem,
)
from herglotz import cli
from herglotz import io as herglotz_io
from herglotz.cli import (
    EXIT_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOLERANCE,
    build_parser,
    main,
)
from herglotz.io import canonical_json, format_float


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

    def test_block_dim_past_any_array_size_names_the_shape(self):
        # the per-coefficient walk checks each shape before it stacks them
        huge = 10**40
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(f'{{"block_dim": {huge}, "coefficients": [[[[1, 0]]]]}}')
        assert str(err.value) == f"coefficient 0 has shape (1, 1), expected ({huge}, {huge})"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "top level must be an object"),
            ('{"block_dim": 0, "coefficients": [[[[1, 0]]]]}',
             "block_dim must be a positive integer, got 0"),
        ],
        ids=["list", "block_dim-0"],
    )
    def test_malformed_schema_is_named(self, text, message):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert str(err.value) == message

    def test_serialize_rejects_block_dim_zero(self):
        pf = ProblemFile(block_dim=0, coefficients=np.zeros((1, 0, 0)))
        with pytest.raises(ProblemFormatError, match="block_dim must be >= 1"):
            serialize_problem(pf)

    def test_save_and_load_round_trip(self, tmp_path):
        pf = parse_problem(problem_text([1, 0.5 + 0.25j]))
        path = tmp_path / "p.json"
        herglotz_io.save_problem(pf, path)
        loaded = herglotz_io.load_problem(path)
        assert path.read_text() == serialize_problem(pf)
        assert np.array_equal(loaded.coefficients, pf.coefficients)

    def test_canonical_json_scalars(self):
        # a numpy float that is not a Python float is formatted as its value
        assert canonical_json([np.float32(0.5)]) == "[0.5]\n"
        with pytest.raises(ProblemFormatError, match="type set"):
            canonical_json({"a": {1}})

    def test_metadata_must_be_string_map(self):
        with pytest.raises(ProblemFormatError, match="metadata"):
            parse_problem('{"block_dim": 1, "coefficients": [[[[1, 0]]]], "metadata": {"a": 1}}')

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ([np.ones((1, 1)), np.ones((1, 1))], "coefficient 0 has shape (1, 1), expected (2, 2)"),
            (np.ones((3, 1, 1)), "coefficient 0 has shape (1, 1), expected (2, 2)"),
            (np.ones((0, 2, 2)), "coefficients must be a non-empty list of matrices"),
            ([], "coefficients must be a non-empty list of matrices"),
            ([np.ones((2, 2)), np.ones((1, 1))], "coefficient 1 has shape (1, 1), expected (2, 2)"),
            # an integer past the float range
            ([np.ones((2, 2)), [[1, 0], [0, 10**400]]],
             "coefficient 1: entry too large for a float"),
        ],
    )
    def test_serialize_rejects_what_parse_rejects(self, coefficients, message):
        pf = ProblemFile(block_dim=2, coefficients=coefficients)
        with pytest.raises(ProblemFormatError) as err:
            serialize_problem(pf)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            # ragged rows
            ("[[[[1, 0], [0, 0]], [[0, 0]]]]",
             "coefficient 0: entries must be [re, im] number pairs"),
            ("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0]]]]",
             "coefficient 1: entries must be [re, im] number pairs"),
            # a pair missing its imaginary part
            ("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0]], [[0, 0], [1, 0]]]]",
             "coefficient 1: entries must be [re, im] number pairs"),
            ("[[[[1], [0]], [[0], [1]]]]",
             "coefficient 0: expected rows of [re, im] pairs, got shape (2, 2, 1)"),
            # wrong block size in a later coefficient, and a later one still
            ("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]], [[[1, 0]]]]",
             "coefficient 1 has shape (1, 1), expected (2, 2)"),
            # a string
            ('[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], ["x", 0]], [[0, 0], [1, 0]]]]',
             "coefficient 1: entries must be [re, im] number pairs"),
            # nesting one level too deep
            ("[[[[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]]",
             "coefficient 0: expected rows of [re, im] pairs, got shape (2, 2, 1, 2)"),
            # and one level too shallow
            ("[[[1, 0], [0, 0]]]",
             "coefficient 0: expected rows of [re, im] pairs, got shape (2, 2)"),
            ("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, NaN], [1, 0]]]]",
             "coefficient 1: non-finite entry"),
            ("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [Infinity, 0]]]]",
             "coefficient 1: non-finite entry"),
            # JSON integers past the float range, in a real and an imaginary part
            ("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1%s, 0]]]]"
             % ("0" * 400), "coefficient 1: entry too large for a float"),
            ("[[[[1, -1%s], [0, 0]], [[0, 0], [1, 0]]]]" % ("0" * 309),
             "coefficient 0: entry too large for a float"),
            ("[]", "coefficients must be a non-empty list of matrices"),
        ],
    )
    def test_malformed_coefficients_name_the_first_bad_one(self, coefficients, message):
        text = f'{{"block_dim": 2, "coefficients": {coefficients}}}'
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert str(err.value) == message


def _reference_matrix_to_pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _reference_emit(value):
    # the per-float canonical emitter the bulk one replaced: plain trees of
    # dicts, lists, ints, strings and floats, each float through format_float
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_reference_emit(value[k])}" for k in sorted(value)
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_reference_emit(v) for v in value) + "]"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


def _reference_tree(a):
    # the pair tree the CLI and the problem file built per matrix
    if a.ndim == 2:
        return _reference_matrix_to_pairs(a)
    return [_reference_tree(m) for m in a]


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7e308, -1.7e308, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e22, 1 / 3,
    0.1, -2.0**-1074 * 12345,
]
finite_floats = st.one_of(
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
    .filter(np.isfinite),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**53), 2**53).map(float),
)
problem_shapes = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.integers(1, 6), st.just(d), st.just(d))
)
array_shapes = st.one_of(
    problem_shapes,
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([(0, 1), (0, 3), (0, 2, 2), (2, 0)]),
)


@st.composite
def complex_arrays(draw, shapes=array_shapes):
    shape = draw(shapes)
    size = int(np.prod(shape))
    floats = draw(st.lists(finite_floats, min_size=2 * size, max_size=2 * size))
    return np.array(floats, dtype=float).view(complex).reshape(shape)


class TestBulkEmitter:
    @settings(max_examples=150, deadline=None)
    @given(complex_arrays())
    def test_matches_the_per_float_emitter(self, a):
        tree = _reference_tree(a)
        assert canonical_json(a) == _reference_emit(tree) + "\n"
        assert canonical_json({"x": [a, 1 / 3]}) == _reference_emit({"x": [tree, 1 / 3]}) + "\n"

    @settings(max_examples=80, deadline=None)
    @given(complex_arrays(problem_shapes))
    def test_problem_files_match_and_round_trip(self, a):
        pf = ProblemFile(block_dim=a.shape[1], coefficients=a, metadata={"k": "v"})
        text = serialize_problem(pf)
        expected = {"block_dim": a.shape[1], "coefficients": _reference_tree(a),
                    "metadata": {"k": "v"}}
        assert text == _reference_emit(expected) + "\n"
        assert serialize_problem(parse_problem(text)) == text

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", [(0, 0, 0, 1), (1, 1, 0, 0), (2, 1, 1, 1)])
    def test_non_finite_message_names_the_first_bad_float(self, bad, index):
        floats = np.ones((3, 2, 2, 2))
        floats[index] = bad
        floats[2, 1, 1, 0] = -bad
        a = floats.view(complex)[..., 0]
        with pytest.raises(ProblemFormatError) as err:
            canonical_json(a)
        with pytest.raises(ProblemFormatError) as ref:
            _reference_emit(_reference_tree(a))
        assert str(err.value) == str(ref.value)


FAULTS = ["ragged", "string", "huge", "shape", "nan", "inf", "empty"]


@st.composite
def coefficient_lists(draw):
    # a coefficient list of complex matrices, valid or with one fault in one
    # coefficient, as a ProblemFile holds it and as a file writes it
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    floats = draw(st.lists(finite_floats, min_size=2 * n * d * d, max_size=2 * n * d * d))
    values = np.array(floats).view(complex).reshape(n, d, d).tolist()
    fault = draw(st.none() | st.sampled_from(FAULTS))
    k, i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if fault == "ragged":
        # a row one entry too long: ragged when d > 1, a wrong shape when d = 1
        values[k][i].append(0j)
    elif fault == "string":
        values[k][i][j] = "x"
    elif fault == "huge":
        values[k][i][j] = -(10**400)
    elif fault == "shape":
        side = draw(st.integers(1, 4).filter(lambda m: m != d))
        values[k] = np.ones((side, side), dtype=complex).tolist()
    elif fault in ("nan", "inf"):
        values[k][i][j] = complex(float(fault), 0.0)
    elif fault == "empty":
        values = []
    return d, values


def _pairs(entry):
    if isinstance(entry, list):
        return [_pairs(e) for e in entry]
    if isinstance(entry, complex):
        return [entry.real, entry.imag]
    return [entry, 0]


class TestOneCoefficientWalk:
    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists())
    def test_parse_and_serialize_refuse_together(self, case):
        # serialize_problem of the complex matrices and parse_problem of the
        # same matrices as [re, im] pairs refuse the same fault with the same
        # message, and accept the same lists, byte for byte
        d, values = case
        text = json.dumps({"block_dim": d, "coefficients": _pairs(values)})
        try:
            written = serialize_problem(ProblemFile(block_dim=d, coefficients=values))
        except ProblemFormatError as exc:
            with pytest.raises(ProblemFormatError) as err:
                parse_problem(text)
            assert str(err.value) == str(exc)
            return
        parsed = parse_problem(text)
        assert np.array_equal(parsed.coefficients, np.array(values))
        assert serialize_problem(parsed) == written
        assert serialize_problem(parse_problem(written)) == written


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
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"seed": -1},
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

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("flag", ["--tol=nan", "--tol=inf", "--eps=nan", "--eps=inf"])
    def test_non_finite_tolerance_is_an_argument_error(self, tmp_path, capsys, command, flag):
        # infeasible data: a NaN or infinite tolerance would pass them
        path = write_problem(tmp_path, "bad.json", [1, 2])
        assert main([command, path, flag]) == EXIT_PARSE
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

    def test_integer_past_the_float_range_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"block_dim": 1, "coefficients": [[[[1, 0]]], [[[1%s, 0]]]]}' % ("0" * 400))
        assert main(["check", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: coefficient 1: entry too large for a float\n"


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

    def test_json_report_and_output_file_share_the_problem(self, tmp_path, capsys, monkeypatch):
        # each command formats its product once: the --output file, the
        # product embedded in the --json report and the count of formatted
        # arrays all say so
        path = write_problem(tmp_path, "p.json", [1 + 0.25j, 0.5])
        out_path = tmp_path / "product.json"
        formatted = []
        emit_array = herglotz_io._emit_array
        monkeypatch.setattr(
            herglotz_io, "_emit_array", lambda a: formatted.append(a) or emit_array(a)
        )
        cases = [
            (["solve", path, "--horizon", "4", "--truncation", "4"], "problem", 1),
            (["reduce", path], "reduced", 3),  # d_imag, t0, t_coefficients
            (["generate", "--block-dim", "2", "--order", "3"], "problem", 1),
        ]
        for argv, key, arrays in cases:
            formatted.clear()
            assert main([*argv, "--json", "--output", str(out_path)]) == EXIT_OK
            stdout = capsys.readouterr().out
            product = out_path.read_text()
            assert product == canonical_json(json.loads(stdout)[key])
            assert f'"{key}": {product[:-1]}' in stdout
            assert len(formatted) == arrays

    def test_json_solution(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        code = main(["solve", path, "--horizon", "4", "--truncation", "4", "--json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "solve"
        assert report["kernel"]["psd"] is True
        coeffs = report["problem"]["coefficients"]
        assert coeffs[2][0][0][0] == pytest.approx(0.25, abs=1e-6)

    def test_shift_below_working_precision_is_a_tolerance_failure(self, tmp_path, capsys):
        # eps = 1e-300 leaves the shifted matrix of the data singular at
        # working precision: the extension raises, and nothing is emitted
        fixture = tmp_path / "fixture.json"
        argv = ["generate", "--block-dim", "2", "--state-dim", "5", "--order", "2"]
        assert main([*argv, "--output", str(fixture)]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", str(fixture), "--eps", "1e-300", "--horizon", "8"]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the eps-shifted Toeplitz matrix at level 2 ")

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

    @pytest.mark.parametrize("command", [["eval"], ["kernel", "--w", "0.5"]])
    def test_nan_point_is_outside_the_domain(self, tmp_path, capsys, command):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        assert main([command[0], path, "--z=nan,0", *command[1:]]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: |z| = nan")

    # numpy's overflow warnings are what this data must raise; the suite's
    # warnings-as-errors would stop the command before its own check
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", [["eval"], ["kernel", "--w", "0.5"]])
    def test_non_finite_value_is_a_tolerance_failure(self, tmp_path, capsys, command, mode):
        # M_0 + 2 z M_1 overflows at M_n = 1e308: exit 5 with an error line
        # in both output modes, not +inf with exit 0 nor a parse error
        path = tmp_path / "big.json"
        path.write_text('{"block_dim": 1, "coefficients": [[[[1e308, 0]]], [[[1e308, 0]]]]}')
        argv = [command[0], str(path), "--z", "0.5", *command[1:], *mode]
        assert main(argv) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command[0]} value or tail bound is not finite\n"

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
        assert reduced["t0"] == [] and reduced["t_coefficients"] == []
        assert reduced["d_imag"] == [[[0, 2]]]

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

    def test_zero_block_dim_is_an_argument_error(self, capsys):
        assert main(["generate", "--block-dim", "0"]) == EXIT_PARSE
        assert "block-dim >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("point", ["1,2,3", "x"])
    def test_malformed_point_is_an_argument_error(self, tmp_path, capsys, point):
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        with pytest.raises(SystemExit) as err:
            main(["eval", path, "--z", point])
        assert err.value.code == EXIT_PARSE
        assert "expected 're,im' or 're'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["check"], ["eval", "--z", "0.5"], ["kernel", "--z", "0.5", "--w", "0.25"]]
    )
    def test_output_without_a_data_product_is_an_argument_error(self, tmp_path, capsys, command):
        # only generate, reduce and solve write a data product, so only they
        # take --output; the others refuse it rather than write nothing
        path = write_problem(tmp_path, "p.json", [1, 0.5])
        out_path = tmp_path / "out.json"
        with pytest.raises(SystemExit) as err:
            main([command[0], path, *command[1:], "--output", str(out_path)])
        assert err.value.code == EXIT_PARSE
        assert "--output" in capsys.readouterr().err
        assert not out_path.exists()
