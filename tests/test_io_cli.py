import contextlib
import dataclasses
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
from herglotz import cli, exceptions
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
from herglotz.io import CanonicalText, canonical_json, format_float


def problem_text(values):
    seq = CoefficientSequence.from_scalars(values)
    return serialize_problem(ProblemFile.from_sequence(seq))


def write_problem(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(problem_text(values))
    return str(path)


# coefficients nested deeper than numpy's ``flat`` iterator takes (32
# dimensions) and than numpy 2's arrays reach (64), up to just below the
# recursion limit that ``json.loads`` refuses
DEEP_NESTINGS = [34, 64, 500, 990]


def deeply_nested_text(depth, leaf=""):
    return '{"block_dim": 1, "coefficients": ' + "[" * depth + leaf + "]" * depth + "}"


@pytest.fixture
def stack_headroom():
    # json.loads counts the caller's frames against the recursion limit
    # before Python 3.12, and a test runs some 50 frames deeper than a
    # command does (``python -m herglotz check`` parses 985 levels and
    # refuses 988 as too deep); 200 more frames let the 990-deep nesting
    # reach the parser from a test on every supported Python
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 200)
    yield
    sys.setrecursionlimit(limit)


def is_deep_nesting_refusal(message):
    # numpy 2 reads up to 64 levels as dimensions, so a shallower nesting
    # gets the shape message; deeper levels are lists where numbers belong
    return message == "coefficient 0: entries must be [re, im] number pairs" or (
        message.startswith("coefficient 0 has shape (1, 1, 1, ")
        or message.startswith("coefficient 0: expected rows of [re, im] pairs, got shape (1, 1, ")
    )


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
            ('{"block_dim": 1, "coefficients": [[[[null, 0]]]]}',
             "coefficient 0: entries must be [re, im] number pairs"),
            ('{"block_dim": 1, "coefficients": {}}',
             "coefficients must be a non-empty list of matrices"),
        ],
        ids=["list", "block_dim-0", "null-entry", "coefficients-object"],
    )
    def test_malformed_schema_is_named(self, tmp_path, capsys, text, message):
        # by the parser, and by the CLI with exit status 2
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert str(err.value) == message
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["check", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_refused_problem_leaves_the_file_as_it_was(self, tmp_path):
        # the problem is serialized before the file is opened
        path = tmp_path / "p.json"
        path.write_bytes(b"kept")
        pf = ProblemFile(block_dim=1, coefficients=np.array([[[np.nan]]]))
        with pytest.raises(ProblemFormatError, match="non-finite"):
            herglotz_io.save_problem(pf, path)
        assert path.read_bytes() == b"kept"

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

    @pytest.mark.parametrize("leaf", ["", "1, 0"], ids=["empty", "pair"])
    @pytest.mark.parametrize("depth", DEEP_NESTINGS)
    def test_deeply_nested_coefficients_are_malformed(self, stack_headroom, depth, leaf):
        # past numpy's 32 iterator dimensions, below the recursion limit
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(deeply_nested_text(depth, leaf))
        assert is_deep_nesting_refusal(str(err.value))


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


def _recursive_emit(value):
    # the isinstance chain ``canonical_json`` dispatched through before its
    # table of exact types, with ``json.dumps`` quoting each key and string
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, np.ndarray):
        return herglotz_io._emit_array(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_recursive_emit(value[k])}" for k in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_recursive_emit(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return format_float(value)
    if isinstance(value, CanonicalText):
        return value[:-1]
    if isinstance(value, str):
        return json.dumps(value)
    raise ProblemFormatError(f"cannot serialize value of type {type(value).__name__}")


# text with the characters JSON escapes: quotes, backslashes, control and
# non-ASCII characters (astral ones become surrogate pairs), and "%"
awkward_text = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "%", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001f600"]),
        st.characters(codec="utf-8"),
    ),
    max_size=6,
)
emitter_leaves = st.one_of(
    finite_floats,
    st.just(-0.0),
    finite_floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    awkward_text,
    complex_arrays(st.tuples(st.integers(0, 2), st.integers(0, 2))),
)


def emitter_trees(leaves=emitter_leaves):
    # nested dicts, lists and tuples, with subtrees already formatted as
    # CanonicalText among the leaves
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(awkward_text, children, max_size=4),
            children.map(canonical_json),
        ),
        max_leaves=16,
    )


class TestEmitterDispatch:
    @settings(max_examples=300, deadline=None)
    @given(emitter_trees())
    def test_matches_the_recursive_emitter(self, tree):
        assert canonical_json(tree) == _recursive_emit(tree) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(
        emitter_trees(),
        st.sampled_from([np.inf, -np.inf, np.nan]),
        st.sampled_from([float, np.float64]),
        st.integers(0, 2),
    )
    def test_non_finite_float_is_refused_as_before(self, tree, bad, kind, place):
        leaf = kind(bad)
        tree = [[tree, leaf], {"a": tree, "b": leaf}, (leaf, tree)][place]
        with pytest.raises(ProblemFormatError) as err:
            canonical_json(tree)
        with pytest.raises(ProblemFormatError) as ref:
            _recursive_emit(tree)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("value", [None, {1}, b"x", 1j, np.bool_(True)])
    def test_unknown_leaf_is_refused_as_before(self, value):
        with pytest.raises(ProblemFormatError) as err:
            canonical_json({"a": [value]})
        with pytest.raises(ProblemFormatError) as ref:
            _recursive_emit({"a": [value]})
        assert str(err.value) == str(ref.value)


FAULTS = [
    "ragged", "string", "numeric string", "huge", "shape", "nan", "inf", "empty",
    "empty row", "empty coefficient", "boolean",
]


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
    elif fault == "numeric string":
        values[k][i][j] = "1"
    elif fault == "empty row":
        # ragged when d > 1, a 1 x 0 coefficient when d = 1
        values[k][i] = []
    elif fault == "empty coefficient":
        values[k] = []
    elif fault == "boolean":
        # numpy would read it as 1 among numbers; the file writes [true, 0]
        values[k][i][j] = True
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


def _decorated(text, decoration):
    # the same file with a bare literal outside its coefficients, or a
    # metadata value that holds the word "true"
    raw = json.loads(text)
    if decoration == "flag":
        raw["flag"] = True
    elif decoration == "untrue":
        raw["metadata"] = {"note": "untrue"}
    return json.dumps(raw)


def _parse_outcome(text):
    try:
        return parse_problem(text).coefficients.tobytes()
    except ProblemFormatError as exc:
        return str(exc)


class TestOneCoefficientWalk:
    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists(), st.sampled_from([None, "flag", "untrue"]))
    def test_parse_and_serialize_refuse_together(self, case, decoration):
        # serialize_problem of the complex matrices and parse_problem of the
        # same matrices as [re, im] pairs refuse the same fault with the same
        # message, and accept the same lists, byte for byte; what the file
        # holds outside its coefficients changes neither
        d, values = case
        text = json.dumps({"block_dim": d, "coefficients": _pairs(values)})
        if decoration:
            assert _parse_outcome(_decorated(text, decoration)) == _parse_outcome(text)
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

    @pytest.fixture
    def list_conversions(self, monkeypatch):
        # the dtype of each np.asarray call that herglotz.io makes on
        # anything but an ndarray
        calls = []
        asarray = np.asarray

        def counting(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "herglotz.io":
                if not isinstance(a, np.ndarray):
                    calls.append(kwargs.get("dtype", args[0] if args else None))
            return asarray(a, *args, **kwargs)

        monkeypatch.setattr(np, "asarray", counting)
        return calls

    def test_a_list_is_converted_once(self, list_conversions):
        values = np.array([[[1 + 2j, 0.5], [0, 3]], [[0.25j, 1], [-1, 2]]])
        written = serialize_problem(ProblemFile(block_dim=2, coefficients=values.tolist()))
        assert list_conversions == [object]
        list_conversions.clear()
        text = _decorated(written, "flag")
        assert np.array_equal(parse_problem(text).coefficients, values)
        assert list_conversions == [object]

    def test_numpy_scalars_convert_as_their_values(self):
        values = [
            [[np.float32(0.1), np.int64(2**62 + 1)], [np.complex64(0.1 + 0.2j), 1.0]],
            [[np.int64(-3), np.complex64(1j)], [np.float32(2.5), 0.5j]],
        ]
        exact = np.array([[[complex(x) for x in row] for row in m] for m in values])
        written = serialize_problem(ProblemFile(block_dim=2, coefficients=values))
        assert written == serialize_problem(ProblemFile(block_dim=2, coefficients=exact))

    def test_numpy_bool_is_refused(self):
        pf = ProblemFile(block_dim=1, coefficients=[[[1.0]], [[np.True_]]])
        with pytest.raises(ProblemFormatError) as err:
            serialize_problem(pf)
        assert str(err.value) == "coefficient 1: entries must be [re, im] number pairs"


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
        # identity data: no pivot of the Cholesky rung marks a level, so the
        # spectrum decides; the ends are decomposed, the levels between them
        # are decided by interlacing and carry the bracket instead of a value
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

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            b'{"block_dim": 1, "coefficients": ' + b"[" * 100000 + b"]" * 100000 + b"}",
            b'{"block_dim": 1, "coefficients": [[[[1' + b"0" * 5000 + b', 0]]]]}',
        ]
        + [deeply_nested_text(depth).encode() for depth in DEEP_NESTINGS],
        ids=["not-utf-8", "nested-past-the-recursion-limit", "integer-of-5001-digits"]
        + [f"coefficients-nested-{depth}-deep" for depth in DEEP_NESTINGS],
    )
    def test_unreadable_text_is_a_parse_error(self, stack_headroom, tmp_path, capsys, content):
        # each is refused with one error line; the message is the
        # interpreter's (a Python before 3.10.7 reads the long integer and
        # refuses it as too large for a float), and for the nested
        # coefficients it depends on the dimensions numpy's arrays reach
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["check", str(path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_numeric_string_is_a_parse_error(self, tmp_path, capsys):
        # the schema asks for numbers; "1" is text, even where it reads as one
        path = tmp_path / "text.json"
        path.write_text('{"block_dim": 1, "coefficients": [[[["1", "0.5"]]]]}')
        assert main(["check", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: coefficient 0: entries must be [re, im] number pairs\n"
        )

    @pytest.mark.parametrize(
        "coefficients, index",
        [("[[[[true, 0]]]]", 0), ("[[[[1.5, 0]]], [[[false, 0.5]]]]", 1)],
        ids=["alone", "among-numbers"],
    )
    def test_boolean_is_a_parse_error(self, tmp_path, capsys, coefficients, index):
        # numpy reads true among numbers as 1, which would not round-trip
        path = tmp_path / "bool.json"
        path.write_text('{"block_dim": 1, "coefficients": %s}' % coefficients)
        assert main(["check", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: coefficient {index}: entries must be [re, im] number pairs\n"
        )

    @pytest.mark.parametrize(
        "coefficients, index",
        [(np.array([[[True]]]), 0), ([[[1.5]], [[True]]], 1)],
        ids=["bool-array", "among-numbers"],
    )
    def test_boolean_is_not_serialized(self, coefficients, index):
        with pytest.raises(ProblemFormatError) as err:
            serialize_problem(ProblemFile(1, coefficients))
        assert str(err.value) == f"coefficient {index}: entries must be [re, im] number pairs"

    def test_integer_past_int64_is_a_number(self, tmp_path, capsys):
        # numpy holds it as an object; it still reads as the float it rounds to
        path = tmp_path / "wide.json"
        path.write_text('{"block_dim": 1, "coefficients": [[[[1%s, 0]]]]}' % ("0" * 30))
        assert main(["check", str(path)]) == EXIT_OK
        assert parse_problem(path.read_text()).coefficients[0, 0, 0] == 1e30

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

    def test_shift_below_working_precision_moves_no_central_output(self, tmp_path, capsys):
        # the central extension takes no shift, so eps = 1e-300 writes the
        # default's bytes for the rank-deficient fixture, extended to order
        # 8; scaled by 1e4, the certificate of its central extension (which
        # grows with the data) exceeds max(tol, eps), the output's dense
        # check settles it, and eps = 1e-300 still writes the default's bytes
        fixture = tmp_path / "fixture.json"
        argv = ["generate", "--block-dim", "2", "--state-dim", "5", "--order", "2"]
        assert main([*argv, "--output", str(fixture)]) == EXIT_OK
        seq = parse_problem(fixture.read_text()).to_sequence()
        for scale in (1.0, 1e4):
            scaled = CoefficientSequence(seq.coefficients * scale)
            fixture.write_text(serialize_problem(ProblemFile.from_sequence(scaled)))
            written = []
            for eps in ("1e-8", "1e-300"):
                out = tmp_path / f"solved-{eps}.json"
                argv = ["solve", str(fixture), "--eps", eps, "--horizon", "8", "--truncation", "8"]
                assert main([*argv, "--output", str(out)]) == EXIT_OK
                written.append(out.read_bytes())
            assert written[0] == written[1]
        capsys.readouterr()

    def test_overflowing_data_write_only_the_error_line(self, tmp_path, capsys):
        # the data pass their check, but the spectrum of T_1 passes the float
        # maximum: refused for it, quietly, with the one line written
        path = tmp_path / "big.json"
        path.write_text('{"block_dim": 1, "coefficients": [[[[1e308, 0]]], [[[1e308, 0]]]]}')
        assert main(["solve", str(path)]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the spectrum of T_1 passes the float maximum\n"

    def test_scaled_rank_deficient_data_are_refused_by_the_rounding_margin(
        self, tmp_path, capsys
    ):
        # rank-deficient data scaled by 1e4 extend to the default truncation,
        # 256: the certificate's beta exceeds max(tol, eps) = 1e-8, and T_256
        # is singular by construction (rank 5).  Its computed least
        # eigenvalue lies within 1e-8 of 0, but at this size and scale the
        # rounding of eigvalsh (and of the Cholesky rung) exceeds 1e-8, so no
        # check at working precision shows lambda_min(T_256) >= -1e-8: the
        # output is refused, naming the margin, until tolerances are relative
        fixture = tmp_path / "fixture.json"
        argv = ["generate", "--block-dim", "2", "--state-dim", "5", "--order", "2"]
        assert main([*argv, "--output", str(fixture)]) == EXIT_OK
        seq = parse_problem(fixture.read_text()).to_sequence()
        scaled = CoefficientSequence(seq.coefficients * 1e4)
        fixture.write_text(serialize_problem(ProblemFile.from_sequence(scaled)))
        capsys.readouterr()
        assert main(["solve", str(fixture), "--json"]) == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert err.startswith(
            "error: the Toeplitz matrix of the central extension at level 256 is not PSD within "
            "1.000e-08 (least eigenvalue "
        )
        margin = float(err.rsplit("rounding margin ", 1)[1].rstrip(")\n"))
        assert margin > 1e-8

    def test_kernel_report_not_psd_fails(self, tmp_path, capsys, monkeypatch):
        # a failing kernel Gram (its verdict forced here): the report is
        # still emitted, and its own verdict sets the exit status
        path = write_problem(tmp_path, "p.json", [1, 0.9])
        kernel_gram = cli.kernel_gram

        def failing(*args):
            return dataclasses.replace(kernel_gram(*args), min_eigenvalue=-2.0, is_psd=False)

        monkeypatch.setattr(cli, "kernel_gram", failing)
        assert main(["solve", path, "--json"]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["kernel"]["psd"] is False
        assert report["kernel"]["min_eigenvalue"] == -2.0
        assert "error: kernel Gram matrix is not PSD" in captured.err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_computation_too_large_for_memory_exits_5(self, tmp_path, capsys, monkeypatch, flags):
        # numpy's refusal to allocate (raised here, with its message, and no
        # allocation made) is a documented exit: status 5, one error line
        # and nothing on stdout, not a traceback
        path = write_problem(tmp_path, "p.json", [1, 0.9])
        message = (
            "Unable to allocate 15.3 GiB for an array with shape (32002, 32002) and data type "
            "complex128"
        )

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "solve_cf", exhausted)
        assert main(["solve", path, "--horizon", "16000", *flags]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_a_large_shift_keeps_the_central_extension(self, tmp_path, capsys):
        # eps = 1 would move the shifted chain off the data's ball, to an
        # output whose Toeplitz matrix reaches -0.241; the central extension
        # takes no shift: (1, 0.9) extends as 0.9^n, and its kernel passes
        path = write_problem(tmp_path, "p.json", [1, 0.9])
        assert main(["solve", path, "--eps", "1", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kernel"]["psd"] is True
        got = [c[0][0][0] for c in report["problem"]["coefficients"]]
        np.testing.assert_allclose(got, 0.9 ** np.arange(65), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_written_prefix_does_not_depend_on_the_truncation(self, tmp_path, seed):
        # the solve writes the same bytes whatever length it extends to:
        # each coefficient comes from products of one width
        fixture = tmp_path / "fixture.json"
        argv = ["generate", "--seed", str(seed), "--block-dim", "3", "--state-dim", "8"]
        assert main([*argv, "--order", "6", "--output", str(fixture)]) == EXIT_OK
        written = []
        for truncation in ("64", "256"):
            out = tmp_path / f"solved-{truncation}.json"
            argv = ["solve", str(fixture), "--horizon", "64", "--truncation", truncation]
            assert main([*argv, "--output", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]


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

    def test_entries_near_the_float_maximum_reduce(self, tmp_path, capsys):
        # (M_0 + M_0*) / 2 halved before adding and the factor's residual
        # scaled by a power of 2: no overflow (which the suite turns into an
        # error) and no residual refused as inf
        path = tmp_path / "big.json"
        path.write_text('{"block_dim": 1, "coefficients": [[[[1e308, 0]]], [[[1e308, 0]]]]}')
        assert main(["reduce", str(path), "--json"]) == EXIT_OK
        reduced = json.loads(capsys.readouterr().out)["reduced"]
        assert reduced["rank"] == 1 and reduced["residuals"] == [0, 0]

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

    @pytest.mark.parametrize(
        "error",
        [
            *(
                cls
                for cls in vars(exceptions).values()
                if isinstance(cls, type) and issubclass(cls, Exception)
            ),
            OSError,
            FileNotFoundError,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_each_failure_exits_with_its_documented_status(
        self, tmp_path, capsys, monkeypatch, error
    ):
        # 2 argument, 3 infeasible, 4 domain, 5 every other library error,
        # with one error line and nothing on stdout
        documented = {
            exceptions.ProblemFormatError: EXIT_PARSE,
            OSError: EXIT_PARSE,
            FileNotFoundError: EXIT_PARSE,
            exceptions.NotPsdError: EXIT_INFEASIBLE,
            exceptions.RangeCompatibilityError: EXIT_INFEASIBLE,
            exceptions.DomainError: EXIT_DOMAIN,
        }

        def failing(args):
            raise error("the reason")

        path = write_problem(tmp_path, "p.json", [1, 0.5])
        monkeypatch.setattr(cli, "cmd_check", failing)
        assert main(["check", path]) == documented.get(error, EXIT_TOLERANCE)
        assert capsys.readouterr() == ("", "error: the reason\n")

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def failing(args):
            raise KeyError("not a command failure")

        path = write_problem(tmp_path, "p.json", [1, 0.5])
        monkeypatch.setattr(cli, "cmd_check", failing)
        with pytest.raises(KeyError):
            main(["check", path])

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
