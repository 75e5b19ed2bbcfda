"""File formats: CSV round trips, predictor JSON, metric specs, reports."""

import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from conftest import random_dataset, strict_json, unit_ball_points
from metricfair import (
    ConstantMetric,
    ConstantPredictor,
    FairnessReport,
    HardnessMetric,
    HardnessReport,
    KernelPredictor,
    LabeledDataset,
    LinearPredictor,
    LogisticPredictor,
    MetricUndefinedError,
    ScaledEuclideanMetric,
    SolverDerivedParams,
    TrainingReport,
    ValidationError,
    sample_hardness_distribution,
)
from metricfair import serde
from metricfair.serde import (
    _dump,
    _float_rows,
    _float_table,
    _plain_lines,
    _matrix,
    _vector,
    load_dataset_csv,
    load_hardness_handle,
    load_matrix_metric,
    load_metric,
    load_predictor_json,
    save_dataset_csv,
    save_hardness_handle,
    save_matrix_metric,
    save_predictor_json,
    write_report,
)

#: cells that float() reads in an unusual way or rejects
ODD_CELLS = [" 1.5", "1_0", "\u0661", "Infinity", "-nan", "1e400", "-0.0", "", " ", "0x10",
             "nan(0x1)", "abc", "1e", "_1"]


class TestDatasetCsv:
    def test_round_trip_is_exact(self, rng, tmp_path):
        ds = random_dataset(rng, 23, 4)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(ds.features, loaded.features)
        assert np.array_equal(ds.labels, loaded.labels)

    def test_header_shape(self, rng, tmp_path):
        ds = random_dataset(rng, 3, 2)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        assert path.read_text().splitlines()[0] == "x1,x2,y"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValidationError):
            load_dataset_csv(path)

    @given(width=st.integers(1, 5), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_call_parse_matches_the_line_by_line_parse(self, width, data, tmp_path_factory):
        # cells float() accepts, cells it rejects, and lines with a field
        # too many or too few
        cell = (st.floats(width=64).map(repr) | st.integers(-99, 99).map(str)
                | st.sampled_from(ODD_CELLS))
        row = st.lists(cell, min_size=width, max_size=width)
        if data.draw(st.booleans(), label="misshapen"):
            row = row | st.lists(cell, min_size=0, max_size=width + 2)
        lines = data.draw(st.lists(row.map(",".join), max_size=6), label="lines")
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if _plain_lines(path) is None:
            # a non-ASCII cell, or an empty line, which numpy would skip
            assert not all(line.isascii() and line for line in lines)
            return
        table = _float_table(path, 0, (len(lines), width))
        try:
            expected = np.array(_float_rows(lines, width, "table", first=2))
        except ValidationError:
            assert table is None
        else:
            if table is None:
                # no rows, or a cell that only float() reads, such as 1_0
                assert not lines or any("_" in line for line in lines)
            else:
                assert table.shape == expected.shape and table.tobytes() == expected.tobytes()


#: text put into generated CSV files: the line breaks str.splitlines knows
#: besides "\n" (CRLF, a lone CR, form feed, ...), a BOM, non-ASCII digits,
#: a comment and a quote character, whitespace, a field separator, an
#: underscore and a NUL
_EDITS = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028",
          "\ufeff", "\u0661", "\uff11", "#", '"', " ", "\t", ",", "_", "\x00", ""]


@st.composite
def _csv_file(draw, rows, cells):
    """The text of a CSV file of `rows` lines, each `cells` drawn as lists of
    cell strings, mostly with a final newline, and in about half the files
    with up to three edits: some characters at one place removed and some
    text from _EDITS put in. Edits make blank, short and long lines, lines
    with trailing whitespace and lines split by other breaks."""
    lines = [",".join(draw(cells)) for _ in range(rows)]
    text = "\n".join(lines) + draw(st.sampled_from(["\n"] * 5 + ["", "\n\n", " \n", "\r\n"]))
    edits = st.lists(st.tuples(st.floats(0, 1), st.sampled_from(_EDITS), st.integers(0, 2)),
                     min_size=1, max_size=3)
    for where, insert, delete in draw(st.just(()) | edits):
        k = int(where * len(text))
        text = text[:k] + insert + text[k + delete:]
    return text


def _loaded(load, *args):
    """The shapes and bytes of the arrays load(*args) returns, or the type and
    message of what it raises."""
    try:
        result = load(*args)
    except Exception as exc:  # the reference's own errors, whatever they are
        return type(exc), str(exc)
    if isinstance(result, LabeledDataset):
        return [(a.shape, a.tobytes()) for a in (result.features, result.labels)]
    return result.matrix.shape, result.matrix.tobytes()


_FLOAT_CELLS = (st.floats(-0.4, 0.4).map(repr) | st.floats(-0.4, 0.4).map(lambda x: f"{x:.17g}")
                | st.sampled_from(["0", "-0.0", "5e-324", " 0.25", "0.125 ", "\t1e-3"]))
#: cells of a dataset or a matrix file: numbers that are in range, and in
#: some files cells from ODD_CELLS and out-of-range numbers
_CELLS = {
    "feature": (_FLOAT_CELLS, st.sampled_from(ODD_CELLS + ["0.9", "nan"])),
    "label": (st.sampled_from(["1", "-1", "1.0", " -1", "+1"]),
              st.sampled_from(["0.5", "nan", "1_0"])),
    "entry": (_FLOAT_CELLS.map(lambda c: c.replace("-", "")),
              st.sampled_from(ODD_CELLS + ["1.5", "-0.5", "nan"])),
}


def _cells(data, kind):
    """The cells of one kind for one file, odd ones in about half the files."""
    plain, odd = _CELLS[kind]
    return plain | odd if data.draw(st.booleans(), label=f"odd {kind}s") else plain


class TestCsvReaderAgainstTheReference:
    """The loaders return what the line-by-line reference of
    scalar_reference returns, bit for bit, or raise the same error: whether
    a file takes numpy's one-call parse or falls back to the line-by-line
    parse, which names the first bad line."""

    @given(n=st.integers(1, 4), rows=st.integers(0, 5), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_dataset_loader(self, n, rows, data, tmp_path_factory):
        header = st.just([f"x{i + 1}" for i in range(n)] + ["y"])
        row = st.tuples(st.lists(_cells(data, "feature"), min_size=n, max_size=n),
                        _cells(data, "label")).map(lambda t: [*t[0], t[1]])
        text = (data.draw(_csv_file(1, header), label="header")
                + data.draw(_csv_file(rows, row), label="rows"))
        path = tmp_path_factory.mktemp("data") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _loaded(load_dataset_csv, path) == _loaded(scalar.load_dataset_csv, path)

    @given(k=st.integers(1, 4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matrix_loader(self, k, data, tmp_path_factory):
        row = st.lists(_cells(data, "entry"), min_size=k, max_size=k)
        text = data.draw(_csv_file(k, row), label="text")
        path = tmp_path_factory.mktemp("metric") / "metric.csv"
        path.write_bytes(text.encode("utf-8"))
        Path(f"{path}.idx").write_text("".join(f"{i}\n" for i in range(k)))
        ds = random_dataset(np.random.default_rng(k), k, 2)
        assert _loaded(load_matrix_metric, path, ds) == _loaded(scalar.load_matrix_metric, path, ds)

    @pytest.mark.parametrize("edge", ["{}0.5", "0.5{}"])
    @pytest.mark.parametrize("other", list("\r\x0b\x0c\x1c\x1d\x1e\x1f\t") + ["\r\n", ""])
    def test_a_break_or_whitespace_beside_a_cell(self, edge, other, tmp_path):
        # splitlines breaks at each of these but \x1f and \t, while numpy's
        # reader sees one cell padded with whitespace
        ds = random_dataset(np.random.default_rng(3), 3, 2)
        path = tmp_path / "metric.csv"
        path.write_text(f"0,{edge.format(other)},0.25\n0.5,0,0.75\n0.25,0.75,0\n")
        Path(f"{path}.idx").write_text("0\n1\n2\n")
        assert _loaded(load_matrix_metric, path, ds) == _loaded(scalar.load_matrix_metric, path, ds)
        path = tmp_path / "data.csv"
        path.write_text(f"x1,x2,y\n0.5,0.25,1\n{edge.format(other)},0.25,-1\n0.5,0,1\n")
        assert _loaded(load_dataset_csv, path) == _loaded(scalar.load_dataset_csv, path)

    @pytest.mark.parametrize("padding, blank", [("\n", 1), ("\n\n", 2), (" \n\t\r\n  ", 2)])
    @pytest.mark.parametrize("kind", ["metric file", "metric index file"])
    def test_blank_lines_before_the_first_row_are_counted(self, kind, padding, blank, tmp_path):
        # each file is stripped at both ends, but a bad line is named by its
        # number in the file, on the fast and the line-by-line parse alike
        ds = random_dataset(np.random.default_rng(3), 3, 2)
        path = tmp_path / "metric.csv"
        matrix, index = "0,0.5,0.25\n0.5,0,0.75\n0.25,0.75,0\n", "0\n1\n2\n"
        if kind == "metric file":
            matrix = padding + matrix.replace("0,0.75", "0,abc")
        else:
            index = padding + index.replace("1", "x")
        path.write_text(matrix)
        Path(f"{path}.idx").write_text(index)
        loaded = _loaded(load_matrix_metric, path, ds)
        assert loaded == _loaded(scalar.load_matrix_metric, path, ds)
        assert loaded[0] is ValidationError
        assert loaded[1].startswith(f"{kind} {path}{'.idx' * (kind != 'metric file')}, "
                                    f"line {blank + 2}: ")

    @given(n=st.integers(1, 4), rows=st.integers(1, 12), block=st.integers(1, 5),
           bad=st.sampled_from([None, "label", "norm", "nan"]), at=st.integers(0, 11),
           seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_the_features_are_moved_a_block_of_rows_at_a_time(self, n, rows, block, bad, at,
                                                              seed, tmp_path_factory):
        # the dataset keeps its features at the front of the parsed table's
        # storage, moved _MOVE_ROWS rows at a time over rows still to be read
        table = np.column_stack((unit_ball_points(np.random.default_rng(seed), rows, n),
                                 np.ones(rows)))
        if bad is not None:
            table[at % rows, {"label": -1, "norm": 0, "nan": 0}[bad]] = {
                "label": 0.5, "norm": 1.5, "nan": np.nan}[bad]
        path = tmp_path_factory.mktemp("data") / "data.csv"
        header = ",".join([f"x{i + 1}" for i in range(n)] + ["y"])
        path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                              for row in table.tolist()))
        with mock.patch.object(serde, "_MOVE_ROWS", block):
            assert _loaded(load_dataset_csv, path) == _loaded(scalar.load_dataset_csv, path)

    def test_a_missing_file_or_a_directory_raises_as_before(self, tmp_path):
        for path in (tmp_path / "missing.csv", tmp_path):
            assert _loaded(load_dataset_csv, path) == _loaded(scalar.load_dataset_csv, path)

    def test_a_plain_file_takes_the_one_call_parse(self, rng, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(random_dataset(rng, 7, 3), path)
        with mock.patch.object(serde, "_float_rows", side_effect=AssertionError):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text", ["x1,y\n0.5,1\r\n", "x1,y\n1_0,1\n", "x1,y\n\n0.5,1\n",
                                      "x1,y\n0.5,1", "\ufeffx1,y\n0.5,1\n"])
    def test_any_other_file_is_parsed_line_by_line(self, text, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(serde, "_float_rows", wraps=serde._float_rows) as rows:
            _loaded(load_dataset_csv, path)
        rows.assert_called_once()


#: floats whose 17-digit form is easy to get wrong: signed zeros, the
#: smallest subnormal, other subnormals, the smallest normal, the largest
#: double below 1 and the largest finite double
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 0.1, 1.7976931348623157e308]


def _formatted(cells) -> str:
    return ",".join(format(x, ".17g") for x in cells)


class TestCsvWriters:
    """Each row is written with one %-format; every float must read as
    format(x, ".17g") writes it."""

    @given(rows=st.lists(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), min_size=3,
                                  max_size=3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matrix_metric_rows_are_format_17g(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("metric") / "metric.csv"
        save_matrix_metric(np.array(rows), [0, 1, 2], path)
        assert path.read_text() == "".join(_formatted(row) + "\n" for row in rows)

    @given(width=st.integers(1, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_dataset_rows_are_format_17g_and_the_label(self, width, data, tmp_path_factory):
        # |cell| <= 0.4 keeps a row of up to 5 in the unit ball; 1 - 2^-53
        # leads a row whose other cells are zeros or subnormals
        small = st.sampled_from([x for x in EDGE_FLOATS if abs(x) < 1e-300])
        cell = small | st.sampled_from([0.1, -0.1]) | st.floats(-0.4, 0.4)
        row = (st.lists(cell, min_size=width, max_size=width)
               | st.tuples(st.sampled_from([1.0 - 2.0**-53, -(1.0 - 2.0**-53)]),
                           st.lists(small, min_size=width - 1, max_size=width - 1)).map(
                   lambda t: [t[0], *t[1]]))
        rows = data.draw(st.lists(row, min_size=1, max_size=5), label="rows")
        labels = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(rows),
                                    max_size=len(rows)), label="labels")
        path = tmp_path_factory.mktemp("data") / "data.csv"
        save_dataset_csv(LabeledDataset(np.array(rows), np.array(labels)), path)
        header = ",".join([f"x{i + 1}" for i in range(width)] + ["y"])
        assert path.read_text() == header + "\n" + "".join(
            f"{_formatted(row)},{label}\n" for row, label in zip(rows, labels))


class TestPredictorJson:
    @pytest.mark.parametrize("make", [
        lambda: ConstantPredictor(0.25),
        lambda: LinearPredictor(np.array([0.5, -0.25, 0.1])),
        lambda: LogisticPredictor(np.array([0.3, 0.4]), 2.5),
        lambda: KernelPredictor(np.array([[0.2, 0.1], [0.0, -0.3]]), np.array([0.7, -0.2])),
    ])
    def test_round_trip(self, make, tmp_path, rng):
        original = make()
        path = tmp_path / "predictor.json"
        save_predictor_json(original, path, training_config={"alpha": 0.1})
        loaded = load_predictor_json(path)
        X = rng.uniform(-0.4, 0.4, size=(10, getattr(original, "dimension", 2) or 2))
        assert np.allclose(original.predict_batch(X), loaded.predict_batch(X), atol=0)


    @pytest.mark.parametrize("support, message", [
        ([[0.1, float("nan")]], "support must be finite"),
        ([[5.0, 5.0, 5.0]], "support norm .* exceeds the unit ball"),
    ])
    def test_kernel_support_outside_the_unit_ball_rejected(self, support, message, tmp_path):
        path = tmp_path / "predictor.json"
        path.write_text(json.dumps({"variant": "kernel", "kernel": "vovk-half",
                                    "support": support, "beta": [1.0]}))
        with pytest.raises(ValidationError, match=message):
            load_predictor_json(path)


class TestMetricSpecs:
    def test_constant_and_euclidean(self):
        assert isinstance(load_metric("constant:0.4"), ConstantMetric)
        assert isinstance(load_metric("euclidean:1.5"), ScaledEuclideanMetric)

    def test_matrix_with_index_file(self, rng, tmp_path):
        ds = random_dataset(rng, 4, 2)
        matrix = np.array([
            [0.0, 0.2, 0.3, 0.4],
            [0.2, 0.0, 0.5, 0.6],
            [0.3, 0.5, 0.0, 0.7],
            [0.4, 0.6, 0.7, 0.0],
        ])
        path = tmp_path / "metric.csv"
        save_matrix_metric(matrix, [0, 1, 2, 3], path)
        metric = load_metric(f"matrix:{path}", ds)
        assert metric.distance(ds.features[0], ds.features[1]) == 0.2
        with pytest.raises(MetricUndefinedError):
            metric.distance(np.array([0.9, 0.05]), ds.features[0])

    def test_hardness_handle_round_trip(self, tmp_path):
        _, handle = sample_hardness_distribution(8, 2, "U", 3)
        path = tmp_path / "handle.json"
        save_hardness_handle(handle, path)
        loaded = load_hardness_handle(path)
        assert np.array_equal(loaded.y, handle.y)
        assert np.array_equal(loaded.seed_bits, handle.seed_bits)
        metric = load_metric(f"hardness:{path}")
        assert isinstance(metric, HardnessMetric)

    def test_unknown_spec(self):
        with pytest.raises(ValidationError):
            load_metric("cosine:1")

    @pytest.mark.parametrize("spec, arg", [
        ("euclidean:abc", "abc"), ("constant:abc", "abc"), ("euclidean:", ""),
        ("constant:0.5x", "0.5x"),
    ])
    def test_malformed_number_names_the_spec(self, spec, arg):
        with pytest.raises(ValidationError) as info:
            load_metric(spec)
        assert str(info.value) == f"metric spec {spec!r}: {arg!r} is not a number"


class TestReports:
    def test_schema_version_and_determinism(self, tmp_path):
        payload = {"command": "x", "results": {"value": 0.5, "arr": np.array([1.0, 2.0])}}
        a = write_report(payload, tmp_path / "a.json", no_timestamp=True)
        b = write_report(payload, tmp_path / "b.json", no_timestamp=True)
        assert a == b
        body = json.loads(a)
        assert body["schema_version"] == 3
        assert "timestamp" not in body
        assert body["results"]["arr"] == [1.0, 2.0]

    def test_timestamp_present_by_default(self, tmp_path):
        body = json.loads(write_report({"command": "x"}, None))
        assert "timestamp" in body

    def test_infinities_stay_valid_json(self):
        text = write_report({"results": {"b": float("inf")}}, None, no_timestamp=True)
        assert json.loads(text)["results"]["b"] == "inf"


RECORDS = [
    TrainingReport(final_objective=0.25, final_constraint_slack=-0.01, iterations=30,
                   converged=True, empirical_mf_loss=0.0, mf_loss_bound=0.5,
                   derived_params={"tau": 0.05}, extras={"B_derived": math.inf}),
    FairnessReport(empirical_mf_loss=0.0, empirical_l1_loss=0.25, population_estimate=None,
                   population_ci=None, group_profile=((0.1, 0.0), (1.0, 0.5)), n_edges=7),
    HardnessReport(n=8, k_pairs=20, modes=("U", "V"), averaged_fair_error_u=0.5,
                   reference_error={"U": 0.5, "V": 0.0}, perfect_fairness_audit={},
                   trained={"linear": {"train_error_u": 0.5}}, accuracy_gap=None,
                   headline_learner="linear"),
    SolverDerivedParams(G=10.0, rho=3.5, gamma_tilde=0.2, tau=0.04, tau_theoretical=-0.6),
]


class TestRecordSerialization:
    """A report record is written field for field, so a new field cannot be dropped."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_json_keys_are_the_field_names(self, record):
        body = strict_json(write_report({"results": record}, no_timestamp=True))
        assert set(body["results"]) == {f.name for f in dataclasses.fields(record)}

    def test_values_follow_the_json_rules(self):
        record = TrainingReport(
            final_objective=np.float64(0.5), final_constraint_slack=-math.inf,
            iterations=np.int64(3), converged=False, empirical_mf_loss=math.nan,
            extras={"pair": (1, 2.5), 4: np.array([math.inf, 1.0]), "inner": RECORDS[-1]})
        body = strict_json(write_report({"results": record}, no_timestamp=True))
        assert body["results"] == {
            "final_objective": 0.5, "final_constraint_slack": "-inf", "iterations": 3,
            "converged": False, "empirical_mf_loss": None, "mf_loss_bound": None,
            "derived_params": {},
            "extras": {"pair": [1, 2.5], "4": ["inf", 1.0],
                       "inner": {"G": 10.0, "rho": 3.5, "gamma_tilde": 0.2, "tau": 0.04,
                                 "tau_theoretical": -0.6}},
        }


@dataclasses.dataclass(frozen=True)
class _Record:
    first: object
    second: object


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16,
                -1e-7, math.inf, -math.inf, math.nan]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS[:-3]))
_SCALARS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.none(), st.text(), st.sampled_from(["é", "ü\u2603", "\ud800", "\x00"]))
_FLOAT_LISTS = st.one_of(st.lists(_FINITE, max_size=6), st.lists(_FLOATS, max_size=6))
_FLOAT_ROWS = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(st.one_of(_FINITE, _FLOATS), min_size=k, max_size=k), max_size=4))
_RAGGED = st.lists(st.lists(_FINITE, max_size=3), max_size=4)
_VALUES = st.recursive(
    st.one_of(_SCALARS, _FLOAT_LISTS, _FLOAT_LISTS.map(np.array), _FLOAT_ROWS, _RAGGED),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), children, max_size=4),
        st.builds(_Record, children, children),
    ),
    max_leaves=24,
)


@given(value=_VALUES)
@settings(max_examples=200, deadline=None)
def test_dump_writes_what_the_json_encoder_writes(value):
    # float lists and equally long float rows take the join and %-format path
    assert _dump(value) == json.dumps(scalar.jsonable(value), indent=2, sort_keys=True) + "\n"


def _old_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_ITEMS = st.one_of(st.integers(), _FLOATS, st.booleans(), st.none(), st.text(max_size=3),
                   _FINITE.map(np.float64), st.lists(_FINITE, max_size=2))


@given(value=st.one_of(st.lists(_ITEMS, max_size=5), st.lists(st.integers() | _FINITE, max_size=5),
                       _ITEMS))
@settings(max_examples=200, deadline=None)
def test_vector_accepts_what_a_check_per_item_accepts(value):
    ok = isinstance(value, list) and all(map(_old_number, value))
    if ok:
        assert np.array_equal(_vector({"w": value}, "w"), np.array(value, dtype=np.float64),
                              equal_nan=True)
    else:
        with pytest.raises(ValidationError, match="^key 'w' must be a list of numbers, got "):
            _vector({"w": value}, "w")


@given(value=st.one_of(st.lists(st.lists(_ITEMS, max_size=3), max_size=4),
                       st.integers(0, 3).flatmap(lambda k: st.lists(
                           st.lists(st.integers() | _FINITE, min_size=k, max_size=k), max_size=4)),
                       st.lists(_ITEMS, max_size=3)))
@settings(max_examples=200, deadline=None)
def test_matrix_accepts_what_a_check_per_item_accepts(value):
    ok = (isinstance(value, list) and all(isinstance(row, list) for row in value)
          and len({len(row) for row in value}) <= 1
          and all(_old_number(x) for row in value for x in row))
    if ok:
        assert np.array_equal(_matrix({"s": value}, "s"), np.array(value, dtype=np.float64),
                              equal_nan=True)
    else:
        with pytest.raises(ValidationError, match="^key 's' must be a list of equally long lists "
                                                  "of numbers, got "):
            _matrix({"s": value}, "s")
