"""File formats: dataset CSV, predictor JSON, metric files, report JSON.

Floats are written with 17 significant digits so CSV round trips are exact,
_WRITE_ROWS rows at a time. A CSV file is read as its lines by
str.splitlines, each cell by float(): the loaders return that array bit for
bit, or raise a ValidationError that names the first bad line. A plain file
(ASCII, no empty line and no character of _NOT_PLAIN) is parsed by one
np.loadtxt call, which converts each cell as float() does and holds no
Python object per cell, so the load takes about the array; any other file,
or a plain file with a cell numpy rejects (1_0, which float() reads), is
parsed line by line, holding a string per cell.
Every JSON file goes through `_dump`: report records (dataclasses) are
written field for field, NaN as null and +-inf as "inf"/"-inf", with sorted
keys, so identical inputs produce byte-identical files (timestamps can be
suppressed for reproducibility checks).
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import math
import os
import stat
from pathlib import Path

import numpy as np

from .core import (
    ConstantMetric,
    ConstantPredictor,
    KernelPredictor,
    LabeledDataset,
    LinearPredictor,
    LogisticPredictor,
    MatrixMetric,
    RowError,
    ScaledEuclideanMetric,
    SimilarityMetric,
    ValidationError,
    VovkHalfKernel,
)
from .hardness import HardnessMetric, HardnessMetricHandle

SCHEMA_VERSION = 5

# ---------------------------------------------------------------------------
# Dataset CSV: header x1,...,xn,y with y in {-1, 1}
# ---------------------------------------------------------------------------


#: rows the CSV writers format and write at a time
_WRITE_ROWS = 4096
#: rows the dataset loader moves to the front of its parsed table at a time
_MOVE_ROWS = 4096
#: bytes read at a time while a CSV file's lines are checked
_READ_BYTES = 1 << 20
#: the characters other than "\n" at which str.splitlines breaks ASCII text,
#: and \x1f, which numpy's reader strips from a cell as whitespace and
#: float() does not (nor \x1c-\x1e)
_NOT_PLAIN = b"\r\x0b\x0c\x1c\x1d\x1e\x1f"


def save_dataset_csv(dataset: LabeledDataset, path) -> None:
    n = dataset.dimension
    header = ",".join([f"x{i + 1}" for i in range(n)] + ["y"]) + "\n"
    _write_rows(path, header, np.column_stack((dataset.features, dataset.labels)),
                ",".join(["%.17g"] * n + ["%d"]) + "\n")


def _write_rows(path, header: str, table: np.ndarray, row: str) -> None:
    """`header`, then each row of `table` %-formatted by `row`, written
    _WRITE_ROWS rows at a time by one %-format each, so only one chunk of
    the table is ever held as Python floats and text. ("%.17g" % x is
    format(x, ".17g").)"""
    with open(path, "w") as file:
        file.write(header)
        for start in range(0, len(table), _WRITE_ROWS):
            chunk = table[start:start + _WRITE_ROWS]
            file.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def load_dataset_csv(path) -> LabeledDataset:
    """Errors name the file and, for the first bad row (RowError), its line
    number. The dataset checks its rows once, and its features are kept in
    the parsed table's own storage, so a load takes about the table."""
    table = _dataset_table(path)
    labels = table[:, -1].copy()
    features = _leading_columns(table)
    try:
        return LabeledDataset(features, labels)
    except RowError as exc:
        raise ValidationError(f"dataset file {path}, line {exc.row + 2}: {exc.reason}") from None


def _leading_columns(table: np.ndarray) -> np.ndarray:
    """table[:, :-1] as a C-contiguous array in the table's own storage: the
    rows are moved to its front _MOVE_ROWS at a time, and the storage then
    shrinks in place to them. The table is spent."""
    m, width = table.shape
    for start in range(0, m, _MOVE_ROWS):
        stop = min(start + _MOVE_ROWS, m)
        # the destination ends before the rows still to be moved start
        table.reshape(-1)[start * (width - 1):stop * (width - 1)] = table[start:stop, :-1].ravel()
    # the table is the loader's own and no view of it is left (refcheck
    # would also count a debugger's references)
    table.resize(m * (width - 1), refcheck=False)
    return table.reshape(m, width - 1)


def _dataset_table(path) -> np.ndarray:
    """The rows below the dataset file's header x1,...,xn,y as a float
    array: by _float_table when the file is plain, else line by line."""
    plain = _plain_lines(path)
    if plain is not None:
        header = plain[0].split(",")
        if header[-1] == "y" and len(header) >= 2:
            table = _float_table(path, 1, (plain[1] - 1, len(header)))
            if table is not None:
                return table
    lines = Path(path).read_text().rstrip().splitlines()
    if not lines:
        raise ValidationError(f"dataset file {path} is empty")
    header = lines[0].split(",")
    if header[-1] != "y" or len(header) < 2:
        raise ValidationError(
            f"dataset file {path}, line 1: header must be x1,...,xn,y; got {lines[0]!r}")
    if len(lines) == 1:
        raise ValidationError(f"dataset file {path} has no rows")
    return np.array(_float_rows(lines[1:], len(header), f"dataset file {path}", first=2))


def _plain_lines(path) -> tuple[str, int] | None:
    """The first line, without its newline, and the number of newlines of
    the regular file at `path`, if str.splitlines and numpy's reader split
    it into the same lines and float() and numpy read each cell alike: the
    file is ASCII, no line is empty (numpy skips empty lines) and none holds
    a character of _NOT_PLAIN. Else None, also when it cannot be opened.
    The file is read _READ_BYTES at a time."""
    try:
        with open(path, "rb") as file:
            # numpy reads the file again, so it must not be a pipe
            if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                return None
            first = chunk = file.readline()
            count, previous = 0, b"\n"
            while chunk:
                if (not chunk.isascii() or b"\n\n" in previous + chunk[:1] or b"\n\n" in chunk
                        or any(c in chunk for c in _NOT_PLAIN)):
                    return None
                count += chunk.count(b"\n")
                previous, chunk = chunk[-1:], file.read(_READ_BYTES)
    except OSError:
        return None
    return first.removesuffix(b"\n").decode("ascii"), count


def _float_table(path, skip: int, shape: tuple[int, int]) -> np.ndarray | None:
    """The lines of the file at `path` below its first `skip` as a float
    array of `shape`, parsed by one numpy call that converts each cell as
    float() does, with no Python object per cell; None if there is no line
    to parse, numpy rejects a cell or the table has another shape. Only for
    a file that _plain_lines accepts, with shape[0] its newlines below the
    first `skip`: a last line without a newline makes one row more."""
    if shape[0] < 1:  # numpy warns on a file with no rows
        return None
    with open(path, encoding="ascii") as file:
        try:
            table = np.loadtxt(file, delimiter=",", comments=None, quotechar=None, ndmin=2,
                               skiprows=skip)
        except ValueError:
            return None
    return table if table.shape == shape else None


def _float_rows(lines, width: int, what: str, first: int) -> list[list[float]]:
    """Each line as `width` comma-separated floats; an error names `what`
    and the 1-based number of the line, the first of which is `first`."""
    rows = []
    for number, line in enumerate(lines, start=first):
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"row has {len(parts)} fields, expected {width}")
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ValidationError(f"{what}, line {number}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# Predictor JSON
# ---------------------------------------------------------------------------


def predictor_to_dict(predictor) -> dict:
    if isinstance(predictor, ConstantPredictor):
        return {"variant": "constant", "p": predictor.p}
    if isinstance(predictor, LinearPredictor):
        return {"variant": "linear", "weights": predictor.weights.tolist()}
    if isinstance(predictor, LogisticPredictor):
        return {
            "variant": "logistic",
            "weights": predictor.weights.tolist(),
            "lipschitz": predictor.lipschitz,
        }
    if isinstance(predictor, KernelPredictor):
        return {
            "variant": "kernel",
            "kernel": VovkHalfKernel.name,
            "support": predictor.support.tolist(),
            "beta": predictor.beta.tolist(),
        }
    raise ValidationError(f"cannot serialize predictor {type(predictor).__name__}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(payload: dict, key: str, ok, expected: str):
    """payload[key] if ok(it) holds, else a ValidationError naming the key."""
    value = payload[key]
    if not ok(value):
        shown = repr(value)
        shown = shown if len(shown) <= 40 else shown[:37] + "..."
        raise ValidationError(f"key {key!r} must be {expected}, got {shown}")
    return value


def _numbers(values) -> bool:
    """Whether every item is a number: one pass over their types, which for
    JSON input are int and float only."""
    return set(map(type, values)) <= {int, float} or all(map(_is_number, values))


def _vector(payload: dict, key: str) -> np.ndarray:
    value = _checked(payload, key, lambda v: isinstance(v, list) and _numbers(v),
                     "a list of numbers")
    return np.array(value, dtype=np.float64)


def _matrix(payload: dict, key: str) -> np.ndarray:
    def ok(v):
        return (isinstance(v, list)
                and (set(map(type, v)) <= {list} or all(isinstance(row, list) for row in v))
                and len(set(map(len, v))) <= 1
                and _numbers(tuple(itertools.chain.from_iterable(v))))
    return np.array(_checked(payload, key, ok, "a list of equally long lists of numbers"),
                    dtype=np.float64)


def _string(payload: dict, key: str) -> str:
    return _checked(payload, key, lambda v: isinstance(v, str), "a string")


def _bits(payload: dict, key: str) -> np.ndarray:
    text = _checked(payload, key, lambda v: isinstance(v, str) and set(v) <= {"0", "1"},
                    "a string of 0s and 1s")
    return np.array([int(c) for c in text], dtype=np.uint8)


def predictor_from_dict(payload: dict):
    variant = payload.get("variant")
    if variant == "constant":
        return ConstantPredictor(_checked(payload, "p", _is_number, "a number"))
    if variant == "linear":
        return LinearPredictor(_vector(payload, "weights"))
    if variant == "logistic":
        return LogisticPredictor(_vector(payload, "weights"),
                                 _checked(payload, "lipschitz", _is_number, "a number"))
    if variant == "kernel":
        name = _string(payload, "kernel")
        if name != VovkHalfKernel.name:
            raise ValidationError(f"unknown kernel {name!r} under key 'kernel'")
        return KernelPredictor(_matrix(payload, "support"), _vector(payload, "beta"))
    raise ValidationError(f"unknown predictor variant {variant!r}")


def save_predictor_json(predictor, path, training_config: dict | None = None,
                        report=None) -> None:
    payload = predictor_to_dict(predictor)
    payload["schema_version"] = SCHEMA_VERSION
    if training_config is not None:
        payload["training_config"] = training_config
    if report is not None:
        payload["report"] = report
    Path(path).write_text(_dump(payload))


def _load_json_object(path, what: str, build):
    """build(payload) on the JSON object in file `path`. Invalid JSON, a
    payload that is not an object, a missing key and an invalid value raise
    a ValidationError that names the file."""
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValidationError("expected a JSON object")
        return build(payload)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{what} {path}: missing key {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{what} {path}: {exc}") from None


def load_predictor_json(path):
    return _load_json_object(path, "predictor file", predictor_from_dict)


# ---------------------------------------------------------------------------
# Metric files
# ---------------------------------------------------------------------------


def save_matrix_metric(matrix: np.ndarray, index_map, path) -> None:
    """Matrix CSV at `path`; companion index file at `path + '.idx'` maps
    matrix row order to dataset row order (one integer per line)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    _write_rows(path, "", matrix, ",".join(["%.17g"] * matrix.shape[1]) + "\n")
    Path(str(path) + ".idx").write_text("\n".join(str(int(i)) for i in index_map) + "\n")


def _stripped_lines(path) -> tuple[list[str], int]:
    """The lines of the file stripped at both ends, and the 1-based number in
    the file of the first of them."""
    text = Path(path).read_text()
    leading = text[:len(text) - len(text.lstrip())]
    return text.strip().splitlines(), len((leading + "x").splitlines())


def load_matrix_metric(path, dataset: LabeledDataset) -> MatrixMetric:
    """Errors name the file and, for a malformed line, its 1-based number."""
    plain = _plain_lines(path)
    matrix = None if plain is None else _float_table(path, 0, (plain[1], plain[1]))
    if matrix is None:
        lines, first = _stripped_lines(path)
        matrix = np.array(_float_rows(lines, len(lines), f"metric file {path}", first))
    idx_path = Path(str(path) + ".idx")
    if not idx_path.exists():
        raise ValidationError(f"missing metric index file {idx_path}")
    index_map = []
    lines, first = _stripped_lines(idx_path)
    for number, line in enumerate(lines, start=first):
        try:
            index_map.append(int(line))
        except ValueError as exc:
            raise ValidationError(f"metric index file {idx_path}, line {number}: {exc}") from None
    try:
        return MatrixMetric(matrix, dataset.features, index_map)
    except ValidationError as exc:
        raise ValidationError(f"metric file {path}: {exc}") from None


def save_hardness_handle(handle: HardnessMetricHandle, path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "hardness-metric-handle",
        "mode": handle.mode,
        "n": handle.n,
        "y": "".join(str(int(b)) for b in handle.y),
    }
    if handle.seed_bits is not None:
        payload["seed_bits"] = "".join(str(int(b)) for b in handle.seed_bits)
    Path(path).write_text(_dump(payload))


def _handle_from_dict(payload: dict) -> HardnessMetricHandle:
    seed_bits = None if payload.get("seed_bits") is None else _bits(payload, "seed_bits")
    n = _checked(payload, "n", lambda v: isinstance(v, int) and not isinstance(v, bool),
                 "an integer")
    return HardnessMetricHandle(_bits(payload, "y"), _string(payload, "mode"), n, seed_bits)


def load_hardness_handle(path) -> HardnessMetricHandle:
    return _load_json_object(path, "hardness handle file", _handle_from_dict)


def load_metric(spec: str, dataset: LabeledDataset | None = None) -> SimilarityMetric:
    """Parse a metric spec: constant:<c>, euclidean:<scale>, matrix:<path>,
    hardness:<handle-path>."""
    kind, _, arg = spec.partition(":")
    if kind in ("constant", "euclidean"):
        try:
            value = float(arg)
        except ValueError:
            raise ValidationError(f"metric spec {spec!r}: {arg!r} is not a number") from None
        return ConstantMetric(value) if kind == "constant" else ScaledEuclideanMetric(value)
    if kind == "matrix":
        if dataset is None:
            raise ValidationError("matrix metric needs a dataset to bind to")
        return load_matrix_metric(arg, dataset)
    if kind == "hardness":
        return HardnessMetric(load_hardness_handle(arg))
    raise ValidationError(f"unknown metric spec {spec!r}")


# ---------------------------------------------------------------------------
# Report JSON
# ---------------------------------------------------------------------------


def _dump(value) -> str:
    """`value` as json.dumps writes it with indent=2 and sorted keys, after
    these rules: a dict's keys become strings, a tuple or a numpy array a
    list, a dataclass record a dict of its fields, a numpy number a Python
    one, NaN null and +-inf "inf"/"-inf". A list of finite plain floats, or
    of equally long lists of them, is written by one join or %-format of
    float.__repr__, as json's encoder writes each float; every other value
    by json's encoders."""
    return _encode(value, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """`value` as _dump writes it, where `newline` starts each of its lines:
    a newline and the indent of the level it is at."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = {str(k): v for k, v in value.items()}
        return ("{" + inner + ("," + inner).join(
            [json.dumps(k) + ": " + _encode(items[k], inner) for k in sorted(items)])
            + newline + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        text = _float_items(value, inner) or ("," + inner).join([_encode(v, inner) for v in value])
        return "[" + inner + text + newline + "]"
    if isinstance(value, np.ndarray):
        return _encode(value.tolist(), newline)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode({f.name: getattr(value, f.name) for f in dataclasses.fields(value)},
                       newline)
    if isinstance(value, (np.floating, np.integer)) and not isinstance(value, float):
        value = value.item()
    if isinstance(value, float):  # np.float64 too, a float subclass
        if math.isnan(value):
            value = None
        elif math.isinf(value):
            value = "inf" if value > 0 else "-inf"
    return json.dumps(value)


def _float_items(items, newline: str) -> str | None:
    """The items of a non-empty list, one a line at `newline`, when they are
    plain floats or equally long non-empty lists of plain floats, all
    finite; else None."""
    kinds = set(map(type, items))
    if kinds == {float}:
        text = ("," + newline).join(map(float.__repr__, items))
    elif kinds == {list} and len(set(map(len, items))) == 1 and items[0]:
        floats = tuple(itertools.chain.from_iterable(items))
        if set(map(type, floats)) != {float}:
            return None
        inner = newline + "  "
        row = "[" + inner + ("," + inner).join(["%r"] * len(items[0])) + newline + "]"
        text = ("," + newline).join([row] * len(items)) % floats
    else:
        return None
    # json writes NaN and +-inf, which float.__repr__ spells with an "n", otherwise
    return None if "n" in text else text


def write_report(payload: dict, path=None, no_timestamp: bool = False) -> str:
    body = {"schema_version": SCHEMA_VERSION, **payload}
    if not no_timestamp:
        body["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = _dump(body)
    if path is not None:
        Path(path).write_text(text)
    return text
