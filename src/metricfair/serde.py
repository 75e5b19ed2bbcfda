"""File formats: dataset CSV, predictor JSON, metric files, report JSON.

Floats are written with 17 significant digits so CSV round trips are exact.
Every JSON file goes through `_dump`: report records (dataclasses) are
written field for field, NaN as null and +-inf as "inf"/"-inf", with sorted
keys, so identical inputs produce byte-identical files (timestamps can be
suppressed for reproducibility checks).
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
from pathlib import Path

import numpy as np

from .core import (
    ConstantMetric,
    ConstantPredictor,
    KernelPredictor,
    LabeledDataset,
    LinearDotKernel,
    LinearPredictor,
    LogisticPredictor,
    MatrixMetric,
    ScaledEuclideanMetric,
    SimilarityMetric,
    ValidationError,
    VovkHalfKernel,
)
from .hardness import HardnessMetric, HardnessMetricHandle

SCHEMA_VERSION = 1

_KERNELS = {"vovk-half": VovkHalfKernel, "linear-dot": LinearDotKernel}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# Dataset CSV: header x1,...,xn,y with y in {-1, 1}
# ---------------------------------------------------------------------------


def save_dataset_csv(dataset: LabeledDataset, path) -> None:
    n = dataset.dimension
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["y"])]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join([_fmt(v) for v in row] + [str(int(label))]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset_csv(path) -> LabeledDataset:
    text = Path(path).read_text().strip()
    if not text:
        raise ValidationError(f"empty dataset file {path}")
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[-1] != "y" or len(header) < 2:
        raise ValidationError(f"dataset header must be x1,...,xn,y; got {lines[0]!r}")
    rows = []
    labels = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValidationError(f"row has {len(parts)} fields, expected {len(header)}")
        rows.append([float(v) for v in parts[:-1]])
        labels.append(int(float(parts[-1])))
    return LabeledDataset(np.array(rows), np.array(labels))


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
        name = getattr(predictor.kernel, "name", None)
        if name not in _KERNELS:
            raise ValidationError(f"kernel {name!r} is not serializable")
        return {
            "variant": "kernel",
            "kernel": name,
            "support": predictor.support.tolist(),
            "beta": predictor.beta.tolist(),
        }
    raise ValidationError(f"cannot serialize predictor {type(predictor).__name__}")


def predictor_from_dict(payload: dict):
    variant = payload.get("variant")
    if variant == "constant":
        return ConstantPredictor(payload["p"])
    if variant == "linear":
        return LinearPredictor(np.array(payload["weights"]))
    if variant == "logistic":
        return LogisticPredictor(np.array(payload["weights"]), payload["lipschitz"])
    if variant == "kernel":
        kernel = _KERNELS[payload["kernel"]]()
        return KernelPredictor(np.array(payload["support"]), np.array(payload["beta"]), kernel)
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


def load_predictor_json(path):
    payload = json.loads(Path(path).read_text())
    return predictor_from_dict(payload)


# ---------------------------------------------------------------------------
# Metric files
# ---------------------------------------------------------------------------


def save_matrix_metric(matrix: np.ndarray, index_map, path) -> None:
    """Matrix CSV at `path`; companion index file at `path + '.idx'` maps
    matrix row order to dataset row order (one integer per line)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = [",".join(_fmt(v) for v in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")
    Path(str(path) + ".idx").write_text("\n".join(str(int(i)) for i in index_map) + "\n")


def load_matrix_metric(path, dataset: LabeledDataset) -> MatrixMetric:
    rows = [
        [float(v) for v in line.split(",")]
        for line in Path(path).read_text().strip().splitlines()
    ]
    idx_path = Path(str(path) + ".idx")
    if not idx_path.exists():
        raise ValidationError(f"missing metric index file {idx_path}")
    index_map = [int(line) for line in idx_path.read_text().split()]
    return MatrixMetric(np.array(rows), dataset.features, index_map)


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


def load_hardness_handle(path) -> HardnessMetricHandle:
    payload = json.loads(Path(path).read_text())
    y = np.array([int(c) for c in payload["y"]], dtype=np.uint8)
    seed_bits = None
    if payload.get("seed_bits") is not None:
        seed_bits = np.array([int(c) for c in payload["seed_bits"]], dtype=np.uint8)
    return HardnessMetricHandle(y, payload["mode"], payload["n"], seed_bits)


def load_metric(spec: str, dataset: LabeledDataset | None = None) -> SimilarityMetric:
    """Parse a metric spec: constant:<c>, euclidean:<scale>, matrix:<path>,
    hardness:<handle-path>."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return ConstantMetric(float(arg))
    if kind == "euclidean":
        return ScaledEuclideanMetric(float(arg))
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


def _jsonable(value):
    # plain floats come first: predictor JSON holds tens of thousands of them
    if isinstance(value, float):  # np.float64 too, a float subclass
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _dump(value) -> str:
    return json.dumps(_jsonable(value), indent=2, sort_keys=True) + "\n"


def write_report(payload: dict, path=None, no_timestamp: bool = False) -> str:
    body = {"schema_version": SCHEMA_VERSION, **payload}
    if not no_timestamp:
        body["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = _dump(body)
    if path is not None:
        Path(path).write_text(text)
    return text
