"""Shared test factories: random datasets, predictors, and metrics."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import scalar_reference as scalar
from metricfair import (
    ConstantMetric,
    ConstantPredictor,
    KernelPredictor,
    LabeledDataset,
    LinearPredictor,
    LogisticPredictor,
    Predictor,
    ScaledEuclideanMetric,
    SignReferencePredictor,
)
from metricfair.core import unit_ball_points

# Property tests draw the same examples on every run and keep no example
# database, so a run neither depends on nor writes a .hypothesis/ directory.
settings.register_profile("metricfair", derandomize=True, database=None)
settings.load_profile("metricfair")


_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """While collecting, Hypothesis caches the constants it parses from source
    files even without an example database; keep that cache in a temporary
    directory removed at the end of the run instead of .hypothesis/."""
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


def random_dataset(rng, m, n):
    X = unit_ball_points(rng, m, n)
    labels = rng.choice([-1, 1], size=m)
    return LabeledDataset(X, labels)


def random_unit_vector(rng, n):
    w = rng.standard_normal(n)
    return w / max(float(np.linalg.norm(w)), 1e-300)


def random_predictor(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return ConstantPredictor(float(rng.random()))
    w = random_unit_vector(rng, n) * float(rng.random())
    if kind == 1:
        return LinearPredictor(w)
    return LogisticPredictor(w, float(rng.uniform(0.5, 4.0)))


#: predictor kinds of `predictor_with_formula`
PREDICTOR_KINDS = ("constant", "linear", "logistic", "kernel-vovk", "sign")


def predictor_with_formula(kind, rng, n):
    """A random predictor of `kind` on dimension n, its one-point formula from
    scalar_reference, and whether batch predictions must equal that formula
    bit for bit (no matrix product is involved)."""
    if kind == "constant":
        h = ConstantPredictor(float(rng.random()))
        return h, lambda x: h.p, True
    if kind == "sign":
        return SignReferencePredictor(n), scalar.sign_predict, True
    w = random_unit_vector(rng, n) * float(rng.random())
    if kind == "linear":
        h = LinearPredictor(w)
        return h, lambda x: scalar.linear_predict(h, x), False
    if kind == "logistic":
        h = LogisticPredictor(w, float(rng.uniform(0.5, 4.0)))
        return h, lambda x: scalar.logistic_predict(h, x), False
    size = int(rng.integers(1, 8))
    h = KernelPredictor(unit_ball_points(rng, size, n), rng.standard_normal(size))
    return h, lambda x: scalar.kernel_predict(h, x), False


def strict_json(text: str):
    """json.loads that refuses the non-standard NaN/Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


#: grams that are not square matrices with at least one row, and their ids
NOT_SQUARE = [np.zeros((0, 0)), np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2)), np.float64(1.0)]
NOT_SQUARE_IDS = ["empty", "2x3", "1-d", "3-d", "0-d"]


def random_metric(rng):
    if rng.random() < 0.5:
        return ConstantMetric(float(rng.uniform(0.0, 0.6)))
    return ScaledEuclideanMetric(float(rng.uniform(0.2, 1.5)))


def _row_key(row) -> bytes:
    return np.ascontiguousarray(np.asarray(row, dtype=np.float64)).tobytes()


class TablePredictor(Predictor):
    """Maps known feature rows to fixed prediction values (test stub)."""

    def __init__(self, features, values):
        self._table = {_row_key(row): float(v) for row, v in zip(features, values)}

    def predict_batch(self, xs):
        return np.array([self._table[_row_key(x)] for x in np.atleast_2d(xs)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
