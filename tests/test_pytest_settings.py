"""The pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """Reporting a falsifying example must not abort the run: with warnings
    as errors, a deprecation warning raised while hypothesis reports would
    end the whole session in INTERNALERROR and skip every later test."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output
