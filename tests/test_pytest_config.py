"""The repository's pytest configuration reports a failing generated example
as a test failure with its falsifying example, not as an internal error."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=50)
@given(st.integers())
def test_below_ten(n):
    assert n < 10
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
