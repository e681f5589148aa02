import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_always_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    # the warning filters turn warnings into errors; hypothesis's failure
    # report must still get through, and the tests after it must still run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
