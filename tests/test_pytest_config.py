"""The repository's pytest settings: a falsified property reports its example."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5
'''


def test_a_falsified_property_fails_with_its_example(tmp_path):
    # under filterwarnings = error, a warning raised while hypothesis reports
    # the failure would end the session with an internal error (exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
