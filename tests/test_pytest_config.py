"""The repository's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Warnings are errors under pytest. A failing @given test makes
    # hypothesis's pytest plugin import third-party code whose import-time
    # warnings must not turn into an INTERNALERROR that stops the run.
    (tmp_path / "test_sample.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(n):
                assert n < 0

            def test_passes():
                assert True
            """
        ),
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output
