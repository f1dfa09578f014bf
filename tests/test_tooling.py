"""The test run itself: the warning filters of pyproject.toml turn warnings
into errors, yet a failing hypothesis test must not abort the session."""

import json
import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_leaves_the_others_running(pytester):
    # when a @given test fails, hypothesis imports libcst, whose import warns;
    # under a bare "error" filter that warning stops the session
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(failed=1, passed=1)
