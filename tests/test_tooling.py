"""The test run itself: the warning filters of pyproject.toml turn warnings
into errors, yet a failing hypothesis test must not abort the session, and
its strict keys make a misspelled configuration key or marker fail the run."""

import json
import tomllib
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
INI_OPTIONS = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]


def test_a_failing_hypothesis_test_leaves_the_others_running(pytester):
    # when a @given test fails, hypothesis imports libcst, whose import warns;
    # under a bare "error" filter that warning stops the session
    filters = json.dumps(INI_OPTIONS["filterwarnings"])
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = {filters}\n")
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(failed=1, passed=1)


@pytest.mark.parametrize("ini_line, decorator, exit_code, message", [
    ('filterwarning = ["error"]\n', "", pytest.ExitCode.USAGE_ERROR,
     "*Unknown config option: filterwarning*"),
    ("", "@pytest.mark.nosuchmarker\n", pytest.ExitCode.INTERRUPTED,
     "*'nosuchmarker' not found in `markers`*"),
], ids=["misspelled-key", "unregistered-marker"])
def test_a_misspelled_configuration_key_or_marker_fails_the_run(pytester, ini_line, decorator,
                                                                 exit_code, message):
    # without strict_config an unknown key only warns, so a misspelled
    # filterwarnings would silently let warnings pass again
    strict = "".join(f"{key} = {json.dumps(INI_OPTIONS[key])}\n"
                     for key in ("strict_config", "strict_markers"))
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\n{strict}{ini_line}")
    pytester.makepyfile(f"""
import warnings

import pytest

{decorator}def test_warns():
    warnings.warn("a warning the filter should have made an error")
""")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == exit_code
    (result.stdout if decorator else result.stderr).fnmatch_lines([message])
