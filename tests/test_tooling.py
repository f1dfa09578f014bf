"""The test run itself: the warning filters of pyproject.toml turn warnings
into errors, yet a failing hypothesis test must not abort the session, and
its strict keys make a misspelled configuration key or marker fail the run.
README's Library example runs as written and prints what its comments say,
and its sweep example prints the CSV block shown under it."""

import json
import re
import shlex
from pathlib import Path

import pytest

from telecost import ProtocolKind, Purpose, teleport_fidelity_noisy, werner_state
from telecost.cli import main

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def ini_options() -> dict:
    """pyproject.toml's pytest ini options; tomllib is 3.11+, so on 3.10
    only the tests that read them skip."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]


def test_a_failing_hypothesis_test_leaves_the_others_running(pytester):
    # when a @given test fails, hypothesis imports libcst, whose import warns;
    # under a bare "error" filter that warning stops the session
    filters = json.dumps(ini_options()["filterwarnings"])
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
    options = ini_options()
    strict = "".join(f"{key} = {json.dumps(options[key])}\n"
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


def test_the_readme_library_example_holds_what_its_comments_state(capsys):
    # README's one python block, as written; an API change must not leave it wrong
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    trace, psi, report = names["trace"], names["psi"], names["report"]
    assert abs(trace.fidelity_achieved - 1.0) <= 1e-12 and trace.ledger.total() == 1
    for kind in ProtocolKind:  # (2F + 1)/3 either way
        assert abs(teleport_fidelity_noisy(kind, psi, werner_state(0.85)) - 0.9) <= 1e-12
    assert report.rounds == 5 <= report.attempts and report.target_met
    assert report.ledger.total(Purpose.LOCC) == 2 * report.attempts
    assert report.ledger.total(Purpose.TELEPORT) == 1
    assert len(capsys.readouterr().out.splitlines()) == 4  # one line per SQTP branch


def test_the_readme_sweep_example_prints_the_csv_block_under_it(capsys):
    [(command, block)] = re.findall(r"```\n(telecost sweep --f-min 0\.55 [^\n]*)\n```\n\n```\n(.*?)```",
                                    README.read_text(), re.S)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == block
