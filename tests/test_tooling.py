"""The test run itself: the warning filters of pyproject.toml turn warnings
into errors, yet a failing hypothesis test must not abort the session, and
its strict keys make a misspelled configuration key or marker fail the run.
README's Library example runs as written and prints what its comments say,
its sweep example prints the CSV block shown under it, and every `telecost`
command it shows exits 0 and prints what the text around it says."""

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


def test_every_readme_command_runs_as_written_and_prints_what_the_text_says(capsys):
    fenced = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for lang, body in fenced if not lang
             for line in body.splitlines() if line.startswith("telecost ")]
    outputs = {}
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        outputs[line] = capsys.readouterr().out
    assert len(outputs) == 4
    # a 13-row table and the overall line
    header, *rows, overall = outputs["telecost verify --runs 20 --seed 0"].splitlines()
    assert header.split() == ["check", "max_abs_err", "status"]
    assert len(rows) == 13 and all(row.endswith("PASS") for row in rows)
    assert overall == "overall: PASS (13/13)"
    noisy = [out for line, out in outputs.items() if "--noise-f" in line and "--format json" in line]
    assert [json.loads(out)["command"] for out in noisy] == ["compare"]
    # the inline sweep, whose inputs all meet the lower target: "gives 0, 0 and 0"
    [inline] = re.findall(r"`(sweep\s+--distill-target 0\.4[^`]*)` gives 0,\s+0 and 0", README.read_text())
    assert main(shlex.split(inline)) == 0
    [header, *rows] = capsys.readouterr().out.splitlines()
    column = header.split(",").index("rounds_to_target")
    assert [row.split(",")[column] for row in rows] == ["0", "0", "0"]
