"""Command-line behavior: exit codes, output formats, determinism."""

import argparse
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from telecost.cli import (GOLDEN_ATOL, MAX_ROUNDS, MAX_SWEEP_POINTS, RunConfig, _compare_data,
                          _compare_json, build_parser, cmd_sweep, main)
from telecost.cost import LOCC_ROUND_BITS
from telecost.kinds import ProtocolKind
from telecost.noise import run_noisy_stack, run_noisy_teleport
from telecost.protocol import BATCH_CHUNK, MAX_RUNS, UnknownQubit, run_batch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

EXPANSION_NAMES = {
    "epr_pair", "sqtp_initial", "sqtp_after_cnot", "sqtp_after_h", "sqtp_branch_form",
    "kak_initial", "kak_after_xor1", "kak_after_xor2", "kak_after_h",
    "kak_branch_form", "kak_two_class_form",
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_text_passes(capsys):
    code, out, err = run_cli(["verify", "--runs", "5"], capsys)
    assert code == 0
    assert err == ""
    assert out.rstrip().endswith("overall: PASS (13/13)")
    for name in EXPANSION_NAMES:
        assert name in out


def test_verify_json_payload(tmp_path, capsys):
    path = tmp_path / "verify.json"
    code, out, err = run_cli(
        ["verify", "--runs", "5", "--format", "json", "--out", str(path)], capsys
    )
    assert code == 0 and out == "" and err == ""
    payload = json.loads(path.read_text())
    assert payload["command"] == "verify"
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 13
    names = {c["name"] for c in payload["checks"]}
    assert EXPANSION_NAMES < names
    assert {"sqtp_branch_recovery", "kak_branch_recovery"} < names
    assert all(c["max_abs_err"] <= GOLDEN_ATOL for c in payload["checks"])


def test_verify_byte_identical_across_invocations(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(
            ["verify", "--runs", "8", "--seed", "42", "--format", "json", "--out", str(p)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_detects_corrupted_golden(tmp_path, capsys):
    table = json.loads(
        resources.files("telecost").joinpath("data/expansions.json").read_text()
    )
    table["epr_pair"]["terms"][0]["coeff"] = "-1/sqrt2"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(table))
    code, out, err = run_cli(["verify", "--runs", "3", "--golden", str(bad)], capsys)
    assert code == 1
    assert "overall: FAIL" in out
    assert "verify failed: first mismatch in epr_pair" in err


def test_verify_parses_the_shipped_golden_file_once_per_process(monkeypatch, capsys):
    # the shipped table cannot change within a process, so two verify calls
    # after a cleared cache parse it once, and print what an unpatched run does
    from telecost import expansions

    argv = ["verify", "--runs", "3", "--seed", "8", "--format", "json"]
    full = run_cli(argv, capsys)
    expansions._shipped.cache_clear()
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    assert run_cli(argv, capsys) == full
    assert run_cli(argv, capsys) == full
    assert full[0] == 0 and len(parsed) == 1


def test_verify_rereads_a_golden_file_on_every_call(tmp_path, capsys):
    shipped = resources.files("telecost").joinpath("data/expansions.json").read_text()
    golden = tmp_path / "golden.json"
    golden.write_text(shipped)
    argv = ["verify", "--runs", "3", "--seed", "8"]
    plain = run_cli(argv, capsys)
    assert plain[0] == 0 and run_cli([*argv, "--golden", str(golden)], capsys) == plain
    table = json.loads(shipped)
    table["sqtp_after_h"]["terms"][0]["coeff"] = "-1/2"
    golden.write_text(json.dumps(table))
    code, out, err = run_cli([*argv, "--golden", str(golden)], capsys)
    assert code == 1 and "overall: FAIL" in out
    assert err == "verify failed: first mismatch in sqtp_after_h\n"
    assert run_cli(argv, capsys) == plain


def test_load_expansions_returns_a_new_table_on_every_call():
    from telecost.expansions import ALL_EXPANSIONS, load_expansions

    first = load_expansions()
    first.clear()
    second = load_expansions()
    assert second is not first and list(second) == list(ALL_EXPANSIONS)
    second["epr_pair"] = second["sqtp_initial"]
    third = load_expansions()
    assert third is not second and third["epr_pair"].name == "epr_pair"
    assert list(third) == list(ALL_EXPANSIONS)


def test_verify_missing_golden_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no_such_table.json"
    code, out, err = run_cli(["verify", "--runs", "1", "--golden", str(missing)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(missing) in err


def test_verify_golden_entry_without_terms_exits_2(tmp_path, capsys):
    table = json.loads(
        resources.files("telecost").joinpath("data/expansions.json").read_text()
    )
    del table["kak_after_h"]["terms"]
    bad = tmp_path / "no_terms.json"
    bad.write_text(json.dumps(table))
    code, out, err = run_cli(["verify", "--runs", "1", "--golden", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "kak_after_h" in err and "terms" in err


@pytest.mark.parametrize("content, reason", [
    (b'{"epr_pair": \xff}', "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    (b'{"epr_pair": ', "Expecting value: line 1 column 14 (char 13)"),
], ids=["not_utf8", "truncated"])
def test_verify_golden_that_does_not_parse_names_the_file(tmp_path, capsys, content, reason):
    bad = tmp_path / "unparsable.json"
    bad.write_bytes(content)
    code, out, err = run_cli(["verify", "--runs", "1", "--golden", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: cannot read golden file {bad}: {reason}\n"


@pytest.mark.parametrize("reshape, message", [
    (lambda table: list(table.values()), "golden table must be a JSON object, got list"),
    (lambda table: {**table, "kak_after_h": [1, 2]},
     "kak_after_h: entry must be a JSON object, got list"),
    # the 2-qubit EPR entry under a 3-qubit checkpoint's name
    (lambda table: {**table, "kak_after_h": table["epr_pair"]},
     "kak_after_h: n_qubits must be 3, got 2"),
    # rejected before any 2**64-amplitude vector is asked for
    (lambda table: {**table, "kak_after_h": {
        "n_qubits": 64, "terms": [{"basis": "0" * 64, "coeff": "1", "var": "alpha"}]}},
     "kak_after_h: n_qubits must be 3, got 64"),
    (lambda table: {**table, "kak_after_h": {"n_qubits": 3, "terms": 5}},
     "kak_after_h: terms must be a list, got 5"),
    (lambda table: {**table, "kak_after_h": {"n_qubits": 3, "terms": "abc"}},
     "kak_after_h: terms must be a list, got 'abc'"),
    (lambda table: {**table, "kak_after_h": {"n_qubits": 3, "terms": [1]}},
     "kak_after_h: term 1 must be an object of strings"),
    (lambda table: {**table, "kak_after_h": {"n_qubits": 3, "terms": [
        {"basis": "000", "coeff": ["1"], "var": "alpha"}]}},
     "kak_after_h: term {'basis': '000', 'coeff': ['1'], 'var': 'alpha'}"
     " must be an object of strings"),
    (lambda table: {**table, "kak_after_h": {"n_qubits": 3, "terms": [
        {"basis": 0, "coeff": "1", "var": "alpha"}]}},
     "kak_after_h: term {'basis': 0, 'coeff': '1', 'var': 'alpha'} must be an object of strings"),
], ids=["top_level_list", "list_entry", "two_qubit_checkpoint", "oversized_register",
        "number_terms", "string_terms", "number_term", "list_coeff", "number_basis"])
def test_verify_golden_of_the_wrong_shape_exits_2(tmp_path, capsys, reshape, message):
    table = json.loads(
        resources.files("telecost").joinpath("data/expansions.json").read_text()
    )
    bad = tmp_path / "bad_shape.json"
    bad.write_text(json.dumps(reshape(table)))
    code, out, err = run_cli(["verify", "--runs", "1", "--golden", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_rejects_csv_format(capsys):
    # verify writes only json and text; csv used to print the text table
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--runs", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--format" in captured.err


def test_compare_ideal_summary(tmp_path, capsys):
    path = tmp_path / "compare.json"
    code, _, _ = run_cli(
        ["compare", "--runs", "10", "--seed", "3", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["per_run"]) == 20
    for digest in payload["per_run"]:
        assert digest["fidelity"] == 1.0
        assert len(digest["outcome_bits"]) == 2
        assert digest["channel_f"] is None
    s = payload["summary"]
    assert s["sqtp"] == {"mean_fidelity": 1.0, "min_fidelity": 1.0,
                         "teleport_bits": 2, "locc_bits": 0.0, "total_bits": 2.0}
    assert s["kak"] == {"mean_fidelity": 1.0, "min_fidelity": 1.0,
                        "teleport_bits": 1, "locc_bits": 0.0, "total_bits": 1.0}


def test_compare_perfect_channel_matches_ideal(tmp_path, capsys):
    # a Werner channel at f=1 is the clean resource state
    path = tmp_path / "noisy.json"
    code, _, _ = run_cli(
        ["compare", "--runs", "6", "--noise-f", "1.0", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(path.read_text())
    for digest in payload["per_run"]:
        assert digest["fidelity"] == 1.0
        assert digest["channel_f"] == 1.0
        assert digest["outcome_bits"] is None
    assert payload["summary"]["sqtp"]["total_bits"] == 2.0
    assert payload["summary"]["kak"]["total_bits"] == 1.0


def test_compare_noisy_with_distillation(tmp_path, capsys):
    path = tmp_path / "distilled.json"
    code, _, _ = run_cli(
        ["compare", "--runs", "12", "--seed", "1", "--noise-f", "0.75",
         "--distill-target", "0.9", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(path.read_text())
    s = payload["summary"]
    # both families teleport through the same distilled channel quality
    assert s["sqtp"]["mean_fidelity"] == s["kak"]["mean_fidelity"]
    assert s["sqtp"]["mean_fidelity"] >= (2 * 0.9 + 1) / 3 - 1e-9
    for name, t_bits in (("sqtp", 2), ("kak", 1)):
        assert s[name]["teleport_bits"] == t_bits
        assert s[name]["locc_bits"] > 0
        assert s[name]["total_bits"] == t_bits + s[name]["locc_bits"]


def test_compare_single_protocol_and_csv(capsys):
    code, out, err = run_cli(
        ["compare", "--runs", "4", "--protocol", "kak", "--format", "csv"], capsys
    )
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["protocol"] == "kak"
    assert rows[0]["teleport_bits"] == "1"


def test_compare_text_table(capsys):
    code, out, err = run_cli(["compare", "--runs", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + one row per protocol
    assert "protocol" in lines[0] and "total_bits" in lines[0]


def test_compare_json_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run_cli(
            ["compare", "--runs", "10", "--seed", "9", "--noise-f", "0.75",
             "--distill-target", "0.9", "--format", "json", "--out", str(p)],
            capsys,
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_default_grid(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, err = run_cli(["sweep", "--out", str(path)], capsys)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert [r["F_in"] for r in rows] == ["0.55", "0.65", "0.75", "0.85", "0.95"]
    assert [int(r["rounds_to_target"]) for r in rows] == [16, 10, 7, 4, 0]
    for r in rows:
        locc = int(r["locc_bits"])
        assert locc == 2 * int(r["rounds_to_target"])
        assert int(r["total_bits_sqtp"]) == 2 + locc
        assert int(r["total_bits_kak"]) == 1 + locc


def test_sweep_default_target_is_095(capsys):
    argv = ["sweep", "--f-min", "0.5", "--f-max", "0.9", "--f-step", "0.1"]
    code, default_out, _ = run_cli(argv, capsys)
    assert code == 0
    code, explicit_out, _ = run_cli([*argv, "--distill-target", "0.95"], capsys)
    assert code == 0
    assert default_out == explicit_out


def test_sweep_single_perfect_point(capsys):
    code, out, _ = run_cli(["sweep", "--f-min", "1.0", "--f-max", "1.0"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["F_out"]) == 1.0
    assert rows[0]["rounds_to_target"] == "0"


def test_sweep_empty_grid_rejected(capsys):
    code, _, err = run_cli(["sweep", "--f-min", "0.9", "--f-max", "0.8"], capsys)
    assert code == 2
    assert "empty grid" in err


def test_sweep_bad_step_rejected(capsys):
    code, _, err = run_cli(["sweep", "--f-step", "0"], capsys)
    assert code == 2
    assert "--f-step" in err


def test_sweep_grid_outside_unit_interval_rejected(capsys):
    code, _, err = run_cli(["sweep", "--f-min", "-0.2", "--f-max", "0.4"], capsys)
    assert code == 2
    assert "inside [0, 1]" in err


def test_a_grid_point_that_rounds_to_negative_zero_prints_as_zero(capsys):
    # -1e-13 rounds to -0.0 at 12 digits, which passes the grid's >= 0 check
    code, out, err = run_cli(["sweep", "--f-min=-1e-13", "--f-max", "0.1", "--f-step", "0.1"], capsys)
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == ["F_in", "0.0", "0.1"]


def test_sweep_oversized_grid_rejected(capsys):
    # 4e8 points: the cap must fire before any of them is built
    code, out, err = run_cli(["sweep", "--f-step", "1e-9"], capsys)
    assert code == 2 and out == ""
    assert "--f-step" in err and str(MAX_SWEEP_POINTS) in err


@pytest.mark.parametrize("flag,value", [
    ("--f-step", "inf"),  # used to build the grid [nan] and fail inside distill_step_map
    ("--f-step", "nan"),  # these three used to report an oversized grid
    ("--f-min", "nan"),
    ("--f-max", "inf"),
])
def test_sweep_non_finite_flag_rejected_naming_it(flag, value, capsys):
    code, out, err = run_cli(["sweep", flag, value], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{flag} must be finite" in err


def _accumulated_grid(f_min, f_max, f_step):
    """The sweep grid built by adding the step in a float loop."""
    grid, f = [], f_min
    while f <= f_max + 1e-12:
        grid.append(round(f, 12))
        f += f_step
    return grid


@pytest.mark.parametrize(
    "f_min,f_max,f_step",
    [(0.55, 0.95, 0.1), (0.51, 0.99, 0.01), (0.5037, 0.9837, 0.02), (0.26, 1.0, 0.001)],
)
def test_sweep_grid_matches_accumulated_loop(f_min, f_max, f_step, capsys):
    argv = ["sweep", "--f-min", str(f_min), "--f-max", str(f_max), "--f-step", str(f_step)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    got = [float(r["F_in"]) for r in csv.DictReader(io.StringIO(out))]
    assert got == _accumulated_grid(f_min, f_max, f_step)


def test_compare_distillation_stops_when_the_iterate_stalls(capsys):
    # F = 1 is out of reach in floats; every one of the 1024 levels used to be
    # attempted, billing 2050 LOCC bits
    code, out, _ = run_cli(
        ["compare", "--runs", "1", "--noise-f", "0.75", "--distill-target", "1.0",
         "--max-rounds", "1024", "--protocol", "kak", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["per_run"][0]["locc_bits"] == 182
    # the same run through the API: the printed channel_f 1.0 is a rounding
    [(_, streams)] = run_batch(1, 0, 1)
    [stack] = run_noisy_stack([ProtocolKind.KAK], 1, 0.75, streams.random,
                              distill_target=1.0, max_rounds=1024)
    assert stack.f_final < 1.0 and stack.target_met is False
    assert LOCC_ROUND_BITS * stack.attempts[0] == 182


def test_noisy_chunk_builds_one_channel_per_distinct_final_fidelity(monkeypatch, capsys):
    # a Werner channel depends on F alone and every run of a chunk, of either
    # kind, ends on one F: compare needs no channel at all, as its fidelity
    # is (2F+1)/3, and the runs of one that score their input through the
    # channel, run_noisy_teleport's, validate one per distinct F (with its
    # eigvalsh), which werner_state keeps, not one per run, kind or chunk
    from telecost import noise

    builds = []
    original = noise.DensityMatrix.__post_init__

    def counting(self):
        builds.append(self)
        original(self)

    monkeypatch.setattr(noise.DensityMatrix, "__post_init__", counting)
    noise.werner_state.cache_clear()
    for argv in (["--noise-f", "0.75", "--distill-target", "0.9"],
                 ["--noise-f", "0.75", "--distill-target", "0.99", "--max-rounds", "3"],
                 ["--noise-f", "0.8"]):
        builds.clear()
        cfg = RunConfig(**vars(build_parser().parse_args(["compare", *argv])))
        argv = ["compare", "--seed", "4", "--format", "json", *argv]
        first = run_cli([*argv, "--runs", "20"], capsys)
        assert first[0] == 0
        per_run = json.loads(first[1])["per_run"]
        assert len({r["channel_f"] for r in per_run}) == 1 and builds == []
        assert run_cli([*argv, "--runs", "20"], capsys) == first
        with monkeypatch.context() as m:
            m.setattr("telecost.protocol.BATCH_CHUNK", 16)
            code, out, _ = run_cli([*argv, "--runs", "33"], capsys)
        assert code == 0 and len(json.loads(out)["per_run"]) == 66
        assert builds == []
        for seed, kind in itertools.product(range(3), ProtocolKind):
            report = run_noisy_teleport(kind, UnknownQubit(0.6, 0.8), cfg.noise_f,
                                        np.random.default_rng(seed), cfg.distill_target, cfg.max_rounds)
            assert round(report.f_final, 12) == per_run[0]["channel_f"]
        assert len(builds) == 1


def test_noisy_compare_walks_the_ladder_once_per_stack(monkeypatch, capsys):
    # every run of a chunk climbs the same ladder to the same F: 0.75 -> 0.9
    # takes 5 levels, so 20 runs of both kinds, one chunk and one stack,
    # evaluate the map 5 times and validate no Werner channel: a repeat and
    # 33 runs in three 16-run chunks walk the ladder once a chunk
    from telecost import cost, noise

    steps, builds = [], []
    step_map, post_init = cost.distill_step_map, noise.DensityMatrix.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(cost, "distill_step_map", lambda f: steps.append(f) or step_map(f))
    monkeypatch.setattr(noise.DensityMatrix, "__post_init__", counting)
    noise.werner_state.cache_clear()
    argv = ["compare", "--seed", "3", "--noise-f", "0.75", "--distill-target", "0.9",
            "--format", "json"]
    for runs, chunk, walks in (("20", BATCH_CHUNK, 1), ("20", BATCH_CHUNK, 1), ("33", 16, 3)):
        steps.clear()
        monkeypatch.setattr("telecost.protocol.BATCH_CHUNK", chunk)
        code, out, _ = run_cli([*argv, "--runs", runs], capsys)
        assert code == 0 and len(json.loads(out)["per_run"]) == 2 * int(runs)
        assert len(steps) == 5 * walks and len(set(steps)) == 5
    assert builds == []


def test_verify_evolves_each_schedule_once_per_chunk(monkeypatch, capsys):
    # the golden registers and the branch walk both start from one run of a
    # schedule: 33 runs in 16-run chunks are 3 chunks, each evolving SQTP's and
    # KAK's schedule once
    from collections import Counter

    from telecost import protocol

    argv = ["verify", "--runs", "33", "--seed", "5", "--format", "json"]
    full = run_cli(argv, capsys)
    evolved, evolve = Counter(), protocol._evolve
    monkeypatch.setattr(protocol, "_evolve",
                        lambda schedule, *args: evolved.update([schedule.initial])
                        or evolve(schedule, *args))
    monkeypatch.setattr("telecost.cli.BATCH_CHUNK", 16)
    assert run_cli(argv, capsys) == full
    assert full[0] == 0 and json.loads(full[1])["all_pass"] is True
    assert evolved == {protocol.SCHEDULES[kind].initial: 3 for kind in ProtocolKind}


@pytest.mark.parametrize("protocol", ["both", "sqtp", "kak"])
def test_noisy_chunk_computes_one_channel_response(protocol, monkeypatch, capsys):
    # every kind's fidelity through a Werner channel is (2F+1)/3 for every
    # input, so a noisy chunk, of one kind or both, scores its runs from one
    # closed form, run_noisy_stack's one fidelity, and no pair_response
    from telecost import noise

    argv = ["compare", "--runs", "33", "--seed", "6", "--noise-f", "0.75", "--distill-target",
            "0.9", "--protocol", protocol, "--format", "json"]
    full = run_cli(argv, capsys)
    calls, stack = [], noise.run_noisy_stack

    def recorded(kinds, n_runs, *args):
        stacks = stack(kinds, n_runs, *args)
        calls.append((len(kinds), n_runs, {s.fidelity for s in stacks}))
        return stacks

    def refuse(*args):
        raise AssertionError("compare evaluated a channel response")

    monkeypatch.setattr(noise, "run_noisy_stack", recorded)
    monkeypatch.setattr(noise, "pair_response", refuse)
    monkeypatch.setattr("telecost.protocol.BATCH_CHUNK", 16)
    assert run_cli(argv, capsys) == full
    assert full[0] == 0 and full[2] == ""
    kinds = 2 if protocol == "both" else 1
    fidelity = {json.loads(full[1])["per_run"][0]["fidelity"]}
    assert calls == [(kinds, 16, fidelity), (kinds, 16, fidelity), (kinds, 1, fidelity)]


def _ladder_probabilities(f_in, target, max_rounds):
    """Each climbed level's success probability, from the BBPSSW closed form."""
    ps, f = [], f_in
    while f < target and len(ps) < max_rounds:
        r = (1.0 - f) / 3.0
        ps.append(f * f + 2.0 * f * r + 5.0 * r * r)
        f = (f * f + r * r) / ps[-1]
    return ps


@pytest.mark.parametrize("f_in, target, max_rounds, levels, seed", [
    pytest.param(0.75, 0.9, 32, 5, 26, id="0.75-0.9-5-26"),
    pytest.param(0.55, 0.95, 32, 16, 2626, id="0.55-0.95-16-2626"),
    pytest.param(0.85, 0.95, 32, 4, 2727, id="0.85-0.95-4-2727"),
    pytest.param(0.75, 0.99, 3, 3, 2728, id="0.75-0.99-3-2728-max-rounds-3")])
def test_compare_mean_locc_bits_match_the_exact_ladder(f_in, target, max_rounds, levels, seed,
                                                       capsys):
    # a run's attempts are one geometric count per level, success p_k, so its
    # LOCC bits have mean 2 sum 1/p_k and variance 4 sum (1 - p_k)/p_k^2; the
    # p_k come from the BBPSSW closed form, a climb stopped at the round cap
    # counts the levels it climbed, and the seeds were fixed before the first run
    ps = _ladder_probabilities(f_in, target, max_rounds)
    assert len(ps) == levels
    n_runs = 5000
    code, out, err = run_cli(["compare", "--runs", str(n_runs), "--seed", str(seed), "--noise-f",
                              str(f_in), "--distill-target", str(target), "--max-rounds",
                              str(max_rounds), "--format", "csv"], capsys)
    assert code == 0 and err == ""
    mean = 2.0 * sum(1.0 / p for p in ps)
    sigma = 2.0 * (sum((1.0 - p) / p**2 for p in ps) / n_runs) ** 0.5
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["protocol"] for row in rows] == ["sqtp", "kak"]
    for row in rows:
        assert abs(float(row["locc_bits"]) - mean) <= 5.0 * sigma, (row, mean, sigma)


def test_compare_attempts_follow_the_exact_pmf(capsys):
    # a run's attempts are a sum of one geometric count per level, so their pmf
    # is the convolution of the levels' geometric pmfs; bins merge from the
    # low end until each expects at least 5 runs, the last takes the whole
    # tail, and the chi-square statistic must stay within dof + 8 sqrt(2 dof),
    # a false alarm at most 5e-5 likely at 3 dof; seed fixed before the first run
    ps, n_runs, top = _ladder_probabilities(0.75, 0.9, 32), 20000, 200
    pmf = [1.0] + [0.0] * top
    for p in ps:
        geometric = [0.0] + [p * (1.0 - p) ** (a - 1) for a in range(1, top + 1)]
        pmf = [sum(pmf[j] * geometric[a - j] for j in range(a + 1)) for a in range(top + 1)]
    code, out, _ = run_cli(["compare", "--runs", str(n_runs), "--seed", "2729", "--noise-f", "0.75",
                            "--distill-target", "0.9", "--format", "json"], capsys)
    assert code == 0
    per_run = json.loads(out)["per_run"]
    for kind in ProtocolKind:
        counts = [0] * (top + 1)
        for row in per_run:
            if row["protocol"] == kind.value:
                counts[min(row["locc_bits"] // LOCC_ROUND_BITS, top)] += 1
        assert sum(counts) == n_runs
        bins, expected, observed = [], 0.0, 0
        for a in range(top + 1):
            expected, observed = expected + n_runs * pmf[a], observed + counts[a]
            if expected >= 5.0:
                bins.append([expected, observed])
                expected, observed = 0.0, 0
        bins[-1][0] += n_runs * (1.0 - sum(pmf)) + expected  # the tail past the last full bin
        bins[-1][1] += observed
        dof = len(bins) - 1
        statistic = sum((o - e) ** 2 / e for e, o in bins)
        assert dof >= 3 and statistic <= dof + 8.0 * (2.0 * dof) ** 0.5, (kind, statistic, dof)


def test_compare_undistillable_channel_rejected(capsys):
    code, out, err = run_cli(
        ["compare", "--runs", "2", "--noise-f", "0.5", "--distill-target", "0.9"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--noise-f" in err


def test_compare_channel_below_half_already_at_target(capsys):
    code, out, _ = run_cli(
        ["compare", "--runs", "2", "--noise-f", "0.4", "--distill-target", "0.3",
         "--format", "json"], capsys
    )
    assert code == 0
    assert all(r["locc_bits"] == 0 for r in json.loads(out)["per_run"])


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--runs", "0"],
        ["compare", "--noise-f", "1.5"],
        ["compare", "--distill-target", "0.9"],  # target without a channel
        ["verify", "--runs", "-3"],
    ],
)
def test_config_validation_exit_code(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--runs", "1", "--noise-f", "0.75", "--distill-target", "1.0",
         "--max-rounds", "1000000000"],
        ["sweep", "--distill-target", "1.0", "--max-rounds", "1000000000"],
    ],
)
def test_max_rounds_above_cap_rejected(argv, capsys):
    # a run at this cap would take hours: the config must refuse it up front
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(MAX_ROUNDS) in err


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_negative_seed_rejected_naming_the_flag(command, capsys):
    # numpy would refuse it too, but without saying which flag was wrong
    code, out, err = run_cli([command, "--runs", "1", "--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--seed" in err


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_runs_past_one_spawn_key_word_rejected_before_any_work(command, monkeypatch, capsys):
    # run 2**32 has no one-word spawn key, and that many runs would never finish
    def no_work(*args, **kwargs):
        raise AssertionError("no run may start")

    monkeypatch.setattr("telecost.protocol.run_batch", no_work)
    monkeypatch.setattr("telecost.protocol.haar_sources", no_work)
    code, out, err = run_cli([command, "--runs", str(MAX_RUNS + 1)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--runs" in err and str(MAX_RUNS) in err
    assert RunConfig(command=command, n_runs=MAX_RUNS).n_runs == 2**32 - 1


def test_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.json"
    code, _, err = run_cli(
        ["verify", "--runs", "2", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 2
    assert str(target) in err


def test_run_config_direct_validation():
    with pytest.raises(ValueError):
        RunConfig(command="compare", protocol="quantum")
    with pytest.raises(ValueError):
        RunConfig(command="compare", noise_f=-0.2)
    cfg = RunConfig(command="compare", noise_f=0.8, distill_target=0.9)
    assert [k.value for k in cfg.kinds()] == ["sqtp", "kak"]


@pytest.mark.parametrize("command", ["verify", "compare", "sweep"])
def test_every_default_is_run_configs(command):
    # the parser declares no default, so a command with no flags is RunConfig's
    assert RunConfig(**vars(build_parser().parse_args([command]))) == RunConfig(command)


def test_cmd_sweep_of_the_default_config_prints_what_main_does(capsys):
    # sweep's own target and cap are RunConfig's, not only the parser's
    assert cmd_sweep(RunConfig("sweep")) == 0
    direct = capsys.readouterr().out
    assert run_cli(["sweep"], capsys) == (0, direct, "")


@pytest.mark.parametrize("command", ["verify", "compare"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text", "xml"])
def test_run_config_accepts_the_formats_the_parser_offers(command, fmt, capsys):
    # one table of formats per command: the parser's choices and RunConfig's check
    try:
        build_parser().parse_args([command, "--format", fmt])
        offered = True
    except SystemExit:
        offered = False
    capsys.readouterr()
    try:
        RunConfig(command, fmt=fmt)
        accepted = True
    except ValueError as exc:
        assert f"{command} --format must be in" in str(exc)
        accepted = False
    assert offered == accepted == (fmt in ("json", "text") or fmt == "csv" and command == "compare")


def _perfbench_module(name):
    """perfbench/<name>.py (stdlib only), loaded without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(REFERENCE["sha256"]))
def test_benchmark_reference_output_is_byte_identical(workload, capsys):
    workloads = _perfbench_module("workloads")
    assert REFERENCE["seed"] == workloads.REFERENCE_SEED == 0
    argv = workloads.reference_argv(workload, REFERENCE["sizes"][workload])
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE["sha256"][workload]


# stdout hashes computed with NumPy building every run's streams, before the stream kernel
PINNED_SHA256 = [
    (["compare", "--runs", "257", "--seed", "5"],
     "33a2829d18a44653878352e409615b1bfa2ca256b2d9822f2383f4d0597592dc"),
    (["compare", "--runs", "257", "--seed", "5", "--noise-f", "0.75", "--distill-target", "0.9",
      "--format", "json"],
     "74593ca639f2626f6b8fb7396a79e375336cf97d4f43ef99fbebad632cd0c531"),
    (["compare", "--runs", "40", "--seed", "7", "--format", "csv"],
     "d97bdbacd9221a9b9c2e472384dbc73133c69fe87ba5be2df84a2235f5d51967"),
    (["compare", "--runs", "30", "--seed", "11", "--protocol", "kak", "--format", "json"],
     "cd578d0b6d3aa0eb64fdbd55158d4853e8d3f177642e2778ed85d300d84a54fb"),
    (["compare", "--runs", "20", "--seed", str(2**200), "--format", "json"],
     "a89a018be54f489105f8114267a02953062db0707ac9645d52488690271e62c4"),
    (["compare", "--runs", "33", "--seed", str(2**100 + 7), "--noise-f", "0.8",
      "--distill-target", "0.95", "--protocol", "kak", "--format", "csv"],
     "1cfff2fb31b2efdae2a837504d0d1fbf277ecb70de290d850c759e91a407e881"),
    # computed before the columnar stack core and the spliced JSON rows
    (["compare", "--runs", "257", "--seed", "5", "--format", "json"],
     "c207f1c6860781f79e1ef2bb05c8403e7eb9283328706f851b206e58b6903190"),
    (["compare", "--runs", "1", "--seed", "3", "--format", "json"],
     "6c249793fc7bbd4c73ca8b1ac7f9e64443c3d5e5c5721738f1b830a8ad8e0a7b"),
    # computed before the noisy runs of a chunk were distilled as one stack
    (["compare", "--runs", "300", "--seed", "11", "--noise-f", "0.55", "--distill-target", "0.95",
      "--format", "json"],  # 16 levels
     "9398086d7b8964a7b3e60ecb3f09f0c2895d3cbdc4cb7427b2e361e102d99df3"),
    (["compare", "--runs", "257", "--seed", "3", "--noise-f", "0.75", "--distill-target", "1.0",
      "--max-rounds", "1024", "--protocol", "kak", "--format", "json"],  # the stalled ladder
     "bb1ed61c41f4c0e2452163d0fb438c0f4d2ffdf3900ebe64153b958cfb374b83"),
    (["compare", "--runs", "40", "--seed", "2", "--noise-f", "0.8", "--format", "json"],  # no draws
     "c499398fcb690e0f94522ab506cc021f1ae900bfc424ddfaf4a54500936e1c80"),
    (["compare", "--runs", "20", "--seed", "8", "--noise-f", "0.75", "--distill-target", "0.99",
      "--max-rounds", "3", "--format", "json"],  # the round cap
     "a8142d87561107ed3a79c3e42f864028d89d92815e21dc9583c29abaeb2f5052"),
]


@pytest.mark.parametrize("argv, digest", PINNED_SHA256, ids=["ideal-257-text", "noisy-257-json",
                                                            "csv", "kak-json", "seed-2**200",
                                                            "noisy-kak-seed-2**100-csv",
                                                            "ideal-257-json", "ideal-1-json",
                                                            "noisy-16-levels-300-json",
                                                            "noisy-stalled-kak-257-json",
                                                            "noisy-no-target-40-json",
                                                            "noisy-round-cap-20-json"])
def test_compare_output_is_pinned(argv, digest, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare_evolves_no_register_draws_no_input_and_scores_no_channel(monkeypatch, capsys):
    # outcomes are floor(4u) of the streams' draws and fidelities closed
    # forms, so with the engine's register run, Haar draw and channel
    # response refused every compare still prints its pinned bytes
    from telecost import noise, protocol

    def refuse(*args, **kwargs):
        raise AssertionError("compare called the engine")

    for name in ("_evolve", "haar_sources"):
        monkeypatch.setattr(protocol, name, refuse)
    monkeypatch.setattr(noise, "pair_response", refuse)
    for argv, digest in PINNED_SHA256:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("noise_f, fidelity", [("0.70000000000075", 0.800000000001),
                                               ("0.85000000000075", 0.900000000001),
                                               ("0.55000000000075", 0.700000000001)])
def test_compare_prints_the_correctly_rounded_fidelity_at_a_rounding_edge(noise_f, fidelity, capsys):
    # (2F+1)/3 of these F sits a hair above a 12-digit rounding edge; the
    # float formula round((2 * f + 1) / 3, 12) and the engine's per-input
    # sums fall on either side of it (0.70000000000075 printed 698 rows of
    # 0.8 and 102 of 0.800000000001), and compare prints the exact value's
    # rounding on every row and in both summaries
    code, out, err = run_cli(["compare", "--runs", "400", "--seed", "0", "--noise-f", noise_f,
                              "--format", "json"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert float(round((2 * Fraction(float(noise_f)) + 1) / 3, 12)) == fidelity
    assert [row["fidelity"] for row in report["per_run"]] == [fidelity] * 800
    assert {(s["mean_fidelity"], s["min_fidelity"]) for s in report["summary"].values()} == {
        (fidelity, fidelity)}


def test_a_channel_of_negative_zero_prints_as_zero(capsys):
    # -0.0 passes the [0, 1] check, and with no target the channel is the
    # input; the config echoes the input as given, the rows print 0.0
    code, out, err = run_cli(["compare", "--runs", "1", "--noise-f", "-0.0", "--format", "json"],
                             capsys)
    assert (code, err) == (0, "")
    assert '"noise_f": -0.0' in out
    assert out.count('"channel_f": 0.0,') == 2 and '"channel_f": -0.0' not in out


# verify's inputs come from a NumPy Generator; JSON prints max_abs_err at full precision
PINNED_VERIFY_SHA256 = [
    (["verify", "--seed", "0", "--format", "json"],
     "bbbdb75f8651c3114cb9196a671874a999c944029d4df8919dc872826621ff05"),
    (["verify", "--seed", "7", "--format", "json"],
     "88de225eed1e1388967b502e9cee67beaed9fc010daee74701add5ebf6bfbb50"),
    (["verify", "--runs", "300", "--seed", str(2**70 + 1), "--format", "json"],
     "9d2ba889bec792364dd647191584115075a29d15185233a3cd13da0b482a05d3"),
]


@pytest.mark.parametrize("argv, digest", PINNED_VERIFY_SHA256,
                         ids=["seed-0", "seed-7", "300-runs-seed-2**70"])
def test_verify_json_output_is_pinned(argv, digest, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_only_json_renders_per_run_rows(monkeypatch, capsys):
    # text and csv print the summary alone; json renders all its rows in one call
    noisy_text_argv = ["compare", "--runs", "20", "--seed", "3", "--noise-f", "0.75",
                       "--distill-target", "0.9"]
    noisy_text = run_cli(noisy_text_argv, capsys)

    def refuse(*args):
        raise AssertionError("text or csv rendered per_run rows")

    monkeypatch.setattr("telecost.cli._compare_json", refuse)
    for argv, digest in [PINNED_SHA256[0], PINNED_SHA256[2], PINNED_SHA256[5]]:  # text, csv, noisy csv
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert noisy_text[0] == 0 and run_cli(noisy_text_argv, capsys) == noisy_text
    calls = []
    monkeypatch.setattr("telecost.cli._compare_json",
                        lambda *args: calls.append(args) or _compare_json(*args))
    for argv, digest in [PINNED_SHA256[6], PINNED_SHA256[1]]:  # ideal json, noisy json
        calls.clear()
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == "" and len(calls) == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare_rounds_every_fidelity_as_round_does():
    # every fidelity compare prints is round() of its exact value: 1.0 when
    # noiseless, else (2F+1)/3 of the float F the ladder ends on, correctly
    # rounded to 12 digits; F one ulp apart across a 12-digit rounding edge
    # print apart, and F = 0.70000000000075, which sits on an edge, prints
    # the exact value's rounding (the float formula's is 0.8)
    edge = 0.70000000000075
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1 / 3, 5e-324, np.nextafter(edge, 0.0), edge,
            np.nextafter(edge, 1.0), 0.85000000000075, 0.55000000000075]
    for noise_f in [None, *map(float, grid)]:
        summary, channel_f, fidelity, columns = _compare_data(RunConfig("compare", n_runs=7, noise_f=noise_f))
        exact = 1 if noise_f is None else (2 * Fraction(noise_f) + 1) / 3
        assert channel_f == (None if noise_f is None else round(noise_f, 12))
        assert fidelity == float(round(exact, 12))
        for kind, picks in columns.items():
            assert len(picks) == 7
            assert summary[kind.value]["mean_fidelity"] == summary[kind.value]["min_fidelity"] == fidelity
    edges = [_compare_data(RunConfig("compare", n_runs=1, noise_f=float(f)))[0]["kak"]["min_fidelity"]
             for f in grid[7:10]]
    assert edges == [0.8, 0.800000000001, 0.800000000001]


@pytest.mark.parametrize("argv", [
    ["compare", "--runs", "20"],
    ["compare", "--runs", "20", "--noise-f", "0.75", "--distill-target", "0.9"],
    ["verify", "--runs", "20"],
], ids=["ideal", "noisy", "verify"])
def test_the_chunk_size_changes_no_output(argv, monkeypatch, capsys):
    # the streams continue across chunks, so chunks of 1 or 7 runs print what one full chunk prints
    argv = [*argv, "--seed", "4", "--format", "json"]
    outputs = []
    for chunk in (BATCH_CHUNK, 1, 7):
        monkeypatch.setattr("telecost.protocol.BATCH_CHUNK", chunk)
        monkeypatch.setattr("telecost.cli.BATCH_CHUNK", chunk)
        outputs.append(run_cli(argv, capsys))
    assert outputs[0][0] == 0 and outputs[0][2] == ""
    assert outputs[1:] == [outputs[0]] * 2


def invoke(argv, capsys):
    """run_cli, with argparse's rejections as their exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NOISY_COMPARE = ["compare", "--runs", "5", "--seed", "4", "--noise-f", "0.75",
                 "--distill-target", "0.9", "--format", "json"]


def test_the_shared_parser_carries_nothing_between_invocations(monkeypatch, capsys):
    argvs = [NOISY_COMPARE,
             ["compare", "--runs", "5", "--seed", "4", "--format", "json"],
             ["compare", "--runs", "x"],
             ["compare", "--runs", "0"],
             ["sweep"],
             ["verify", "--runs", "3", "--format", "json"],
             NOISY_COMPARE]
    shared = [invoke(argv, capsys) for argv in argvs]
    monkeypatch.setattr("telecost.cli._parser", build_parser)  # a new parser per invocation
    fresh = [invoke(argv, capsys) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0, 0]
    assert shared[-1] == shared[0]
    # the noise flags of the first compare do not leak into the second
    rows = json.loads(shared[1][1])["per_run"]
    assert {(row["channel_f"], row["locc_bits"]) for row in rows} == {(None, 0)}
    assert "invalid int value: 'x'" in shared[2][2]
    assert "--runs must be in" in shared[3][2]


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(["sweep"], capsys)[0] == 0
    built.clear()
    assert run_cli(["sweep"], capsys)[0] == 0
    assert run_cli(["verify", "--runs", "1"], capsys)[0] == 0
    assert built == []
    # a caller of build_parser still gets a parser of its own to change
    assert build_parser() is not build_parser()


def test_compare_builds_no_numpy_stream_per_run(monkeypatch, capsys):
    # run_batch and verify seed their streams themselves; NumPy's constructors
    # are only the tests' oracle
    argv = ["compare", "--runs", "300", "--seed", "4", "--format", "json"]
    verify_argv = ["verify", "--runs", "300", "--seed", "4", "--format", "json"]
    plain, verified = run_cli(argv, capsys), run_cli(verify_argv, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("a NumPy stream was built")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert run_cli(argv, capsys) == plain
    assert plain[0] == 0 and len(json.loads(plain[1])["per_run"]) == 600
    assert run_cli(verify_argv, capsys) == verified
    assert verified[0] == 0 and json.loads(verified[1])["all_pass"] is True


NUMPY_RANDOM_PROBE = """
import contextlib, io, sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit("eager")
from telecost.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["compare", "--runs", "20", "--format", "json"],
                 ["compare", "--runs", "20", "--noise-f", "0.75", "--distill-target", "0.9",
                  "--format", "json"],
                 ["verify", "--runs", "20"],
                 ["sweep"]):
        assert main(argv) == 0
print("numpy.random" in sys.modules)
"""


def test_compare_and_sweep_never_import_numpy_random():
    # NumPy 2 imports numpy.random lazily, and loading it costs an import of
    # about 15 ms and 2 MB; verify draws its inputs from telecost's own
    # PCG64 stream too, so no command needs it
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE], env=env,
                           capture_output=True, text=True)
    if probe.stderr == "eager\n":
        pytest.skip("import numpy alone loads numpy.random (NumPy 1.x)")
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "False\n", "")


ENGINE_PROBE = """
import contextlib, hashlib, io, json, sys
import telecost, telecost.cli
telecost.cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    assert telecost.cli.main(["sweep"]) == 0
digests = {"loaded_after_sweep": [m for m in ("dataclasses", "inspect", "numpy") if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert telecost.cli.main(argv) == 0
    digests[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def test_sweep_never_imports_numpy_and_compare_and_verify_load_the_engine_when_they_run():
    # a fresh process: the package, the CLI, its parser and a sweep leave NumPy,
    # dataclasses and inspect unloaded (the probe itself imports json); the
    # commands after it import the engine and print the pinned bytes
    pinned = [PINNED_SHA256[7], PINNED_SHA256[1], PINNED_VERIFY_SHA256[0]]
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = subprocess.run([sys.executable, "-c", ENGINE_PROBE, json.dumps([a for a, _ in pinned])],
                           env=env, capture_output=True, text=True)
    assert (probe.returncode, probe.stderr) == (0, "")
    assert json.loads(probe.stdout) == {"loaded_after_sweep": [],
                                        **{" ".join(argv): digest for argv, digest in pinned}}


@pytest.mark.parametrize("noise", [[], ["--noise-f", "0.75", "--distill-target", "0.9"]],
                         ids=["ideal", "noisy"])
def test_protocol_k_of_the_selected_reads_stream_1_plus_k(noise, capsys):
    # kak alone reads stream 1, which sqtp reads under --protocol both, and
    # beside sqtp kak reads stream 2; most of its 300 rows then differ
    def rows(protocol, name):
        argv = ["compare", "--runs", "300", "--seed", "3", "--protocol", protocol,
                "--format", "json", *noise]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        return [(r["outcome_bits"], r["locc_bits"]) for r in json.loads(out)["per_run"]
                if r["protocol"] == name]

    kak_alone, kak_beside = rows("kak", "kak"), rows("both", "kak")
    assert len(kak_alone) == 300 and kak_alone == rows("both", "sqtp")
    assert sum(a != b for a, b in zip(kak_alone, kak_beside)) > 200


def test_ideal_compare_builds_no_scalar_stream_and_no_input_object(monkeypatch, capsys):
    # every stream is drawn as a column of its chunk, distillation's too,
    # and every input as a row of haar_sources
    argv = ["compare", "--runs", "300", "--seed", "4", "--format", "json"]
    noisy_argv = [*argv, "--noise-f", "0.8", "--distill-target", "0.9"]
    plain, noisy = run_cli(argv, capsys), run_cli(noisy_argv, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("an UnknownQubit was built")

    monkeypatch.setattr(UnknownQubit, "__init__", refuse)
    assert run_cli(argv, capsys) == plain
    assert plain[0] == 0 and len(json.loads(plain[1])["per_run"]) == 600
    assert run_cli(noisy_argv, capsys) == noisy
    assert noisy[0] == 0 and len(json.loads(noisy[1])["per_run"]) == 600


def test_verify_builds_no_branch_object(monkeypatch, capsys):
    # verify reads the branch walk's fidelity column; ProtocolBranch and its
    # StateVector are built only by enumerate_protocol, a stack of one
    from telecost.protocol import ProtocolBranch
    from telecost.statevector import StateVector

    def refuse(*args, **kwargs):
        raise AssertionError("a branch object was built")

    monkeypatch.setattr(ProtocolBranch, "__init__", refuse)
    monkeypatch.setattr(StateVector, "_trusted", refuse)
    argv, digest = PINNED_VERIFY_SHA256[2]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_benchmark_tracer_installs_and_changes_no_output(capsys):
    # the tracer refuses a layer function held where it cannot rebind it
    # (a tuple, a default argument, a closure), raising TracingError; the
    # engine's spans come from verify, as compare evolves no register
    tracer = _perfbench_module("tracer").Tracer()
    argvs = [["compare", "--runs", "3", "--seed", "2", "--format", "json"],
             ["compare", "--runs", "3", "--seed", "2", "--noise-f", "0.75", "--format", "json"],
             ["verify", "--runs", "2", "--seed", "2"]]
    plain = [run_cli(argv, capsys) for argv in argvs]
    tracer.install()
    try:
        traced, spans = [], []
        for argv in argvs:
            start = len(tracer.spans)
            traced.append(run_cli(argv, capsys))
            spans.append({span[3] for span in tracer.spans[start:]})
    finally:
        tracer.uninstall()
    assert traced == plain
    ideal, noisy, verify = spans
    assert {"protocol.verify_stack", "statevector.apply_h", "statevector.apply_cnot"} <= verify
    assert "protocol.run_batch" in ideal and "noise.run_noisy_stack" in noisy
    engine = {"protocol.haar_sources", "protocol.verify_stack", "protocol.pair_response",
              "statevector.measure_sample", "noise.teleport_fidelity_noisy", "noise.werner_state"}
    engine |= {span for span in verify if span.startswith("statevector.apply_")}
    assert not (ideal | noisy) & engine


def test_benchmark_tracer_refuses_a_gate_held_in_a_tuple(monkeypatch):
    # perfbench's own self-test builds its unpatchable tuple from the gate
    # kernel that protocol imports by name
    import telecost.protocol

    tracer_module = _perfbench_module("tracer")
    monkeypatch.setattr(telecost.protocol, "_FROZEN", (telecost.protocol.apply_h,), raising=False)
    original = telecost.protocol.run_protocol
    with pytest.raises(tracer_module.TracingError, match="_FROZEN"):
        tracer_module.Tracer().install()
    assert telecost.protocol.run_protocol is original
