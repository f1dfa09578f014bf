"""Command-line behavior: exit codes, output formats, determinism."""

import csv
import hashlib
import importlib.util
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from telecost.cli import GOLDEN_ATOL, MAX_ROUNDS, MAX_SWEEP_POINTS, RunConfig, main
from telecost.kinds import ProtocolKind, Purpose
from telecost.noise import run_noisy_teleport
from telecost.protocol import run_batch

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
    [(_, _, report)] = run_batch([ProtocolKind.KAK], 1, 0, lambda kind, psis, rngs: [
        run_noisy_teleport(kind, psis[0], 0.75, rngs[0], distill_target=1.0, max_rounds=1024)])
    assert report.f_final < 1.0
    assert report.ledger.total(Purpose.LOCC) == 182


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


def test_benchmark_tracer_installs_and_changes_no_output(capsys):
    # the tracer refuses a layer function held where it cannot rebind it
    # (a tuple, a default argument, a closure), raising TracingError
    tracer = _perfbench_module("tracer").Tracer()
    argvs = [["compare", "--runs", "3", "--seed", "2", "--format", "json"],
             ["verify", "--runs", "2", "--seed", "2"]]
    plain = [run_cli(argv, capsys) for argv in argvs]
    tracer.install()
    try:
        traced = [run_cli(argv, capsys) for argv in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = [span[3] for span in tracer.spans]
    assert {"protocol.run_protocol_stack", "protocol.enumerate_protocol",
            "statevector.apply_h", "statevector.apply_cnot"} <= set(spans)
    # one outcome draw per sampled run: 3 runs of sqtp and kak
    assert spans.count("statevector.measure_sample") == 3 * 2


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
