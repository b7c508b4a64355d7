"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Command  # noqa: E402

import k3lat.cli  # noqa: E402


def run_cli(argv):
    """k3lat.cli.main looked up at call time, so an installed wrapper runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["k3lat.cli"].main(list(argv))
    return code, out.getvalue(), err.getvalue()


WITNESS = str(workloads.DATA / "witness.txt")
COMMANDS = [
    ("table", "--from", "2", "--to", "10", "--format", "json"),
    ("table", "--from", "2", "--to", "8"),
    ("e8", "orbits", "--norm", "40", "--json"),
    ("lat", "info", "(-2) + -E8"),
    ("divisors", "--norm", "8"),
    ("weight", "--norm", "14", "--json"),
    ("embed", "check", "(-2) + -E8 + -E8 + H + H"),
    ("sbad", "witness", "--gram", WITNESS, "--json"),
    ("lat", "info", "E9"),
]


def _wrappers_left():
    return [f"{m.__name__}.{attr}" for m in layertrace._package_modules()
            for attr, value in vars(m).items() if hasattr(value, "__wrapped__")]


def test_wrappers_leave_outputs_byte_identical():
    with layertrace.serial_workers():
        plain = [run_cli(argv) for argv in COMMANDS]
        tracer = layertrace.Tracer()
        with layertrace.traced(tracer):
            assert _wrappers_left()
            wrapped = [run_cli(argv) for argv in COMMANDS]
    assert wrapped == plain
    assert {s.name for s in tracer.spans} >= {
        "cli.main", "glue.coset_count_row", "shortvec.short_vectors",
        "e8.orbits_of_norm", "parallel.task", "specparse.lattice_from_text",
        "lattice.discriminant_group", "sbad.read_witness_file"}
    assert _wrappers_left() == []


def test_self_time_excludes_children():
    tracer = layertrace.Tracer()
    with layertrace.serial_workers(), layertrace.traced(tracer):
        run_cli(COMMANDS[0])
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    roots = [s for s in tracer.spans if s.parent is None]
    assert sum(s.end - s.start for s in roots) == sum(own)


def _counters(commands):
    tracer = layertrace.Tracer()
    with layertrace.serial_workers(), layertrace.traced(tracer):
        for command in commands:
            command.verify(*run_cli(command.argv))
    metrics = layertrace.layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if not k.endswith(".s")
            and k not in ("parallel.max_task_share",)}


def test_deterministic_counters_repeat_for_one_seed():
    commands = (workloads.workload_commands("queries", 7)
                + workloads.workload_commands("census", 7)[:2]
                + [Command(("table", "--from", "2", "--to", "12", "--format", "json"))])
    first, second = _counters(commands), _counters(commands)
    assert first == second
    for name in ("shortvec.enum.vectors", "glue.row.scanned", "e8.orbits.found"):
        assert first[name] > 0


def test_seed_orders_a_fixed_set_of_inputs():
    def argvs(workload, seed):
        return [c.argv for c in workloads.workload_commands(workload, seed)]

    for workload in ("census", "queries"):
        assert argvs(workload, 3) == argvs(workload, 3)
        assert argvs(workload, 3) != argvs(workload, 4)
        assert sorted(argvs(workload, 3)) == sorted(argvs(workload, 4))
    norms = [int(argv[3]) for argv in argvs("census", 0)]
    assert len(norms) == 26 and all(300 <= t <= 400 and t % 4 == 0 for t in norms)


def test_census_check_rejects_corrupted_orbit_size():
    code, out, _ = run_cli(("e8", "orbits", "--norm", "40", "--json"))
    assert code == 0
    workloads.check_orbits(40, out)
    payload = json.loads(out)
    payload["orbits"][0]["orbit_size"] += 1
    with pytest.raises(CheckFailed, match="sigma_3"):
        workloads.check_orbits(40, json.dumps(payload))
    payload = json.loads(out)
    payload["orbits"][0]["complement_determinant"] = 20
    with pytest.raises(CheckFailed, match="complement determinant"):
        workloads.check_orbits(40, json.dumps(payload))


def test_table_check_against_golden_and_reference():
    rows = workloads.golden_rows()
    assert len(rows) == 9 and (10, True, 60, [1, 44, 33, 12, 1, 32]) in rows
    code, out, _ = run_cli(("table", "--from", "2", "--to", "16", "--format", "json"))
    assert code == 0
    ref16 = [r for r in workloads.load_reference() if r["two_n"] == 16]
    workloads.check_table(out, reference=ref16)
    payload = json.loads(out)
    payload["rows"][-1]["cells"][0]["count"] += 1
    with pytest.raises(CheckFailed, match="reference"):
        workloads.check_table(json.dumps(payload), reference=ref16)


def test_reference_agrees_with_rank7_engine():
    rows = workloads.load_reference()
    assert reference.cross_check(rows) == []
    rows[0]["cells"][-1]["count"] += 1
    assert reference.cross_check(rows)


def test_query_pool_passes_its_checks():
    for command in workloads.query_pool():
        command.verify(*run_cli(command.argv))


def test_exit_code_and_error_checks():
    command = Command(("lat", "info", "E9"), 1)
    command.verify(1, "", "k3lat: parse error\n")
    with pytest.raises(CheckFailed):
        command.verify(0, "", "")
    with pytest.raises(CheckFailed):
        command.verify(1, "", "Traceback (most recent call last):\n")


def test_tail_is_p75_by_nearest_rank():
    assert run.tail(list(range(1, 101))) == (75, 25)
    assert run.tail(list(range(40, 0, -1))) == (30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def test_calibrator_counts_e8_vectors():
    counts = [calibrate.count_short_vectors(calibrate.E8, b) for b in (0, 2, 4)]
    assert counts == [1, 241, 2401]
    done = subprocess.run([sys.executable, str(run.CALIBRATOR)], timeout=60)
    assert done.returncode == 0


def test_time_metrics_are_scaled_by_the_calibrator(monkeypatch):
    walls = iter([0.1, 0.3, 2.0, 3.0])

    def fake_spawn(args, serial, timeout=None):
        return run.Finished(0, "", "", next(walls), 0.5, 1024, False)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "preflight", lambda: None)
    monkeypatch.setattr(run, "workload_commands",
                        lambda w, s: [Command(("lat", "info", "E8"))])
    metrics, details = run.measure("queries", 0, 0, run.Tally())
    # One pass: a probe (setup 0.1 s, calibrator 0.3 s), then the command
    # with its two worker settings; the next probe is not due yet.
    assert details["calibration_samples"] == [0.3]
    scale = run.CALIBRATOR_REF_S / 0.3
    assert details["scale"] == pytest.approx(scale)
    assert details["unscaled"]["wall_serial_s"] + details["unscaled"]["wall_s"] == 5.0
    assert metrics["setup_s"] == pytest.approx(0.1 * scale)
    assert metrics["cmd_p50_s"] == pytest.approx(details["unscaled"]["wall_s"] * scale)
    assert metrics["peak_rss_mb"] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no k3lat sources" in done.stderr
