"""Benchmark of the k3lat command line, end to end and per layer.

    python3 perfbench/run.py [--workload table|census|queries|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory and nothing needs to be installed. Workloads and
metrics are declared in BENCHMARK.json at the root of the checkout.

--trace 0 runs the workload's commands one at a time, each in a fresh
interpreter started the way the `k3lat` entry point starts, for --seconds
seconds: passes over the commands, each command once with the default
worker count and once with K3LAT_THREADS=1. The seed orders the commands
of every pass. Every output is checked. setup_s is the
median time of a fresh `import k3lat.cli`, cmd_p50_s and cmd_tail_s the
median and p75 over the commands of each one's mean default-worker time,
wall_s, wall_serial_s and cpu_s the mean time of a pass, and peak_rss_mb the largest resident
set of any command, its pool workers included. Every time metric is
scaled by the host's speed during the run, as a fixed calibrator
(calibrate.py) timed between the commands gives it; the stderr report and
the record also give the unscaled seconds.

--trace 1 runs one pass as above, for parallel.speedup (wall_serial_s
over wall_s), then the same commands in this process through
`k3lat.cli.main`, serially, untraced and then with every layer's public
functions wrapped (see layertrace.py). It reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A readable report goes to standard
error, and the full record (environment, samples, failures) to
.perfbench/ at the root of the checkout, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import Tracer, layer_metrics, serial_workers, traced
from workloads import GOLDEN, WORKLOADS, CheckFailed, workload_commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

# What the `k3lat` console script runs.
ENTRY = "import sys; from k3lat.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 120
# The tail percentile is fixed, so cmd_tail_s means the same in every run.
# It is taken over the commands of a workload (26 on census, 18 on queries,
# one on table), so 6, 4 and none of them lie beyond p75.
TAIL_PERCENTILE = 75
# A fixed unit of work, timed next to the commands to gauge the host's speed.
CALIBRATOR = Path(__file__).resolve().parent / "calibrate.py"
# Time metrics are reported in seconds of a host on which the calibrator
# takes this long: its median on a 2-vCPU x86-64 VM at rest.
CALIBRATOR_REF_S = 0.115
PROBE_EVERY_S = 1.0


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Finished:
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    maxrss_kb: int
    timed_out: bool


def spawn(args, serial: bool, timeout: float = COMMAND_TIMEOUT_S) -> Finished:
    """Run `python3 <args>` against the checkout's sources and reap it.

    wait4 reports the child's own resource use plus that of every process
    it waited for, so pool workers count towards CPU time and peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("K3LAT_THREADS", None)
    if serial:
        env["K3LAT_THREADS"] = "1"
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        # A session of its own, so a timeout also kills the command's pool workers.
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(proc.returncode, out.read().decode(), err.read().decode(), wall,
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                        wall >= timeout)


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, command, code, out, err, timed_out=False, where=""):
        self.attempted += 1
        try:
            if timed_out:
                raise CheckFailed(f"timed out after {COMMAND_TIMEOUT_S} s")
            command.verify(code, out, err)
        except CheckFailed as exc:
            self.failures.append({"argv": list(command.argv), "where": where,
                                  "error": str(exc)})


def environment() -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}


def preflight() -> None:
    """Check that the checkout's sources are there and import from `src/`."""
    if not (SRC / "k3lat" / "cli.py").is_file():
        raise SetupError(f"no k3lat sources under {SRC}")
    if not GOLDEN.is_file():
        raise SetupError(f"golden table {GOLDEN} is missing")
    WORK.mkdir(exist_ok=True)
    # Untimed first import: fills the bytecode cache of a fresh checkout.
    probe = spawn(["-c", "import k3lat.cli; print(k3lat.cli.__file__)"], serial=False)
    if probe.code != 0 or Path(probe.out.strip()).resolve() != SRC / "k3lat" / "cli.py":
        raise SetupError(f"cannot import k3lat.cli from {SRC}: {probe.err.strip()[-500:]}")


def tail(samples: list[float]) -> tuple[float, int]:
    """(p75 by nearest rank, number of samples above it)."""
    ordered = sorted(samples)
    value = ordered[math.ceil(TAIL_PERCENTILE * len(ordered) / 100) - 1]
    return value, sum(1 for x in ordered if x > value)


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop, one client: each command starts after the last one exits.

    Each command runs twice in a row, once with the default worker count
    and once with K3LAT_THREADS=1, the first of the two alternating. Passes
    go over the commands in a fresh seeded order until the next pair would
    overrun `seconds`, so the last pass may stop part way; the first pass
    always runs to the end, so `seconds=0` gives exactly one. Pass times
    (wall_s, wall_serial_s, cpu_s) add up each command's mean over the
    run, and cmd_p50_s and cmd_tail_s are percentiles of those means. On
    a host whose speed switches between a fast and a slow state for
    seconds at a time, a median of a few samples lands in one state or the
    other, while the mean moves in proportion to the time spent in each;
    on a 2-vCPU VM the means spread about half as much between runs, and
    in four sets of ten runs per workload percentiles over the means spread
    at most 0.10 of their median, percentiles over single runs up to 0.15.

    Before a command runs, once at least PROBE_EVERY_S has passed since the
    last probe, a probe times a fresh `import k3lat.cli` (setup_s) and one
    run of calibrate.py. Every time metric is then scaled by
    CALIBRATOR_REF_S over the calibrator's mean: the host also switches
    into slower regimes for minutes at a time, longer than a run, and this
    takes them out. The mean, like the pass times, moves with the share of
    time spent in each state; over two sets of ten runs per workload it
    left the metrics steadier than the calibrator's median or interquartile
    mean did. The unscaled figures are kept in the details.
    """
    preflight()
    commands = workload_commands(workload, seed)
    rng = random.Random(f"order:{workload}:{seed}")
    order = [False, True]
    rng.shuffle(order)
    setup, calibration = [], []
    runs = {False: {c.argv: [] for c in commands}, True: {c.argv: [] for c in commands}}
    pair_s = {}
    start = time.perf_counter()
    last_probe = -math.inf

    def probe(serial: bool) -> None:
        nonlocal last_probe
        last_probe = time.perf_counter()
        setup.append(spawn(["-c", "import k3lat.cli"], serial).wall)
        cal = spawn([str(CALIBRATOR)], serial)
        if cal.code != 0:
            raise SetupError(f"{CALIBRATOR.name} failed: {cal.err.strip()[-300:]}")
        calibration.append(cal.wall)

    def sweep() -> bool:
        """One pass; False when the time ran out part way."""
        for command in rng.sample(commands, len(commands)):
            last = pair_s.get(command.argv)
            if last is not None and time.perf_counter() - start + last > seconds:
                return False
            pair_s[command.argv] = 0.0
            for serial in order:
                if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    probe(serial)
                run = spawn(["-c", ENTRY, *command.argv], serial)
                tally.check(command, run.code, run.out, run.err, run.timed_out,
                            "serial" if serial else "default")
                runs[serial][command.argv].append(run)
                pair_s[command.argv] += run.wall
            order.reverse()
        return True

    while sweep():
        pass

    def per_pass(serial, what):
        return sum(statistics.fmean(getattr(r, what) for r in rs)
                   for rs in runs[serial].values())

    cmd_means = [statistics.fmean(r.wall for r in rs) for rs in runs[False].values()]
    tail_s, beyond = tail(cmd_means)
    seconds_measured = {
        "setup_s": statistics.median(setup),
        "wall_s": per_pass(False, "wall"),
        "wall_serial_s": per_pass(True, "wall"),
        "cpu_s": per_pass(False, "cpu"),
        "cmd_p50_s": statistics.median(cmd_means),
        "cmd_tail_s": tail_s,
    }
    scale = CALIBRATOR_REF_S / statistics.fmean(calibration)
    metrics = {name: value * scale for name, value in seconds_measured.items()}
    metrics["peak_rss_mb"] = max(r.maxrss_kb for mode in runs.values()
                                 for rs in mode.values() for r in rs) / 1024
    details = {"commands_per_pass": len(commands), "unscaled": seconds_measured,
               "scale": scale, "calibration_samples": calibration,
               "setup_samples": setup, "cmd_samples": len(cmd_means),
               "cmd_tail_percentile": TAIL_PERCENTILE, "cmd_tail_beyond": beyond,
               "cmd_walls": {" ".join(argv): {mode: [r.wall for r in runs[serial][argv]]
                                              for serial, mode in ((False, "default"),
                                                                   (True, "serial"))}
                             for argv in runs[False]}}
    return metrics, details


def inprocess_run(command, tally: Tally, where: str) -> float:
    """Run one command through k3lat.cli.main in this process; return the wall."""
    cli = sys.modules["k3lat.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(command.argv))
        wall = time.perf_counter() - t0
    tally.check(command, code, out.getvalue(), err.getvalue(), where=where)
    return wall


def measure_traced(workload: str, seed: int, tally: Tally) -> tuple[dict, dict]:
    # One untraced pass (seconds=0), for parallel.speedup.
    _, one_pass = measure(workload, seed, 0, tally)
    passes = one_pass["unscaled"]
    commands = workload_commands(workload, seed)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.partition(".")[0] == "k3lat"]:
        del sys.modules[name]
    tracer = Tracer()
    with traced(tracer):
        pass  # imports k3lat afresh, under the wrappers
    untraced = traced_wall = 0.0
    with serial_workers():
        # An untimed first pass, so that no timed run meets a cold
        # interpreter. Then two passes run each command untraced and traced
        # back to back, so both see the host in the same state; which of
        # the two goes first alternates. Only the last pass's traced runs
        # (and the import) give the per-layer metrics.
        for command in commands:
            inprocess_run(command, tally, "in-process")
        for last in (False, True):
            this = tracer if last else Tracer()
            for i, command in enumerate(commands):
                plain_first = (i + last) % 2 == 1
                if plain_first:
                    untraced += inprocess_run(command, tally, "in-process")
                this.cmd = i
                with traced(this):
                    traced_wall += inprocess_run(command, tally, "traced")
                if not plain_first:
                    untraced += inprocess_run(command, tally, "in-process")
    metrics = layer_metrics(tracer)
    metrics["parallel.speedup"] = passes["wall_serial_s"] / passes["wall_s"]
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1
    spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans)
    details = {"subprocess_default_s": passes["wall_s"],
               "subprocess_serial_s": passes["wall_serial_s"],
               "inprocess_untraced_s": untraced, "inprocess_traced_s": traced_wall,
               "spans": str(spans), "span_count": len(tracer.spans),
               "commands_per_pass": len(commands)}
    return metrics, details


def run_workload(workload, seed, seconds, trace, declared) -> dict:
    tally = Tally()
    env_start = environment()
    if trace:
        values, details = measure_traced(workload, seed, tally)
    else:
        values, details = measure(workload, seed, seconds, tally)
    env_end = environment()
    if set(values) != set(declared):
        raise SetupError(f"metrics {sorted(set(values) ^ set(declared))} do not "
                         "match BENCHMARK.json")
    nproc = len(env_start["affinity"])
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not tally.failures, "attempted": tally.attempted,
        "failed": len(tally.failures),
        "fail_frac": len(tally.failures) / tally.attempted,
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
        "environment": {"start": env_start, "end": env_end,
                        "loaded": max(env_start["loadavg"][0],
                                      env_end["loadavg"][0]) > nproc},
        "details": details, "failures": tally.failures,
    }
    (WORK / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    return report


def print_report(report) -> None:
    err = sys.stderr
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['attempted']} commands, fail_frac {report['fail_frac']:.4f}", file=err)
    for name, m in report["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6f} {m['unit']}", file=err)
    d = report["details"]
    if "scale" in d:
        print(f"  scaled by {d['scale']:.4f} (calibrator mean "
              f"{statistics.fmean(d['calibration_samples']):.4f} s of "
              f"{len(d['calibration_samples'])}); unscaled: "
              + ", ".join(f"{k} {v:.4f}" for k, v in d["unscaled"].items()), file=err)
    if "cmd_tail_percentile" in d:
        print(f"  cmd_tail_s is p{d['cmd_tail_percentile']} of {d['cmd_samples']} "
              f"commands' mean times, {d['cmd_tail_beyond']} beyond it", file=err)
    env = report["environment"]
    print(f"  python {env['start']['python']}, cpu_count {env['start']['cpu_count']}, "
          f"affinity {env['start']['affinity']}, load "
          f"{env['start']['loadavg'][0]:.2f} -> {env['end']['loadavg'][0]:.2f}"
          + ("  (LOADED: load above nproc)" if env["loaded"] else ""), file=err)
    for f in report["failures"][:10]:
        print(f"  FAILED {' '.join(f['argv'])} [{f['where']}]: {f['error']}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="k3lat benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    # Runners of BENCHMARK.json pass its run_seconds as --seconds on every
    # run, so the flag stays although the default reads the same value.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if args.trace else "end_to_end"]}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [run_workload(w, args.seed, seconds, args.trace, declared)
                   for w in names]
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
