"""Workload inputs (k3lat argv lists) ordered by a seed, and output checks.

Every command carries the exit code it must return and a check of its
standard output that raises `CheckFailed`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE.parent / "tests" / "golden" / "table_2_14.md"
REFERENCE = DATA / "table_16_22.json"

# Rows up to 2n=22 take about 2 s with two workers and 3 s with one, which
# leaves room for seven or more samples of each in a run; up to 2n=26 a
# pair takes about 10 s, and only three fit.
TABLE_TO = 22
TABLE_ARGV = ("table", "--from", "2", "--to", str(TABLE_TO), "--format", "json")
# Every fourth even norm in 300..400: 26 commands, about 1,450 orbits. The
# set is fixed and the seed orders it. A seeded draw of norms would make
# the work of a pass depend on the seed: the cost of one norm ranges over
# a factor of three, and one draw per stratum of three norms still left
# the total of 17 commands 11% apart between the quartiles of 20 seeds.
CENSUS_NORMS = tuple(range(300, 401, 4))


class CheckFailed(Exception):
    """A command's output or exit code is wrong."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    code: int = 0
    check: Callable[[str], None] | None = None

    def verify(self, code: int, out: str, err: str) -> None:
        if code != self.code:
            raise CheckFailed(f"exit code {code}, expected {self.code}: {err.strip()[-300:]}")
        if "Traceback" in err:
            raise CheckFailed("traceback on stderr")
        if self.code != 0:
            if out or not err.startswith(("k3lat", "usage")):
                raise CheckFailed("an error must print only a k3lat message on stderr")
            return
        try:
            if self.check is not None:
                self.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise CheckFailed(f"malformed output: {exc!r}") from None


def _payload(out: str) -> dict:
    payload = json.loads(out)
    if payload.get("schema") != 1:
        raise CheckFailed("JSON output lacks schema 1")
    return payload


# ------------------------------------------------------------------- table


def golden_rows(path: Path = GOLDEN) -> list[tuple[int, bool, int, list[int]]]:
    """(2n, primitive, roots, column totals) per row of the golden markdown."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or not cells[0].rstrip("*").isdigit():
            continue
        totals = [int(c) for c in cells[2:] if c]
        rows.append((int(cells[0].rstrip("*")), not cells[0].endswith("*"),
                     int(cells[1]), totals))
    return rows


def check_table(out: str, golden=None, reference=None) -> None:
    rows = _payload(out)["rows"]
    golden = golden_rows() if golden is None else golden
    reference = load_reference() if reference is None else reference
    small = [(r["two_n"], r["primitive"], r["roots"], r["totals"])
             for r in rows if r["two_n"] <= 14]
    if small != golden:
        raise CheckFailed("rows 2..14 differ from the golden table")
    large = [r for r in rows if r["two_n"] > 14]
    if len(large) != len(reference):
        raise CheckFailed(f"{len(large)} rows above 2n=14, expected {len(reference)}")
    for got, want in zip(large, reference):
        if got != want:
            raise CheckFailed(f"row 2n={want['two_n']} representative "
                              f"{want['representative']} differs from the reference")


def load_reference(path: Path = REFERENCE) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


# ------------------------------------------------------------------ census


def e8_theta_coefficient(two_n: int) -> int:
    """Number of norm-2n vectors in E8: 240 * sigma_3(n), the E4 coefficient."""
    n = two_n // 2
    return 240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def check_orbits(two_n: int, out: str) -> None:
    payload = _payload(out)
    if payload["norm"] != -two_n:
        raise CheckFailed(f"norm {payload['norm']}, expected {-two_n}")
    orbits = payload["orbits"]
    total = sum(o["orbit_size"] for o in orbits)
    if total != e8_theta_coefficient(two_n):
        raise CheckFailed(f"orbit sizes at 2n={two_n} sum to {total}, "
                          f"not 240*sigma_3(n) = {e8_theta_coefficient(two_n)}")
    for o in orbits:
        if o["primitive"] and o["complement_determinant"] != two_n:
            raise CheckFailed(f"primitive orbit {o['index']} at 2n={two_n} has "
                              f"complement determinant {o['complement_determinant']}")


def orbits_command(two_n: int) -> Command:
    return Command(("e8", "orbits", "--norm", str(two_n), "--json"), 0,
                   lambda out: check_orbits(two_n, out))


# ----------------------------------------------------------------- queries


def _fields(**expected):
    def check(out: str) -> None:
        payload = _payload(out)
        for key, value in expected.items():
            if payload.get(key) != value:
                raise CheckFailed(f"{key} = {payload.get(key)!r}, expected {value!r}")
    return check


def _divisor_rows(expected):
    """expected: per row (2n, roots, classes as (k, norm, count), lines as
    (k0, nu0, multiplicity))."""
    def check(out: str) -> None:
        got = [(r["two_n"], r["roots"],
                [(c["k"], c["norm"], c["count"]) for c in r["classes"]],
                [(ln["k0"], ln["nu0"], ln["multiplicity"]) for ln in r["lines"]])
               for r in _payload(out)["rows"]]
        if got != expected:
            raise CheckFailed(f"divisor rows {got!r}")
    return check


def _weight_rows(out: str) -> None:
    got = [(r["two_n"], r["roots"], r["weight"]) for r in _payload(out)["rows"]]
    if got != [(14, 72, 48), (14, 44, 34)]:
        raise CheckFailed(f"weight rows {got!r}")


def query_pool() -> list[Command]:
    """Short interactive commands, each with its pinned result."""
    witness = str(DATA / "witness.txt")
    bad_witness = str(DATA / "bad_witness.txt")

    def orbits40(out: str) -> None:
        check_orbits(40, out)
        got = [(o["primitive"], o["complement_determinant"], o["complement_roots"])
               for o in _payload(out)["orbits"]]
        if got != [(True, 40, 30), (False, 10, 60), (True, 40, 24)]:
            raise CheckFailed(f"orbits of norm 40: {got!r}")

    return [
        Command(("lat", "info", "II(2,26)", "--json"), 0, _fields(
            rank=28, signature=[2, 26], determinant=1, even=True,
            discriminant_divisors=[])),
        Command(("lat", "info", "-E8 + -E8 + -E8", "--json"), 0, _fields(
            rank=24, signature=[0, 24], determinant=1, discriminant_divisors=[],
            root_count=720)),
        Command(("lat", "info", "(-2) + -E8", "--json"), 0, _fields(
            rank=9, signature=[0, 9], determinant=-2, discriminant_divisors=[2],
            root_count=242)),
        Command(("embed", "check", "(-2) + -E8 + -E8 + H + H", "--json"), 0, _fields(
            embeddable=True, rank=21, min_generators=1, signature=[2, 19])),
        Command(("minus2", "property", "II(1,17)", "--json"), 0, _fields(
            determinant=-1, rank=18, property=True)),
        Command(("minus2", "property", "H + (-4)", "--json"), 0, _fields(
            determinant=4, rank=3, property=False)),
        Command(("sbad", "polarized", "--n", "4", "--dnorm", "0", "--k", "4", "--json"),
                0, _fields(k_normalized=4, projected_norm=-2, bad=True)),
        Command(("sbad", "witness", "--gram", witness, "--json"), 0, _fields(
            det_s=8, det_s1=-16, pairings=[4], d_norm=0, s_bad=True)),
        Command(("divisors", "--norm", "2", "--json"), 0, _divisor_rows([
            (2, 126, [(1, "-3/2", 56)], [(0, -2, 1), (1, "-1/2", 57)])])),
        Command(("divisors", "--norm", "8", "--json"), 0, _divisor_rows([
            (8, 126, [(1, "-15/8", 0), (2, "-3/2", 56), (3, "-7/8", 0)],
             [(0, -2, 1), (1, "-1/8", 57), (2, "-1/2", 57), (3, "-9/8", 0)]),
            (8, 56, [(1, "-15/8", 56), (2, "-3/2", 28), (3, "-7/8", 8)],
             [(0, -2, 1), (1, "-1/8", 92), (2, "-1/2", 28), (3, "-9/8", 8)])])),
        Command(("weight", "--norm", "14", "--json"), 0, _weight_rows),
        Command(("e8", "orbits", "--norm", "40", "--json"), 0, orbits40),
        # Malformed inputs: usage or parse errors exit 1, domain errors exit 2.
        Command(("lat", "info", "E9"), 1),
        Command(("lat", "info", "(0)"), 2),
        Command(("embed", "check", "E8"), 2),
        Command(("e8", "orbits", "--norm", "7"), 1),
        Command(("sbad", "witness", "--gram", bad_witness), 1),
        Command(("table", "--from", "4", "--to", "2"), 1),
    ]


# --------------------------------------------------------------- workloads


def workload_commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass, in an order drawn from the seed.

    Each workload's set of commands is fixed, so every seed asks for the
    same work; the seed orders the commands, here and in every pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        return [Command(TABLE_ARGV, 0, check_table)]
    if workload == "census":
        commands = [orbits_command(t) for t in CENSUS_NORMS]
    elif workload == "queries":
        commands = query_pool()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rng.sample(commands, len(commands))


WORKLOADS = ("table", "census", "queries")
