"""Self-test of the benchmark at toy size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload prints every metric named in BENCHMARK.json,
with its unit, both untraced and traced; that a deliberately wrong input (a
hold time that misses a pi bond phase) shows up as counted failures rather
than a crash; and that the benchmark exits non-zero, printing no result,
in a directory holding only the benchmark and no program source.
Exit status is the number of failed checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--seed", "3", "--seconds", "0.5", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-400:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(res)}")
    return res


def check_metrics(res: dict, declared: list[dict], nonzero: bool) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in res["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or value != value or (nonzero and value <= 0):
            raise AssertionError(f"{name} = {value!r}")


def case_metrics(workload: str, trace: int) -> None:
    res = result(bench("--workload", workload, "--trace", str(trace), "--size", "toy"))
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise AssertionError(f"attempted {res['attempted']}, failed {res['failed']}")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    check_metrics(res, declared, nonzero=not trace)


def case_fault(workload: str) -> None:
    res = result(bench("--workload", workload, "--size", "toy", "--fault"))
    if res["correct"] or res["failed"] < 1:
        raise AssertionError(f"wrong hold time not counted: {res['attempted']} attempted, {res['failed']} failed")


def case_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"exit {proc.returncode} with stdout {proc.stdout[-200:]!r}")


def main() -> int:
    cases = []
    for w in SPEC["workloads"]:
        cases.append((f"{w['name']} end-to-end metrics", case_metrics, (w["name"], 0)))
        cases.append((f"{w['name']} per-layer metrics", case_metrics, (w["name"], 1)))
    cases.append(("prepare_dense counts a wrong hold time as failures", case_fault, ("prepare_dense",)))
    cases.append(("no result without program source", case_bare_directory, ()))
    failures = 0
    for label, fn, args in cases:
        try:
            fn(*args)
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"PASS {label}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
