"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a checkout.  It runs every workload once at tiny sizes,
traced and untraced, and asserts that every metric BENCHMARK.json names is
reported with its unit, that every run timed its host-speed kernel, that no
operation fails, and that the negative control is counted as a failure.  It also checks that the size guard refuses
an oversized spectral input without launching it, that one full-size
invocation prints a well-formed result line, and that a directory holding
only BENCHMARK.json and the benchmark exits nonzero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(1, os.path.join(run.ROOT, "src"))

import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def main() -> int:
    problems: list[str] = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)
            print(f"SELFTEST FAIL: {message}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        expect(listed == table, f"BENCHMARK.json {key} differs from run.py")
    expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run.measure(name, seed=1, seconds=0, trace=trace, tiny=True)
            metrics = run.report(record)
            wanted = run.PER_LAYER if trace else run.END_TO_END
            for metric, unit in wanted.items():
                got = metrics.get(metric)
                expect(got is not None and got["unit"] == unit
                       and isinstance(got["value"], float),
                       f"{name} trace={trace}: {metric} missing or without unit {unit}")
            if not trace:
                expect(all(r[k] > 0 for r in record["host"]["runs"]
                           for k in ("kernel_s", "kernel_cpu_s", "setup_kernel_s")),
                       f"{name}: a run without host-speed kernel times")
            expect(record["attempted"] > 0 and record["error_rate"] == 0,
                   f"{name} trace={trace}: error_rate {record['error_rate']}")
            expect(record["control"]["counted"] and record["control"]["failed"] == 1,
                   f"{name} trace={trace}: negative control not counted as a failure")
            expect(record["correct"], f"{name} trace={trace}: not correct")

    pi_convergents = workloads.fl.Flux.parse("pi").convergents(4)
    try:
        for conv in pi_convergents:
            workloads.guard_spectral(conv.denominator, 24, f"pi convergent {conv}")
        expect(False, "size guard let pi at depth 4, k_grid 24 through")
    except workloads.InputRejected as exc:
        print(f"size guard: {exc}")

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = os.path.join("bench", "run.py")
    full = subprocess.run(
        [sys.executable, script, "--workload", "landau", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=170)
    doc = result_line(full.stdout)
    expect(full.returncode == 0 and doc is not None and set(doc) == RESULT_KEYS
           and doc["correct"] and doc["failed"] == 0
           and set(doc["metrics"]) == set(run.END_TO_END),
           f"full-size landau result line: {full.stdout[-500:]} {full.stderr[-500:]}")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        alone = subprocess.run(
            [sys.executable, script, "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(alone.returncode != 0 and result_line(alone.stdout) is None,
           f"bare directory: exit {alone.returncode}, stdout {alone.stdout[-300:]!r}")

    print("SELFTEST " + ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
