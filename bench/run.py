"""fluxlattice benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's inputs come from --seed.
Each workload run happens in a fresh `bench/child.py` process, one at a time,
with one BLAS thread (nproc is the cap); runs repeat until --seconds have passed,
and every metric is the median over them.  Times are normalised to the
host's full speed: each run also times a fixed reference kernel
(calibration.py) between its operations, and its wall_s, setup_s and cpu_s
are scaled by the kernel's REFERENCE_S over the kernel's mean time in that
run.  On a shared host other tenants slow a vCPU by up to about 1.8x, in
stretches of a fraction of a second to minutes; the scale takes that out.
The summary prints the raw medians beside the normalised medians and
quartiles, with the sample count.  --trace 0 reports the end-to-end
metrics; --trace 1 alternates traced and untraced runs and reports the
per-layer metrics and the tracing overhead.  Each invocation also runs a
negative control, `verify --corrupt`, outside the timed runs, and is correct
only if the failure accounting counts it as a failure.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `--workload all` runs every workload in turn.  Full
records (environment, per-run samples, spans) go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, within the nproc cap: a threaded BLAS call runs at the
# pace of the slowest vCPU it uses, and each vCPU of a shared host slows and
# recovers on its own, while the host-speed kernel measures only the vCPU the
# run is on.  With one thread the whole run and the kernel share that vCPU.
BLAS_THREADS = min(1, NPROC)
CHILD_TIMEOUT_S = 120

# Metric name -> unit.  END_TO_END is what --trace 0 reports, PER_LAYER what
# --trace 1 reports; BENCHMARK.json lists the same names and units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.main.calls": "count", "cli.main.s": "s",
    "cli.stdout_bytes": "bytes", "cli.self_s": "s",
    "phases.reduce.calls": "count", "phases.reduce.s": "s", "phases.self_s": "s",
    "algebra.multiply.calls": "count", "algebra.multiply.term_products": "count",
    "algebra.multiply.s": "s", "algebra.derive_invariant_basis.s": "s",
    "algebra.self_s": "s",
    "operators.compose.calls": "count", "operators.equals.calls": "count",
    "operators.verify_relations.s": "s", "operators.commutant_scan.s": "s",
    "operators.commutant_scan.words": "count", "operators.truncate.s": "s",
    "operators.truncate.sites": "count", "operators.self_s": "s",
    "reporting.checks": "count", "reporting.checks_failed": "count",
    "spectral.spectrum.calls": "count", "spectral.spectrum.self_s": "s",
    "spectral.eigvalsh.calls": "count", "spectral.eigvalsh.matrices": "count",
    "spectral.eigvalsh.s": "s", "spectral.bloch_bytes": "bytes",
    "spectral.samples": "count", "spectral.solve_ratio": "ratio",
    "spectral.symmetry_report.s": "s", "spectral.hausdorff.s": "s",
    "spectral.csv_write.s": "s", "spectral.csv_write.bytes": "bytes",
    "spectral.csv_read.s": "s", "spectral.json_write.s": "s",
    "spectral.json_write.bytes": "bytes", "spectral.json_read.s": "s",
    "spectral.self_s": "s",
    "landau.build.s": "s", "landau.brackets.s": "s", "landau.lorentz.s": "s",
    "landau.levels.s": "s", "landau.degeneracies.s": "s", "landau.dim": "count",
    "landau.operator_bytes": "bytes", "landau.self_s": "s",
    "trace.overhead_s": "s",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec: dict, trace: bool, run_id: str) -> dict:
    """One workload run in a fresh process; its measurements, or a failure
    record if the process itself failed."""
    workdir = os.path.join(WORK, "runs", run_id)
    os.makedirs(workdir, exist_ok=True)
    try:
        request = {"spec": spec, "trace": trace, "run_id": run_id, "workdir": workdir,
                   "launched": time.monotonic()}
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(request)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            with open(spans) as fh:
                result["span_lines"] = fh.read()
        return result
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return {"crashed": str(exc), "attempted": 1, "failed": 1,
                "failures": [{"op": "child process", "error": str(exc)}]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def host_scaled(run: dict, name: str, kind: str) -> float:
    """One run's value of an end-to-end metric, times normalised to the
    host's full speed by the run's own reference-kernel times: wall_s by the
    workload's kernel, cpu_s by that kernel's CPU time, and setup_s, which is
    interpreted work, by the interpreter kernel timed right after set-up."""
    if name == "wall_s":
        return run[name] * calibration.REFERENCE_S[kind] / run["kernel_s"]
    if name == "cpu_s":
        return run[name] * calibration.REFERENCE_S[kind] / run["kernel_cpu_s"]
    if name == "setup_s":
        return run[name] * calibration.REFERENCE_S["interpreter"] / run["setup_kernel_s"]
    return run[name]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(traced: list[dict], untraced: list[dict], kind: str) -> dict[str, float]:
    """Per-layer metrics: the best value over the traced runs; the tracing
    overhead from the normalised wall_s medians of traced and untraced runs."""
    def per_run(run: dict) -> dict[str, float]:
        layers = run["layers"]
        out = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
        out["cli.import_s"] = run["import_s"]
        out["cli.stdout_bytes"] = run["stdout_bytes"]
        sampled = layers.get("phases.reduce.sampled", 0)
        out["phases.reduce.s"] = (layers.get("phases.reduce.sampled_s", 0.0)
                                  * out["phases.reduce.calls"] / sampled if sampled else 0.0)
        kpoints = layers.get("spectral.kpoints", 0)
        out["spectral.solve_ratio"] = (layers.get("spectral.eigvalsh.matrices", 0) / kpoints
                                       if kpoints else 0.0)
        return out

    rows = [per_run(run) for run in traced]
    metrics = {name: min(row[name] for row in rows) for name in PER_LAYER}
    metrics["trace.overhead_s"] = (
        statistics.median(host_scaled(r, "wall_s", kind) for r in traced)
        - statistics.median(host_scaled(r, "wall_s", kind) for r in untraced))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload for `seconds` and return its full record."""
    import workloads

    spec = workloads.make_spec(workload, seed, tiny)
    kind = workloads.HOST_KERNEL[workload]
    runs: list[dict] = []
    deadline = time.monotonic() + seconds
    modes = (True, False) if trace else (False,)
    while True:
        for traced in modes:
            run = run_child(spec, traced, f"{workload}-{seed}-{len(runs)}")
            run["traced"] = traced
            runs.append(run)
        if time.monotonic() >= deadline or any("crashed" in r for r in runs):
            break
    control = run_child(workloads.CONTROL_SPEC, False, f"control-{seed}")

    ok_runs = [r for r in runs if "crashed" not in r]
    untraced = [r for r in ok_runs if not r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    control_counted = (control.get("attempted") == 1 and control.get("failed") == 1
                       and "crashed" not in control)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "spec": spec, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "correct": failed == 0 and control_counted and bool(untraced),
        "control": {"op": " ".join(workloads.CONTROL_ARGV), "attempted": control["attempted"],
                    "failed": control["failed"], "failures": control["failures"],
                    "counted": control_counted},
        "failures": [f for r in runs for f in r["failures"]],
        "raw_samples": {name: [r[name] for r in untraced] for name in END_TO_END},
        "samples": {name: [host_scaled(r, name, kind) for r in untraced]
                    for name in END_TO_END},
        "environment": {
            "nproc": NPROC, "cpu": cpu_model(), "python": platform.python_version(),
            **(ok_runs[0]["env"] if ok_runs else {}), "seed": seed,
        },
    }
    if untraced:
        record["end_to_end"] = {name: statistics.median(values)
                                for name, values in record["samples"].items()}
        record["host"] = {
            "kernel": kind,
            "reference_s": {k: calibration.REFERENCE_S[k] for k in (kind, "interpreter")},
            "runs": [{k: r[k] for k in ("kernel_s", "kernel_cpu_s", "setup_kernel_s")}
                     for r in untraced]}
    traced_runs = [r for r in ok_runs if r["traced"]]
    if traced_runs and untraced:
        record["per_layer"] = layer_metrics(traced_runs, untraced, kind)
        record["span_lines"] = "".join(r.get("span_lines", "") for r in traced_runs)
    return record


def save(record: dict) -> str:
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    spans = record.pop("span_lines", "")
    if spans:
        with open(os.path.join(out_dir, stem + "-spans.jsonl"), "w") as fh:
            fh.write(spans)
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def report(record: dict) -> dict[str, dict]:
    """Print the human-readable summary; return the metrics for the result line."""
    env = record["environment"]
    print(f"environment: {json.dumps(env)}")
    n = len(record["samples"]["wall_s"])
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{n} untraced runs in {record['seconds']} s")
    metrics: dict[str, dict] = {}
    if "end_to_end" in record and not record["trace"]:
        runs = record["host"]["runs"]
        print(f"  host speed: {record['host']['kernel']} kernel, median "
              f"{statistics.median(r['kernel_s'] for r in runs) * 1e3:.3f} ms per run "
              f"({statistics.median(r['kernel_cpu_s'] for r in runs) * 1e3:.3f} ms CPU); "
              f"interpreter kernel after set-up "
              f"{statistics.median(r['setup_kernel_s'] for r in runs) * 1e3:.3f} ms")
        for name, unit in END_TO_END.items():
            lo, hi = quartiles(record["samples"][name])
            raw = statistics.median(record["raw_samples"][name])
            value = float(record["end_to_end"][name])
            print(f"  {name:<12} {value:.6f} {unit}  median of {n}, quartiles {lo:.6f} .. "
                  f"{hi:.6f}; raw median {raw:.6f}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"  {'error_rate':<12} {record['error_rate']:g}  "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for failure in record["failures"][:10]:
        print(f"    FAILED {failure['op']}: {failure['error']}")
    control = record["control"]
    print(f"negative control ({control['op']}): {control['failed']} of "
          f"{control['attempted']} operations failed, "
          f"{'counted' if control['counted'] else 'NOT COUNTED'} as a failure"
          + "".join(f" ({f['error']})" for f in control["failures"]))
    if record["trace"] and "per_layer" in record:
        for name, unit in PER_LAYER.items():
            value = float(record["per_layer"][name])
            print(f"  {name:<34} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fluxlattice", "__init__.py")):
        print(f"error: no fluxlattice source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            workloads.make_spec(name, args.seed)
    except workloads.InputRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        print(f"record: {save(record)}")
        metrics = report(record)
        prefix = "" if len(names) == 1 else f"{name}."
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
        result["correct"] = result["correct"] and record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
