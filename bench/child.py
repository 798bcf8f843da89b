"""One workload run in a fresh process: set up, time the operations, check
their outputs and print one JSON line of measurements.

run.py launches it as `python3 bench/child.py '<request JSON>'` with
PYTHONPATH pointing at the checkout's src/.  Set-up is everything from the
parent's launch stamp (time.monotonic, system-wide on Linux) to the first
timed call: interpreter start, `import fluxlattice`, building the inputs
and, in a traced run, installing the wrappers.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time


def blas_environment() -> dict:
    """numpy's BLAS library and the thread count it actually uses."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            if hasattr(lib, fn_name):
                fn = getattr(lib, fn_name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main() -> int:
    request = json.loads(sys.argv[1])
    start = time.perf_counter()
    import fluxlattice.cli  # noqa: F401  -- the whole package, and numpy
    import_s = time.perf_counter() - start

    import calibration
    import tracing
    import workloads

    ops = workloads.build_ops(request["spec"], request["workdir"])
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer(request["run_id"])
        tracing.instrument(tracer)
    setup_s = time.monotonic() - request["launched"]

    # Host speed: the interpreter kernel right after set-up, which is
    # interpreted work, and the workload's kernel before the first operation
    # and after each one; all outside the timed calls and the CPU count.
    # The first call of a kernel warms it up and is not kept.
    kernel = workloads.HOST_KERNEL[request["spec"]["workload"]]
    c0 = time.process_time()
    calibration.sample("interpreter")
    setup_kernel_s = statistics.fmean(calibration.sample("interpreter")[0] for _ in range(3))
    calibration.sample(kernel)
    kernel_s = calibration.samples_after(kernel, 0.0)
    check_cpu_s = time.process_time() - c0
    op_s = []
    stdout_bytes = 0
    failures = []
    for op in ops:
        error = None
        value = None
        t0 = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        op_s.append(time.perf_counter() - t0)

        c0 = time.process_time()
        if isinstance(value, workloads.CliResult):
            stdout_bytes += len(value.stdout.encode())
        if error is None:
            with tracer.paused() if tracer else contextlib.nullcontext():
                try:
                    op.check(value)
                except workloads.CheckFailed as exc:
                    error = str(exc)
                except Exception as exc:  # a check that cannot read the output
                    error = f"check raised {type(exc).__name__}: {exc}"
        value = None
        kernel_s += calibration.samples_after(kernel, op_s[-1])
        check_cpu_s += time.process_time() - c0
        if error is not None:
            failures.append({"op": op.name, "error": error})
    cpu_s = time.process_time() - check_cpu_s  # checks and kernel excluded
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": sum(op_s), "setup_s": setup_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "attempted": len(ops),
              "failed": len(failures), "failures": failures,
              "import_s": import_s, "stdout_bytes": stdout_bytes,
              "setup_kernel_s": setup_kernel_s,
              "kernel_s": statistics.fmean(wall for wall, _ in kernel_s),
              "kernel_cpu_s": statistics.fmean(cpu for _, cpu in kernel_s),
              "env": blas_environment()}
    if tracer is not None:
        result["layers"] = tracer.summary()
        with open(os.path.join(request["workdir"], "spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in tracer.span_lines())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
