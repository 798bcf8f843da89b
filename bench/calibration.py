"""Fixed reference kernels that measure how fast the host runs right now.

On a shared virtual machine the speed of a vCPU changes from one moment to
the next, by up to about 1.8x, with the load of other tenants on the
physical cores beneath it.  The change flips within fractions of a second
and its mix drifts over minutes, so a wall-clock time measured in one
stretch cannot be compared with one measured in another.  Each workload
run therefore times a reference kernel between its operations, more often
after long operations than after short ones, and run.py multiplies the
run's times by the kernel's REFERENCE_S, about its time when the host runs
at full speed, over its mean time in the run.  Wall-clock times are scaled
by the kernel's wall-clock time, CPU times by its CPU time.  The mean,
unlike a median, keeps the moments the host took the vCPU away altogether,
which lengthen the operations' wall-clock time in the same proportion.

Host contention slows interpreted Python, LAPACK solves and dense complex
products by different factors, so each workload uses the kernel closest to
its own work (workloads.HOST_KERNEL): `interpreter` (integer, dict and
string work, small batched Hermitian solves, elementwise complex
arithmetic) for the exact algebra, the CLI and the serializers,
`hermitian` (100 x 100 Hermitian eigenvalues) for the Bloch spectra of
large q, and `gemm` (a 200 x 200 complex product) for the Landau operators.
The kernels use nothing from fluxlattice, so no change to the package can
move them.  They run on one BLAS thread, like the workloads.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20240901)
_stack = _rng.standard_normal((48, 12, 12)) + 1j * _rng.standard_normal((48, 12, 12))
_stack = _stack + _stack.conj().transpose(0, 2, 1)
_phases = _rng.standard_normal(16384) * 1j
_hermitian = _rng.standard_normal((2, 100, 100)) + 1j * _rng.standard_normal((2, 100, 100))
_hermitian = _hermitian + _hermitian.conj().transpose(0, 2, 1)
_square = _rng.standard_normal((200, 200)) + 1j * _rng.standard_normal((200, 200))


def _interpreter() -> None:
    total = 0
    table: dict[int, int] = {}
    for i in range(2500):
        total += (i * i + total) % 7919
        table[i & 127] = total
    ",".join(f"{v:.6e}" for v in table.values())
    np.linalg.eigvalsh(_stack)
    np.exp(_phases).sum()


def _hermitian_solve() -> None:
    np.linalg.eigvalsh(_hermitian)


def _gemm() -> None:
    _square @ _square


KERNELS = {"interpreter": _interpreter, "hermitian": _hermitian_solve, "gemm": _gemm}

# About each kernel's fastest time, in seconds, on a 2-vCPU Intel Xeon VM
# with Python 3.11 and numpy 2.4 (scipy-openblas 0.3.31, one thread).
# Normalised times equal raw times on a host that runs the kernel this fast.
REFERENCE_S = {"interpreter": 0.0016, "hermitian": 0.0018, "gemm": 0.0011}


def sample(kind: str) -> tuple[float, float]:
    """Wall-clock and CPU seconds the kernel takes now."""
    kernel = KERNELS[kind]
    t0, c0 = time.perf_counter(), time.thread_time()
    kernel()
    return time.perf_counter() - t0, time.thread_time() - c0


def samples_after(kind: str, op_s: float) -> list[tuple[float, float]]:
    """Kernel times taken after an operation of op_s seconds: one, and one
    more per 25 ms of the operation, up to 16."""
    return [sample(kind) for _ in range(min(16, 1 + int(op_s / 0.025)))]
