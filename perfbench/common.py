"""Shared helpers of the benchmark: checkout layout, the environment
program processes start with, child-process plumbing, memory
high-water marks and order statistics.

Everything here runs in the benchmark's own processes; none of it is
imported by the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

# Every program process runs single-threaded BLAS: the host has 2 CPUs
# and the load generator needs one of them.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def program_env() -> dict[str, str]:
    """Environment for processes that run the program under test."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout, single-threaded BLAS."""
    for key, value in THREAD_ENV.items():
        os.environ.setdefault(key, value)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """SHA-1 over the program's source files: identifies the code
    measured where the checkout is not a git repository, and keys the
    inputs that the program itself generated."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(script: str, *args: str, timeout: float = 150.0) -> dict:
    """Run ``perfbench/<script>`` in a fresh process; return the JSON
    object it prints on its last stdout line.

    The child leads its own process group, so a timeout also stops the
    processes it started (shard workers)."""
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        env=program_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{script} timed out after {timeout} s") from exc
    if process.returncode != 0:
        raise BenchError(
            f"{script} {' '.join(args)} exited {process.returncode}:\n"
            f"{stderr[-4000:]}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{script} printed nothing")
    return json.loads(lines[-1])


def emit(payload: dict) -> None:
    """Print a child's result as its last stdout line."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def bits(value):
    """``value`` with every float replaced by its IEEE-754 bit pattern,
    so ``==`` is bitwise: -0.0 differs from 0.0 and a NaN equals
    itself.  Walks lists, tuples and dicts; leaves other leaves as
    they are."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


# ----------------------------------------------------------------------
# memory: high-water RSS scoped to the measured phase
# ----------------------------------------------------------------------
def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset the kernel's RSS high-water mark of ``pid`` to its
    current RSS (``/proc/<pid>/clear_refs``, value 5)."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of ``pid`` in MB (10**6 bytes)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return quantile(values, 0.5)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(float(value) for value in values)
    if not ordered:
        raise BenchError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed_ms(call, repeats: int) -> float:
    """Median wall time of ``repeats`` direct calls, in ms."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


class Stopwatch:
    """``with Stopwatch() as watch: ...`` then ``watch.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
