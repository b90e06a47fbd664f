"""Timing, statistics and process plumbing shared by the workloads.

Every timed operation is paired with the reference loop, run right before
it in the benchmark process: latencies are reported as multiples of that
loop's time (unit ``ref``), which tracks how fast the machine runs at that
moment.  The loop works on integers only; ints are not tracked by the
garbage collector, so nothing the program allocates can slow it down.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"

REF_ITERS = 4000
REF_OPERAND = (1 << 200) + 1


def reference_loop() -> int:
    """The fixed integer loop every operation is normalised by.

    Each step multiplies a 200-bit int and reduces it, so the loop runs
    the interpreter and the allocator the way the program's exact
    arithmetic does.  In the measurements in the README it followed the
    program's drift better than a loop on machine-word ints.
    """
    acc = 0
    x = REF_OPERAND
    for i in range(REF_ITERS):
        acc = (acc + x * i) % 1000003
    return acc


TEXT_ITERS = 8000


def child_reference_loop() -> int:
    """The fixed loop that child processes are normalised by instead.

    It renders integers as decimal text and keeps the strings until the
    end.  A child's start-up is mostly making and dropping many small
    objects (unmarshalled code, strings, tuples), and in the measurements
    in the README this loop followed child latency about twice as well as
    ``reference_loop`` did, which in turn follows in-process work better.
    Strings are not tracked by the garbage collector either.
    """
    return len([str(i) for i in range(TEXT_ITERS)])


def time_reference(loop=reference_loop) -> float:
    """Seconds taken by a reference loop, median of three back-to-back
    runs so that a single preemption does not skew one operation."""
    clock = time.perf_counter
    samples = []
    for _ in range(3):
        t0 = clock()
        loop()
        samples.append(clock() - t0)
    samples.sort()
    return samples[1]


def timed_call(prof, fn, *args):
    """(result, seconds, reference seconds) of fn(*args), the reference
    loop timed right before it; with a profiler, profile the call too."""
    ref = time_reference()
    if prof is not None:
        prof.enable()
    t0 = time.perf_counter()
    out = fn(*args)
    seconds = time.perf_counter() - t0
    if prof is not None:
        prof.disable()
    return out, seconds, ref


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def min_samples(p: float) -> int:
    """Fewest samples that leave ten beyond percentile p."""
    return math.ceil(round(1000.0 / (100.0 - p), 6))


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def normalise(op_seconds: float, ref_seconds: float) -> float:
    """Latency in multiples of the reference loop timed next to it."""
    if ref_seconds <= 0:
        raise ValueError("reference time must be positive")
    return op_seconds / ref_seconds


def median(values) -> float:
    return statistics.median(values)


def median_ref(records) -> float:
    """Median reference time of a round's operation records."""
    return median([r["ref_s"] for r in records])


# ---------------------------------------------------------------------------
# the closed loop: rounds of a fixed operation set, each in a fresh fork
# ---------------------------------------------------------------------------


def in_fork(fn, *args) -> dict:
    """Run fn(*args) in a forked child; return its JSON-able dict result
    with the child's peak resident memory added as ``maxrss_mb``.

    Each round starts from the same program state, so nothing a round
    caches or leaks carries into the next one.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(fn(*args))
        except BaseException:  # report anything, then leave without cleanup
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r") as fh:
        payload = fh.read()
    _, _, usage = os.wait4(pid, 0)
    result = json.loads(payload) if payload else {"error": "round child died"}
    if "error" in result:
        raise RuntimeError("round failed in child:\n" + result["error"])
    result["maxrss_mb"] = usage.ru_maxrss / 1024.0
    return result


# ---------------------------------------------------------------------------
# child processes with a wall-clock budget
# ---------------------------------------------------------------------------


class ChildResult:
    __slots__ = ("code", "out", "err", "seconds", "maxrss_mb", "timed_out")

    def __init__(self, code, out, err, seconds, maxrss_mb, timed_out):
        self.code = code
        self.out = out
        self.err = err
        self.seconds = seconds
        self.maxrss_mb = maxrss_mb
        self.timed_out = timed_out


def run_child(argv, env, budget: float) -> ChildResult:
    """Start argv, wait for it with os.wait4 and kill it after ``budget``
    seconds.  Output goes to pipes and is read after exit: every command
    here prints far less than a pipe holds."""
    state = {"pid": None, "done": False, "timed_out": False}

    def on_alarm(signum, frame):
        if not state["done"]:
            state["timed_out"] = True
            os.kill(state["pid"], signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=str(ROOT))
    state["pid"] = proc.pid
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        _, status, usage = os.wait4(proc.pid, 0)
        state["done"] = True
        seconds = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read().decode("utf-8", "replace")
    err = proc.stderr.read().decode("utf-8", "replace")
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(proc.returncode, out, err, seconds, usage.ru_maxrss / 1024.0,
                       state["timed_out"])


def child_env(pycache: Path | None) -> dict:
    """Environment of a program child: the checkout's sources, the
    benchmark's bytecode cache, no bytecode writes, no logging."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "FOCAL_LOG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    if pycache is not None:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def compile_bytecode(pycache: Path) -> None:
    """Fill ``pycache`` with the bytecode of every module the CLI imports,
    as an installed package would have it: one child imports the CLI with
    bytecode writes on and the cache prefix set."""
    env = child_env(pycache)
    del env["PYTHONDONTWRITEBYTECODE"]
    res = run_child([sys.executable, "-c", "import focalclass.cli"], env, 60.0)
    if res.code != 0:
        raise RuntimeError(f"cannot import the program:\n{res.err}")


def require_program() -> None:
    """Stop unless the checkout holds the program's sources."""
    if not (SRC / "focalclass" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    if not CORPUS.is_dir():
        raise SystemExit(f"error: no descriptor corpus under {CORPUS}")


def import_program(pycache: Path) -> None:
    """Import the program from the checkout (never from anywhere else),
    reading bytecode from the benchmark's cache, as the children do."""
    require_program()
    sys.pycache_prefix = str(pycache)
    sys.path.insert(0, str(SRC))
    import focalclass  # noqa: F401
    import focalclass.cli  # noqa: F401
    if not Path(focalclass.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: focalclass imported from {focalclass.__file__}")


class Workload:
    """What every workload shares: its run directory, its seed and the
    bytecode cache its set-up compiles.  A workload supplies ``build``
    (make the inputs), ``round``, its tail percentile ``TAIL`` and the
    fewest plain rounds a run makes, ``MIN_ROUNDS``."""

    TAIL = 90.0
    MIN_ROUNDS = 1
    IN_PROCESS = True  # rounds call the library in forks of this process

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.pycache = workdir / "pycache"

    def setup(self) -> None:
        """One whole set-up: a cold import of the program in a child,
        compiling its bytecode into a fresh cache, then the inputs."""
        shutil.rmtree(self.pycache, ignore_errors=True)
        compile_bytecode(self.pycache)
        self.build()

    def start(self) -> None:
        """Ready the rounds after set-up: import the program here if the
        rounds run in process."""
        if self.IN_PROCESS:
            import_program(self.pycache)
