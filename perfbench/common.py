"""Shared plumbing of the repository benchmark: paths, seeds, stats, output.

Every workload module returns a :class:`Result`; :func:`emit` prints the
human-readable table, a fingerprint line and, last, the one-line JSON
result (``correct``/``attempted``/``failed``/``metrics``).  All JSON goes
through :func:`repro._jsonsafe.dumps`, so a non-finite number is a loud
error, never an invalid document.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files (artefacts, span dumps, load-generator inputs) live here,
#: inside the checkout and ignored by git; each run removes its own.
WORK = ROOT / ".perfbench_work"

#: The end-to-end metrics every workload reports with tracing off, and
#: their units; ``BENCHMARK.json`` names the same ones.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
}

#: The per-layer metrics every workload reports with tracing on.  Each
#: layer is measured on the workloads named for it in README.md; on the
#: others its metrics read 0.
PER_LAYER = {
    "model_selection.grid_search_s": "s",
    "core.adjustment_s": "s",
    "core.embedding.rounds": "count",
    "core.embedding.refit_useful": "ratio",
    "ensemble.forest.fit_s": "s",
    "ensemble.forest.misfit_check_s": "s",
    "trees.presort_s": "s",
    "trees.presort_hits": "count",
    "trees.presort_misses": "count",
    "trees.fit_s": "s",
    "trees.fits": "count",
    "persistence.save_s": "s",
    "persistence.load_s": "s",
    "core.verification_s": "s",
    "serve.batching.rows_per_call": "rows",
    "serve.batching.rejected": "count",
    "serve.batching.wait_us": "us",
    "serve.registry.serve_batch_us": "us",
    "ensemble.compiled.predict_all_us": "us",
    "ensemble.compiled.predict_all_ns_per_row": "ns",
    "traffic.defenders.observe_us": "us",
    "jsonsafe.dumps_us": "us",
    "serve.http.other_us": "us",
    "serve.client.late_p99_ms": "ms",
    "serve.client.late_max_ms": "ms",
    "solver.compiled_encoding.compiles": "count",
    "solver.compiled_encoding.compile_s": "s",
    "solver.compiled_encoding.solve_s": "s",
    "solver.sat.solve_s": "s",
    "solver.sat.conflicts": "count",
    "solver.sat.decisions": "count",
    "solver.sat.propagations": "count",
    "attacks.forgery.sat": "count",
    "attacks.forgery.unsat": "count",
    "attacks.forgery.unknown": "count",
    "attacks.forgery.other_s": "s",
    "traffic.generators.batch_s": "s",
    "traffic.replay.batches": "count",
    "unaccounted_frac": "ratio",
}

#: Times on CPU-bound work are reported at a fixed host speed: the speed
#: at which :class:`Reference` takes this long (about its time on the
#: 2-core Xeon host the bounds were set on).  The shared host alternates
#: between a fast and a slow regime for seconds to minutes at a time,
#: which moves raw times by up to a third; the reference kernel, run
#: right before and after each timed operation, slows down with it.
REFERENCE_S = 0.070


def require_source() -> None:
    """Put ``src/`` on the import path, or exit 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for benchmark subprocesses: ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def sub_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and a role path."""
    import numpy as np

    state = np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def median(values) -> float:
    import numpy as np

    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Reference:
    """A fixed kernel whose wall time slows down as the host does.

    It mixes numpy sorting and gathers with interpreter-bound dictionary
    work.  It allocates nothing large while timed (every array is made
    here), so the state of the process's allocator, which the workloads
    leave in different shapes, does not move it; its arrays are small
    enough (a few MB) not to raise the peak memory the workloads report.
    It is the benchmark's own code, so no change to the program moves it.
    """

    ROWS = 200_000

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.values = rng.random(self.ROWS)
        self.index = rng.integers(0, self.ROWS, self.ROWS)
        self.work = np.empty(self.ROWS)
        self.mask = np.empty(self.ROWS, dtype=bool)
        self.sums = np.empty(self.ROWS, dtype=np.int64)

    def seconds(self) -> float:
        import numpy as np

        t0 = perf_counter()
        for _ in range(6):
            np.copyto(self.work, self.values)
            self.work.sort()
            np.take(self.values, self.index, out=self.work)
            np.greater(self.work, 0.5, out=self.mask)
            np.cumsum(self.mask, out=self.sums)
        counts: dict[int, int] = {}
        for i in range(200_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return perf_counter() - t0


class Paced:
    """Time operations, each between two runs of the reference kernel.

    ``raw`` holds the wall times; ``scaled`` the same times at the
    reference host speed (``REFERENCE_S`` per kernel run).
    """

    def __init__(self, kernel: Reference) -> None:
        self.kernel = kernel
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.kernel_times: list[float] = []
        self.windows: list[tuple[float, float]] = []

    def __call__(self, op):
        # Start every operation from a collected heap, so that no
        # operation pays for collecting its predecessors' garbage.
        gc.collect()
        before = self.kernel.seconds()
        t0 = perf_counter()
        out = op()
        t1 = perf_counter()
        after = self.kernel.seconds()
        elapsed = t1 - t0
        self.windows.append((t0, t1))
        self.raw.append(elapsed)
        self.scaled.append(elapsed * 2.0 * REFERENCE_S / (before + after))
        self.kernel_times += [before, after]
        return out

    def describe(self, what: str) -> str:
        return (f"{what}: {len(self.raw)} timed, median {median(self.raw):.6g} s, "
                f"at reference speed {median(self.scaled):.6g} s; reference kernel "
                f"median {median(self.kernel_times) * 1e3:.2f} ms "
                f"(nominal {REFERENCE_S * 1e3:.0f} ms)")


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": int(seed),
        "seconds": seconds,
        "mode": "trace" if trace else "measure",
    }


@dataclass
class Result:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def metric(self, name: str, value, unit: str) -> None:
        value = float(value)
        if math.isfinite(value):
            self.metrics[name] = (value, unit)
        else:
            self.problems.append(f"metric {name} could not be measured")

    def end_to_end(self, setup_s, peak_rss_mb, latency_ms) -> None:
        for (name, unit), value in zip(END_TO_END.items(),
                                       (setup_s, peak_rss_mb, latency_ms)):
            self.metric(name, value, unit)

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness check; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _reported(result: Result, trace: bool) -> dict:
    """The metrics of the result line: exactly those of the mode.

    A per-layer metric the workload does not measure reads 0; a missing
    end-to-end metric is a failed check.
    """
    wanted = PER_LAYER if trace else END_TO_END
    reported = {}
    idle = []
    for name, unit in wanted.items():
        if name in result.metrics:
            value, got = result.metrics[name]
            if got != unit:
                result.problems.append(f"metric {name} in {got}, expected {unit}")
            reported[name] = (value, unit)
        elif trace:
            idle.append(name)
            reported[name] = (0.0, unit)
        else:
            result.problems.append(f"end-to-end metric {name} was not measured")
    if idle:
        result.lines.append("not measured on this workload (reported as 0): "
                            + ", ".join(idle))
    return reported


def emit(result: Result, info: dict, trace: bool) -> None:
    """Print the table, the fingerprint and the final JSON result line."""
    from repro._jsonsafe import dumps

    reported = _reported(result, trace)
    for line in result.lines:
        print(line)
    for problem in result.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    width = max((len(name) for name in reported), default=0)
    for name, (value, unit) in reported.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"failed_frac  {frac:.6g} ratio ({result.failed}/{result.attempted})")
    print("fingerprint " + dumps(info, sort_keys=True))
    print(
        dumps(
            {
                "correct": result.correct,
                "attempted": max(1, int(result.attempted)),
                "failed": int(result.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        ),
        flush=True,
    )
