"""One benchmark process: set up a workload, run its closed loop, report JSON.

Started by run.py, once per set-up sample and once for the measured run.
It prints ``READY {...}`` when set-up is done (right before the first timed
task) and, unless ``--setup-only``, ``RESULT {...}`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The layers' self times must cover the traced task time up to the tracing
# overhead or this share, whichever is larger (the rest is glue such as
# building a ProtocolConfig, outside every traced function).
UNATTRIBUTED_LIMIT = 0.05
# Host-speed calibration (see Loop): time_kernel() on an otherwise idle
# 2-core Xeon VM at 2.0 GHz, and the least task time between two calibrations.
NOMINAL_KERNEL_S = 0.0085
CALIBRATION_INTERVAL_S = 0.25
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_gradion() -> float:
    """Import gradion from this checkout's src/ and return the import time."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import gradion
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(gradion.__file__).startswith(src + os.sep):
        raise ImportError(f"gradion imported from {gradion.__file__}, not from {src}")
    return elapsed


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Hash of the program's sources, which identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "gradion")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def metadata(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def calibration_kernel() -> float:
    """A fixed piece of work in gradion's style: small complex matmuls in a Python loop."""
    import numpy as np  # not at module level: import_gradion times numpy's import too
    a = np.eye(8, dtype=complex) * (1.0 + 1e-3j)
    v = np.ones(8, dtype=complex)
    acc = 0.0
    for _ in range(1600):
        v = a @ v
        acc += float(np.max(np.abs(v))) + sum(j * 0.5 for j in range(8))
    return acc


def time_kernel() -> float:
    """Fastest of three kernel runs, so a spike shorter than one run is ignored."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Loop:
    """Closed loop over a workload's input pool, one task at a time.

    Tasks are timed in batches of at least CALIBRATION_INTERVAL_S, with the
    calibration kernel timed between batches. A task's normalized time is its
    wall time scaled by NOMINAL_KERNEL_S over the mean kernel time on either
    side of its batch: the time it would take on a host running at the
    nominal speed. Contention from other tenants slows the task and the
    kernel alike, so the normalized figures stay put when the host does not.
    """

    def __init__(self, workload):
        self.wl = workload
        self.outcomes: Counter = Counter()
        self.refusals: Counter = Counter()
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.normalized_s = 0.0
        self.host_speed: list[float] = []
        self.digest = hashlib.sha256()
        self.first_failure = None
        self.batch_s = 0.0
        self.kernel_s = None

    def task(self, k: int):
        return self.wl.pool[k % len(self.wl.pool)]

    def record(self, k: int, elapsed: float, outcome) -> None:
        if self.kernel_s is None:
            self.kernel_s = time_kernel()
        self.timed_s += elapsed
        self.outcomes[outcome.status] += 1
        if outcome.status == "ok":
            self.latencies.append(elapsed)
        elif outcome.status == "refused":
            self.refusals[outcome.reason] += 1
        elif self.first_failure is None:
            self.first_failure = f"task {k}: {outcome.reason}"
        if k < self.wl.count_tasks:
            self.digest.update(outcome.digest.encode())
            self.digest.update(b"\0")
        self.batch_s += elapsed
        if self.batch_s >= CALIBRATION_INTERVAL_S:
            self.close_batch()

    def close_batch(self) -> None:
        if not self.batch_s:
            return
        after = time_kernel()
        speed = NOMINAL_KERNEL_S / (0.5 * (self.kernel_s + after))
        self.host_speed.append(speed)
        self.normalized_s += self.batch_s * speed
        self.batch_s, self.kernel_s = 0.0, after

    def summary(self) -> dict:
        self.close_batch()
        attempted = sum(self.outcomes.values())
        completed = self.outcomes["ok"]
        out = {
            "attempted": attempted,
            "completed": completed,
            "refused": self.outcomes["refused"],
            "failed": self.outcomes["failed"],
            "failed_frac": (attempted - completed) / attempted,
            "refusals_by_preset": dict(sorted(self.refusals.items())),
            "first_failure": self.first_failure,
            "timed_s": self.timed_s,
            "tasks_per_s": completed / self.timed_s,
            "norm_tasks_per_s": completed / self.normalized_s,
            "host_speed_median": statistics.median(self.host_speed),
            "task_p50_s": statistics.median(self.latencies) if self.latencies else None,
            "latency_samples": len(self.latencies),
            "output_digest": self.digest.hexdigest(),
            "digest_tasks": self.wl.count_tasks,
        }
        if len(self.latencies) >= 100:
            out["task_p90_s"] = percentile_90(self.latencies)
        return out


def call(wl, task):
    """The task's output, or the exception it raised (a failed task, not a failed run)."""
    try:
        return wl.run(task)
    except Exception as exc:
        return exc


def prepare(wl, task) -> None:
    if wl.prepare:
        wl.prepare(task)


def readback(wl, task, out):
    return wl.readback(task, out) if wl.readback and not isinstance(out, Exception) else None


def judge(wl, task, out, back):
    if isinstance(out, Exception):
        from workloads import Outcome
        return Outcome("failed", f"raised {out!r}", repr(out))
    return wl.check(task, out, back)


def run_untraced(loop: Loop, seconds: float) -> None:
    wl, k = loop.wl, 0
    while loop.timed_s < seconds or k < wl.count_tasks:
        task = loop.task(k)
        prepare(wl, task)
        t0 = time.perf_counter()
        out = call(wl, task)
        elapsed = time.perf_counter() - t0
        loop.record(k, elapsed, judge(wl, task, out, readback(wl, task, out)))
        k += 1


def attributed(root: str, name: str) -> bool:
    """Spans under the task root, plus the read-back's parse of the emitted file.

    The read-back's serialize_schedule is the check's own round trip, not
    work the program does, so it is left out of the per-layer figures.
    """
    return root == "task" or name == "pulses.parse_schedule"


def run_traced(loop: Loop, seconds: float) -> dict:
    """Each task runs traced and untraced back to back, alternating which goes first.

    Pairing the two runs of a task keeps host-speed drift out of the
    tracing overhead; the traced runs take about half of ``seconds``.
    """
    from tracing import LAYERS, TRACED, Tracer

    wl = loop.wl
    tracer = Tracer()
    k = 0
    replay_s = 0.0
    while loop.timed_s < seconds / 2.0 or k < wl.count_tasks:
        task = loop.task(k)
        prepare(wl, task)
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if not traced:
                t0 = time.perf_counter()
                call(wl, task)
                replay_s += time.perf_counter() - t0
                continue
            tracer.install()
            try:
                tracer.counting = k < wl.count_tasks
                tracer.open_root("task", k)
                out = call(wl, task)
                elapsed = tracer.close_root()
                tracer.open_root("readback", k)
                back = readback(wl, task, out)
                tracer.close_root()
            finally:
                tracer.uninstall()
            if tracer.counting and back is not None and hasattr(wl, "report_bytes"):
                tracer.counts["cli.report_bytes"] += wl.report_bytes()
        loop.record(k, elapsed, judge(wl, task, out, back))
        k += 1
    traced_tasks = k

    per_task = 1.0 / traced_tasks
    per_counted = 1.0 / wl.count_tasks
    counts = {name: n * per_counted for name, n in tracer.counts.items()}
    calls: dict[str, float] = {}
    for (root, name), n in tracer.calls.items():
        if attributed(root, name):
            calls[name] = calls.get(name, 0.0) + n * per_counted
    self_s: dict[str, float] = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for (root, name), s in tracer.self_s.items():
        if name in ("task", "readback") or not attributed(root, name):
            continue
        self_s[name] = self_s.get(name, 0.0) + s * per_task
        if root == "task":
            layer_s[name.split(".")[0]] += s
    task_wall = tracer.root_wall_s["task"]
    unattributed = tracer.self_s[("task", "task")] / task_wall
    overhead = task_wall / replay_s - 1.0

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    evaluations = counts.get("search.evaluations", 0.0)
    commensurate = calls.get("pulses.commensurate_pulse", 0.0)
    metrics = {f"{layer}.{fname}.{kind}": 0.0
               for layer, fname in TRACED for kind in ("calls", "self_s")}
    metrics.update({f"{name}.calls": n for name, n in calls.items()})
    metrics.update({f"{name}.self_s": s for name, s in self_s.items()})
    metrics.update({
        "trap.newton_iterations": counts.get("trap.newton_iterations", 0.0),
        "trap.rejected": counts.get("trap.rejected", 0.0),
        "search.evaluations": evaluations,
        "search.couplings_per_evaluation": ratio(
            calls.get("couplings.compute_couplings", 0.0), evaluations),
        "search.solves_per_evaluation": ratio(
            calls.get("trap.solve_equilibrium", 0.0), evaluations),
        "pulses.commensurate_pulse.distinct_ratio": ratio(
            counts.get("pulses.commensurate_pulse.distinct", 0.0), commensurate),
        "pulses.schedule_bytes": counts.get("pulses.schedule_bytes", 0.0),
        "cli.report_bytes": counts.get("cli.report_bytes", 0.0),
        "task.traced_wall_s": task_wall * per_task,
        "trace_overhead_frac": overhead,
        "trace.unattributed_frac": unattributed,
    })
    metrics.update({f"layer.{layer}.share": s / task_wall for layer, s in layer_s.items()})
    return {"traced_tasks": traced_tasks, "replay_s": replay_s,
            "trace_consistent": unattributed <= max(overhead, UNATTRIBUTED_LIMIT),
            "per_layer": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_gradion()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir)
    try:
        workload.setup(args.seed, tmpdir)
        ready = time.perf_counter()
        print("READY " + json.dumps({"import_s": import_s,
                                     "setup_in_process_s": ready - STARTED}), flush=True)
        if args.setup_only:
            return 0
        loop = Loop(workload)
        traced = run_traced(loop, args.seconds) if args.trace else None
        if not args.trace:
            run_untraced(loop, args.seconds)
        result = loop.summary()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["meta"] = metadata(args.seed)
        if hasattr(workload, "max_gap"):
            result["max_fidelity_gap"] = workload.max_gap
        if traced is not None:
            result.update(traced)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
