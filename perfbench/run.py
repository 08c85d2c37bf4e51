"""gradion benchmark: one seeded workload per invocation, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md): table-sweep,
lab-cnot, teleport-scheduled, teleport-integrated. Each runs in one fresh
worker process with a closed loop of one task at a time. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same workload with
every layer wrapped in spans and reports the per-layer metrics. Set-up is
sampled seven times in fresh interpreters and the median reported, each
sample normalized to the nominal host speed by a reference interpreter
start-up timed on either side of it.

Human-readable detail goes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 when the run completed (even if an output check failed, which shows as
``"correct": false``) and non-zero, with no result line, when it could not
run, for instance when the checkout holds no gradion sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fresh-interpreter set-ups per run: probes before the measured run, the
# measured run itself, and probes after it, so that a slow spell of the host
# cannot take all of them.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
# Set-up samples are normalized by a reference start-up timed on either side
# of each: an interpreter that only imports numpy, the bulk of gradion's own
# start-up, so a host slowed by other tenants slows both alike.
# NOMINAL_REFERENCE_S is its time on an otherwise idle 2-core Xeon VM at 2.0 GHz.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy"]
NOMINAL_REFERENCE_S = 0.12


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Worker:
    """A worker.py process; times the interval from spawn to its READY line."""

    def __init__(self, args, deadline: float, setup_only: bool):
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            argv.append("--setup-only")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        self.setup_s = None
        self.ready: dict = {}
        self.result: dict | None = None

    def finish(self) -> int:
        """Read the worker's protocol lines, wait for it, return its exit code."""
        try:
            for line in self.proc.stdout:
                if line.startswith("READY "):
                    self.setup_s = time.perf_counter() - self.started
                    self.ready = json.loads(line[6:])
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[7:])
                else:
                    sys.stdout.write(line)
            return self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def time_reference() -> float:
    t0 = time.perf_counter()
    subprocess.run(REFERENCE_ARGV, check=True)
    return time.perf_counter() - t0


def end_to_end(result: dict, setup_s: float) -> dict:
    return {"setup_s": setup_s, "norm_tasks_per_s": result["norm_tasks_per_s"],
            "peak_rss_mb": result["peak_rss_mb"]}


def print_detail(args, result: dict, setups: list, normalized: list, imports: list) -> None:
    detail = {k: v for k, v in result.items() if k not in ("per_layer", "meta")}
    detail.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  setup_samples_s=setups, normalized_setup_samples_s=normalized,
                  import_samples_s=imports)
    print(f"# gradion benchmark: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        print("# per-layer (self time and counts per task; counts over the first "
              f"{result['digest_tasks']} tasks)")
        for name, value in sorted(result["per_layer"].items()):
            print(f"#   {name:48s} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gradion", "__init__.py")):
        print(f"error: no gradion sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups, normalized, imports = [], [], []
    result = None
    measured_run = SETUP_PROBES_BEFORE
    reference_s = time_reference()
    for sample in range(SETUP_PROBES_BEFORE + 1 + SETUP_PROBES_AFTER):
        worker = Worker(args, deadline, setup_only=sample != measured_run)
        code = worker.finish()
        if code != 0 or worker.setup_s is None:
            print(f"error: worker exited with code {code}", file=sys.stderr)
            return 1
        after = time_reference()
        setups.append(worker.setup_s)
        normalized.append(worker.setup_s * NOMINAL_REFERENCE_S / (0.5 * (reference_s + after)))
        imports.append(worker.ready["import_s"])
        reference_s = after
        if sample == measured_run:
            result = worker.result
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
    except OSError:
        pass
    if result is None:
        print("error: worker printed no result", file=sys.stderr)
        return 1

    setup_s = statistics.median(normalized)
    if args.trace:
        measured = dict(result["per_layer"], **{"setup.import_s": statistics.median(imports)})
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(result, setup_s)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print_detail(args, result, setups, normalized, imports)
    correct = result["failed"] == 0 and result.get("trace_consistent", True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
