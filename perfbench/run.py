"""Benchmark of the plantedsub CLI, one workload per run.

    python3 perfbench/run.py --workload mc|exact|crypto --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives ``plantedsub.cli.main(argv)`` in-process in
a closed loop: the next operation starts when the previous one returns.
A run repeats the workload's round of operations (``workloads.py``)
until the operations' busy time reaches ``--seconds``, always ending on
a whole round so every run sees the same mix.  Input files are written
and outputs checked between operations, outside the timed calls.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``.  ``setup_s`` runs from process start to the first
timed operation (imports, input generation and one warm-up round) and
is the median over this process and ``SETUP_SAMPLES - 1`` fresh child
processes that only set up.

The shared host's speed swings by 15-20% from one second to the next,
which moves the program and any other code alike, so every end-to-end
time is given at a reference speed.  The run times a fixed task of its
own (``reference_seconds``, no package code) before the first timed
operation and after each one; an operation's time is scaled by
``REFERENCE_MS`` over the mean of the two samples around it.  The
warm-up round is sampled the same way: set-up time leaves the samples
out, its warm-up operations are scaled like timed ones and the rest of
it by ``REFERENCE_MS`` over the samples' median.  A slower program
moves the scaled times, a slower host moves the program and the task
alike.  The raw times are printed beside the result.

With ``--trace 1`` the package's functions are wrapped in spans
(``tracing.py``) and the run reports the per-layer metrics, not scaled:
span times are seconds per round, counts are those of the first timed
round.  Spans are written as JSON lines under ``.perfbench_traces/``.
A traced run then repeats the same number of rounds untraced, which
gives the tracing overhead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# What one reference task takes, in ms, at the reference speed (about its
# median on the 2-core x86-64 VM the bounds were set on).
REFERENCE_MS = 4.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def reference_seconds() -> float:
    """Wall time of one fixed task of integer, dict, tuple, set and sort work.

    Probed against the workloads' operations round by round, its time
    follows theirs with a correlation of about 0.96 on all three.
    """
    # no collection inside the task, whose cost would follow the program's heap
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(10000):
        total += i * i % 7
        table[i & 255] = total
    rows = [tuple(range(i % 5 + 2)) for i in range(5000)]
    len(set(rows))
    sorted(rows)
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class Runner:
    """Runs a workload's rounds through the CLI and records every operation."""

    def __init__(self, workload: str, seed: int, directory: str, tracer=None):
        from perfbench import workloads

        self.make_round = workloads.WORKLOADS[workload]
        self.inputs = lambda index: workloads.Inputs(directory, seed, index)
        self.tracer = tracer
        self.next_round = 0
        self.ops: dict[int, dict] = {}
        # a list while the run is scaled to the reference speed: the
        # reference samples, one before the first operation and one after each
        self.reference: list[float] | None = None

    def _call(self, argv):
        from plantedsub import cli

        buf = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(buf):
            if self.tracer:
                self.tracer.active = True
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.active = False
        return elapsed, code, error, buf.getvalue()

    def run_round(self, warm_up: bool = False) -> None:
        index = self.next_round
        self.next_round += 1
        ops = self.make_round(self.inputs(index), warm_up)
        stdout = None
        while True:
            try:
                op = ops.send(stdout)
            except StopIteration:
                return
            op_id = len(self.ops)
            if self.tracer:
                self.tracer.op_id = op_id
            elapsed, code, error, stdout = self._call(op.argv)
            if error is None and code != 0:
                error = f"exit code {code}: {stdout.strip()[:200]}"
            if error is None:
                try:
                    op.check(stdout)
                except Exception as exc:  # a failed check fails the operation
                    error = f"check failed: {type(exc).__name__}: {exc}"
            if error:
                print(f"FAILED {op.kind} (round {index}): {error}", file=sys.stderr)
            record = {"round": index, "kind": op.kind, "seconds": elapsed, "error": error}
            if self.reference is not None:
                self.reference.append(reference_seconds())
                record["speed"] = REFERENCE_MS / 1e3 / statistics.mean(self.reference[-2:])
            self.ops[op_id] = record

    def run_for(self, seconds: float) -> list[dict]:
        """Whole rounds until their busy time reaches ``seconds``; their records."""
        records: list[dict] = []
        while not records or sum(r["seconds"] for r in records) < seconds:
            records += self.run_rounds(1)
        return records

    def run_rounds(self, count: int) -> list[dict]:
        first = len(self.ops)
        for _ in range(count):
            self.run_round()
        return [self.ops[i] for i in range(first, len(self.ops))]


def set_up(args, directory: str) -> tuple[Runner, dict]:
    """Import the package, generate and run the warm-up round.

    Returns the runner and the set-up time, raw and at the reference speed.
    """
    from perfbench import tracing

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(args.workload, args.seed, directory, tracer)
    runner.reference = [reference_seconds()]
    runner.run_round(warm_up=True)
    seconds = time.perf_counter() - _START - sum(runner.reference)
    busy = sum(op["seconds"] for op in runner.ops.values())
    scaled = ((seconds - busy) * REFERENCE_MS / 1e3 / statistics.median(runner.reference)
              + sum(op["seconds"] * op["speed"] for op in runner.ops.values()))
    runner.reference = None
    return runner, {"raw": seconds, "scaled": scaled}


def child_setup_seconds(args) -> dict:
    """Set-up time of a fresh process running the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    import plantedsub
    from plantedsub import kernels

    backend = getattr(kernels, "backend_name", None)
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("plantedsub."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and value.__module__ == name:
                    caches[f"{name[len('plantedsub.'):]}.{attr}"] = value.cache_info().currsize
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "plantedsub": plantedsub.__version__,
            "backend": backend() if backend else None, "cache_sizes": caches}


def end_to_end(records: list[dict], setup_s: float, scaled: bool) -> tuple[dict, dict]:
    """End-to-end metrics, at the reference speed if ``scaled``, else raw."""
    latencies = sorted(r["seconds"] * (r["speed"] if scaled else 1.0) for r in records)
    n = len(latencies)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail_index] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": sum(r["error"] is None for r in records) / n,
    }
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n,
            "beyond": n - 1 - tail_index}
    return values, tail


def per_layer(runner: Runner, timed: list[dict], untraced: list[dict], rounds: int) -> dict:
    from perfbench import tracing

    tracer = runner.tracer
    first_round = timed[0]["round"]
    counts: dict[str, float] = {}
    for op_id, op in runner.ops.items():
        if op["round"] == first_round:
            for name, value in tracer.counts.get(op_id, {}).items():
                tracing.merge(counts, name, value)
    states = counts.get("models.exact_pmf.states")
    if states:
        counts["models.exact_pmf.support_ratio"] = counts["models.exact_pmf.support"] / states
    traced_rate = len(timed) / sum(r["seconds"] for r in timed)
    counts["bench.traced_throughput_ops_s"] = traced_rate
    counts["bench.trace_overhead_ratio"] = (
        len(untraced) / sum(r["seconds"] for r in untraced)) / traced_rate
    total, own = tracer.span_times()
    values = dict(counts)
    for name, seconds in total.items():
        values[name + ".s"] = seconds / rounds
    for name, seconds in own.items():
        values[name + ".self_s"] = seconds / rounds
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "plantedsub" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'plantedsub'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        runner, setup = set_up(args, directory)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            runner.tracer.install()
            try:
                timed = runner.run_for(args.seconds)
            finally:
                runner.tracer.uninstall()
            rounds = len({r["round"] for r in timed})
            untraced = runner.run_rounds(rounds)
            values = per_layer(runner, timed, untraced, rounds)
            metric_spec = spec["per_layer"]
        else:
            samples = [setup] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
            runner.reference = [reference_seconds()]
            timed = runner.run_for(args.seconds)
            values, tail = end_to_end(
                timed, statistics.median(s["scaled"] for s in samples), scaled=True)
            raw, _ = end_to_end(
                timed, statistics.median(s["raw"] for s in samples), scaled=False)
            print(f"latency_tail_ms is p{tail['percentile']:.2f} of {tail['samples']} ops "
                  f"({tail['beyond']} beyond it); setup samples {samples}")
            print(f"reference task median {statistics.median(runner.reference) * 1e3:.4f} ms "
                  f"over {len(runner.reference)} samples; raw times: "
                  + ", ".join(f"{k} = {raw[k]!r}" for k in
                              ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
                               "setup_s")))
            metric_spec = spec["end_to_end"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    env = environment()
    print(json.dumps({"env": env}))
    if args.trace:
        trace_dir = ROOT / ".perfbench_traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        runner.tracer.write_jsonl(str(path), {"workload": args.workload, "seed": args.seed,
                                              "env": env}, runner.ops)
        print(f"spans written to {path.relative_to(ROOT)}")
    metrics = {}
    for m in metric_spec:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value!r} {m['unit']}")
    all_ops = list(runner.ops.values())
    failed = sum(r["error"] is not None for r in timed)
    print(json.dumps({
        "correct": all(r["error"] is None for r in all_ops),
        "attempted": len(timed),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
