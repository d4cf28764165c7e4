#!/usr/bin/env python3
"""skinfit benchmark: run one workload for a fixed time and print one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload fit-hard --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory; nothing needs to
be installed or built. One process runs a closed loop: each op starts when the
previous one has been checked. With ``--trace 0`` the ops run untouched and the
result carries the end-to-end metrics; with ``--trace 1`` untraced and traced
ops alternate and the result carries the per-layer metrics of the traced ones.
Metric names and units come from BENCHMARK.json. The last line of stdout is
the result object; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("fit-hard", "fit-soft", "playback", "train")

SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; start = time.perf_counter(); import numpy, skinfit; "
                "print(time.perf_counter() - start)")
MIN_TIMED_OPS = 3  # of each kind: untraced, and with --trace 1 traced
HARD_STOP_S = 100.0  # least time after which no op starts, so slow code still ends


def set_blas_threads() -> int:
    """Set BLAS threads to the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_skinfit():
    """Import skinfit from this checkout's src/, never from an installed copy."""
    if not (SRC / "skinfit" / "__init__.py").is_file():
        raise ImportError(f"no skinfit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import skinfit
    if not Path(skinfit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"skinfit resolved to {skinfit.__file__}, not {SRC}")
    return skinfit


def import_seconds() -> float:
    """Time `import numpy, skinfit` in a fresh interpreter, as a user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return "no percentile has ten samples beyond it"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g}"


class Loop:
    """Runs, times and checks ops, keeping every outcome."""

    def __init__(self, workload, tracer, targets):
        self.workload = workload
        self.tracer = tracer
        self.targets = targets
        self.attempted = 0
        self.failures: list[str] = []
        self.times = {"untraced": [], "traced": []}
        self.traced_ids: list[int] = []
        self.errors: list[float] = []
        self.parts: dict[str, list[float]] = {}

    def run(self, kind: str | None) -> None:
        """One op; `kind` None is the warm-up, checked but not timed."""
        op_id = self.attempted
        self.attempted += 1
        traced = kind == "traced"
        install = self.tracer.installed(self.targets) if traced else contextlib.nullcontext()
        record = self.tracer.op(op_id) if traced else contextlib.nullcontext()
        out = None
        with warnings.catch_warnings(record=True) as caught, install:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                with record:
                    out = self.workload.op()
            except Exception:
                traceback.print_exc()
            duration = time.perf_counter() - start
        if traced:
            self.traced_ids.append(op_id)
            found = Counter(type(w.message).__name__ for w in caught)
            for cls, key in tracing.WARNING_COUNTERS.items():
                self.tracer.counters[op_id][key] = found[cls]
        if kind is not None:
            self.times[kind].append(duration)
        try:
            if out is None:
                self.failures.append("op raised")
                return
            self.errors.append(out.error)
            for name, value in out.parts.items():
                self.parts.setdefault(name, []).append(value)
            reason = self.checked(out)
            if reason is not None:
                self.failures.append(reason)
                print(f"op {op_id} failed: {reason}", file=sys.stderr)
        finally:
            for path in self.workload.outputs:
                path.unlink(missing_ok=True)

    def checked(self, out) -> str | None:
        try:
            return self.workload.check(out)
        except Exception as exc:
            traceback.print_exc()
            return f"check raised {exc!r}"

    def measure(self, seconds: float, trace: bool) -> None:
        kinds = ("untraced", "traced") if trace else ("untraced",)
        hard_stop = max(HARD_STOP_S, 3 * seconds)
        begin = time.perf_counter()
        self.run(None)
        deadline = time.perf_counter() + seconds
        for kind in itertools.cycle(kinds):
            self.run(kind)
            now = time.perf_counter()
            enough = all(len(self.times[k]) >= MIN_TIMED_OPS for k in kinds)
            if now >= deadline and enough:
                break
            if now - begin >= hard_stop:
                print(f"perfbench: cut short after {now - begin:.1f} s with fewer than "
                      f"{MIN_TIMED_OPS} timed ops of each kind", file=sys.stderr)
                break


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    return {
        "op_s": statistics.median(loop.times["untraced"]),
        "setup_s": setup_s,
        "error": loop.errors[-1] if loop.errors else 0.0,  # 0.0: every op raised
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop, tracer, span_names) -> tuple[dict[str, float], list[str]]:
    """Median self times over traced ops, plus counters that must repeat exactly."""
    if not loop.traced_ids:
        return {}, ["no traced op ran"]
    times: dict[str, list[float]] = {name: [] for name in span_names}
    exact: list[dict] = []
    unattributed = []
    for op_id in loop.traced_ids:
        seconds, calls, root_duration, root_self = tracer.layer_totals(op_id)
        for name in span_names:
            times[name].append(seconds.get(name, 0.0))
        counts = dict(tracer.counters[op_id])
        counts.update({key: calls.get(span, 0) for key, span in tracing.CALL_COUNTERS.items()})
        exact.append(counts)
        unattributed.append(root_self / root_duration)
    problems = []
    differing = {k for c in exact[1:] for k in set(c) | set(exact[0]) if c.get(k) != exact[0].get(k)}
    if differing:
        problems.append(f"counters differ between traced ops: {sorted(differing)}")
    values = {name: statistics.median(v) for name, v in times.items()}
    values.update(exact[0])
    values["trace_overhead_frac"] = (statistics.median(loop.times["traced"])
                                     / statistics.median(loop.times["untraced"]) - 1.0)
    values["trace_unattributed_frac"] = statistics.median(unattributed)
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = set_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_skinfit()
        import numpy as np
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "numpy": np.__version__, "blas": blas_name(np),
        "blas_threads": nproc, "python": platform.python_version(), "nproc": nproc}}))

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        workload = workloads.WORKLOADS[args.workload]()
        setups = []
        for _ in range(SETUP_REPEATS):
            for path in workdir.iterdir():  # write fresh files, as the ops do
                path.unlink()
            imports = import_seconds()
            begin = time.perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(imports + time.perf_counter() - begin)
        setup_s = statistics.median(setups)

        tracer = tracing.Tracer()
        targets = tracing.layer_targets(sys.modules["skinfit"])
        loop = Loop(workload, tracer, targets)
        loop.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    problems = []
    if len(set(loop.errors)) > 1:
        problems.append(f"op results differ between ops: {sorted(set(loop.errors))}")
    if args.trace:
        span_names = sorted({t[2] for t in targets if t[2]})
        values, more = per_layer(loop, tracer, span_names)
        problems += more
        wanted = spec["per_layer"]
    else:
        values = end_to_end(loop, setup_s)
        wanted = spec["end_to_end"]

    untraced = loop.times["untraced"]
    print(f"{args.workload} seed {args.seed}: op median {statistics.median(untraced):.6g} s, "
          f"{tail(untraced)}, n={len(untraced)}; setup (imports and inputs) "
          f"{', '.join(f'{s:.4g}' for s in setups)} s")
    for name, samples in loop.parts.items():
        print(f"  {name} median {statistics.median(samples):.6g} s, {tail(samples)}, "
              f"n={len(samples)}")
    print(f"  failed_frac {len(loop.failures)}/{loop.attempted}")
    for op_id in loop.traced_ids:  # the spans of each traced op, reduced per layer
        seconds, calls, duration, _ = tracer.layer_totals(op_id)
        print(json.dumps({"op": op_id, "duration_s": duration, "self_s": seconds,
                          "calls": calls, "counters": dict(tracer.counters[op_id])}))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = values.get(name, 0.0)  # a layer the workload never calls
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
        if args.trace:
            print(f"  {name} {value:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not loop.failures and not problems,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
