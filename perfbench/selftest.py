#!/usr/bin/env python3
"""Self-tests of the benchmark (not of skinfit). Run from the repository root:

    python3 perfbench/selftest.py

They check that a model with one transform scaled counts as a failed op, on a
fit and on the playback workload; that traced spans nest, children never take
longer than their parent and exact counters repeat between traced ops; and
that each workload's inputs repeat for a seed and change with it. Exit status
is 0 when all pass.
"""
from __future__ import annotations

import contextlib
import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer as tracing

run.set_blas_threads()
skinfit = run.import_skinfit()

import workloads  # noqa: E402  (imports skinfit, so after its path is set)
from skinfit import anim  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


@contextlib.contextmanager
def scratch_dir():
    run.WORKDIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORKDIR)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORKDIR.rmdir()


def scaled_first_transform(model):
    t = model.transforms.transforms.copy()
    t[0, 0] *= 1.5
    return anim.SkinningModel(model.rest_pose, model.weights, anim.BoneTransformSet(t), model.faces)


@contextlib.contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def new_loop(workload, tracer=None, targets=()):
    return run.Loop(workload, tracer or tracing.Tracer(), list(targets))


def test_corrupted_model_fails_the_op():
    with scratch_dir() as tmp:
        fit = workloads.WORKLOADS["fit-hard"]()
        fit.setup(1, tmp)
        alternate = skinfit.pipeline.alternate
        loop = new_loop(fit)
        with patched(skinfit.pipeline, "alternate",
                     lambda *a, **k: (lambda m, t: (scaled_first_transform(m), t))(*alternate(*a, **k))):
            loop.run("untraced")
        loop.run("untraced")
        expect(loop.attempted == 2 and len(loop.failures) == 1, f"fit failures: {loop.failures}")
        expect("objective" in loop.failures[0], loop.failures[0])

        playback = workloads.WORKLOADS["playback"]()
        playback.setup(1, tmp)
        decode = skinfit.codec.decode
        loop = new_loop(playback)
        with patched(skinfit.codec, "decode", lambda data: scaled_first_transform(decode(data))):
            loop.run("untraced")
        loop.run("untraced")
        expect(loop.attempted == 2 and len(loop.failures) == 1, f"playback failures: {loop.failures}")


def test_spans_nest_and_counters_repeat():
    with scratch_dir() as tmp:
        fit = workloads.WORKLOADS["fit-soft"]()
        fit.setup(1, tmp)
        tracer = tracing.Tracer()
        targets = tracing.layer_targets(skinfit)
        loop = new_loop(fit, tracer, targets)
        for kind in ("untraced", "traced", "traced"):
            loop.run(kind)
    expect(skinfit.fitting.solve_transforms.__name__ == "solve_transforms"
           and not hasattr(skinfit.pipeline.alternate, "__wrapped__"), "wrappers left installed")
    for op_id in loop.traced_ids:
        spans = dict(tracer.op_spans(op_id))
        children: dict[int, float] = {}
        for i, s in spans.items():
            expect(s.start <= s.end, f"span {s.name} ends before it starts")
            if s.parent < 0:
                expect(s.name == tracing.ROOT_SPAN, f"{s.name} has no parent")
                continue
            parent = spans[s.parent]
            expect(parent.op == s.op, f"{s.name} and its parent belong to different ops")
            expect(parent.start <= s.start and s.end <= parent.end,
                   f"{s.name} is not inside {parent.name}")
            children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
        for i, total in children.items():
            duration = spans[i].end - spans[i].start
            expect(total <= duration, f"children of {spans[i].name} take {total} > {duration}")
        seconds, calls, root_duration, root_self = tracer.layer_totals(op_id)
        expect(abs(sum(seconds.values()) + root_self - root_duration) < 1e-9 * max(1.0, root_duration),
               "self times do not add up to the op")
        for name in ("fitting.tf_s", "fitting.wf_s", "fitting.record_s", "bones.extract_s",
                     "metrics.evaluate_s", "codec.encode_s", "formats.read_anim_s"):
            expect(calls.get(name, 0) >= 1, f"no {name} span")
    values, problems = run.per_layer(loop, tracer, sorted({t[2] for t in targets if t[2]}))
    expect(not problems, f"{problems}")
    expect(values["fitting.tf_calls"] == 6 and values["fitting.cg_iterations"] > 0,
           f"counters: {values}")


def test_inputs_follow_the_seed():
    for name, make in workloads.WORKLOADS.items():
        digests = []
        for seed in (1, 1, 2):
            with scratch_dir() as tmp:
                workload = make()
                workload.setup(seed, tmp)
                digests.append(workload.inputs_digest())
        expect(digests[0] == digests[1], f"{name}: seed 1 inputs differ between setups")
        expect(digests[0] != digests[2], f"{name}: seeds 1 and 2 give the same inputs")


def main() -> int:
    failed = 0
    for test in (test_corrupted_model_fails_the_op, test_spans_nest_and_counters_repeat,
                 test_inputs_follow_the_seed):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
