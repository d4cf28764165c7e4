"""Spans and exact counters recorded around calls into skinfit's public functions.

The tracer swaps a function for a recording wrapper at every attribute of every
loaded ``skinfit`` module that is bound to it. That covers the benchmark's own
calls and the library's internal ones alike: ``solve_transforms`` is looked up
as ``skinfit.fitting.solve_transforms`` inside ``alternate``, ``lbs_sequence``
as ``skinfit.fitting.lbs_sequence`` there and as ``skinfit.pipeline.lbs_sequence``
in ``decompose``. The library source is never modified, and every binding is
restored when tracing ends.

Each op opens a root span with its own op id. A wrapped call records a span
(name, start, end, parent, op id) in memory; spans are reduced to self times
only after the op ends. A span's self time is its duration minus the time its
children cover, so the self times of one op add up to the op's duration.
"""
from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for an op's root span
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; wrapped calls inside it belong to `op_id`."""
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        self.counters[op_id] = Counter()
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    # Hooks run only inside an op, so the current op's counters exist.
    def add(self, key: str, amount: float = 1) -> None:
        self.counters[self._op][key] += amount

    def put(self, key: str, value: float) -> None:
        self.counters[self._op][key] = value

    def _wrap(self, fn, span_name, on_return):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(span_name) if span_name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    self._close(index)
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap each (module, attribute, span name or None, hook or None) target
        at all of its bindings in loaded skinfit modules. A target missing from
        the library is skipped, so the benchmark runs on code that has removed it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "skinfit" or name.startswith("skinfit."))]
        patched = []
        try:
            for module, attr, span_name, on_return in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(fn, span_name, on_return)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                            patched.append((m, key, fn))
            yield
        finally:
            for m, key, fn in reversed(patched):
                setattr(m, key, fn)

    # -- reduction -------------------------------------------------------

    def op_spans(self, op_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op_id]

    def self_times(self, op_id: int) -> dict[int, float]:
        """Self time of every span of one op, keyed by span index."""
        spans = self.op_spans(op_id)
        child = Counter()
        for _, s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return {i: (s.end - s.start) - child[i] for i, s in spans}

    def layer_totals(self, op_id: int) -> tuple[dict[str, float], dict[str, int], float, float]:
        """Per span name: summed self time and call count; plus the root span's
        duration and its self time (time in no wrapped call)."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        own = self.self_times(op_id)
        root_duration = root_self = 0.0
        for i, s in self.op_spans(op_id):
            if s.name == ROOT_SPAN:
                root_duration, root_self = s.end - s.start, own[i]
                continue
            seconds[s.name] += own[i]
            calls[s.name] += 1
        return dict(seconds), dict(calls), root_duration, root_self


# -- what is traced ---------------------------------------------------------

def _anim_file(tracer, result, args, kwargs):
    # read_anim(path) and write_anim(path, seq): the file is there after either.
    tracer.add("formats.anim_mb", os.path.getsize(args[0]) / 1e6)


def _support(tracer, result, args, kwargs):
    weights, bone_count = result
    tracer.put("bones.candidates_mean", float((weights.bone_ids >= 0).sum(axis=1).mean()))
    tracer.put("bones.active_bones", int(bone_count))


def _half_steps(tracer, result, args, kwargs):
    # The first TF is useful by definition: before it there is no model at all.
    objectives = [float("inf")] + [s.objective for s in result[1].steps]
    useful = sum(after < before for before, after in zip(objectives, objectives[1:]))
    tracer.put("fitting.useful_halfstep_frac", useful / (len(objectives) - 1))
    tracer.put("fitting.objective_final", objectives[-1])


def _cg(tracer, result, args, kwargs):
    tracer.add("fitting.cg_iterations", int(result.iterations))


def _nnls(tracer, result, args, kwargs):
    tracer.add("fitting.nnls_calls")


def _report(tracer, result, args, kwargs):
    for field in ("disper", "erms", "max_avg_dist", "norm_distort", "crp"):
        tracer.put(f"metrics.{field}", float(getattr(result, field)))


def _encoded(tracer, result, args, kwargs):
    tracer.add("codec.sknd_bytes", len(result))


def _decoded(tracer, result, args, kwargs):
    tracer.add("codec.sknd_bytes", len(args[0]))


def layer_targets(sf):
    """The calls the traced run records, one span name per layer metric."""
    return [
        (sf.formats, "read_anim", "formats.read_anim_s", _anim_file),
        (sf.formats, "write_anim", "formats.write_anim_s", _anim_file),
        (sf.formats, "atomic_write_bytes", "formats.write_sknd_s", None),
        (sf.anim, "lbs_sequence", "anim.lbs_s", None),
        (sf.cluster, "cluster_trajectories", "cluster.kmeans_s", None),
        (sf.cnn, "forward_cached", "cnn.forward_s", None),
        (sf.cnn, "backward_from_cache", "cnn.backward_s", None),
        (sf.training, "train", "training.update_s", None),
        (sf.bones, "extract_weights", "bones.extract_s", _support),
        (sf.fitting, "alternate", "fitting.record_s", _half_steps),
        (sf.fitting, "solve_transforms", "fitting.tf_s", None),
        (sf.fitting, "solve_weights", "fitting.wf_s", None),
        (sf.fitting, "cgls", None, _cg),
        (sf.fitting, "nnls", None, _nnls),
        (sf.metrics, "evaluate", "metrics.evaluate_s", _report),
        (sf.metrics, "norm_distort", "metrics.norm_distort_s", None),
        (sf.codec, "encode", "codec.encode_s", _encoded),
        (sf.codec, "decode", "codec.decode_s", _decoded),
        (sf.pipeline, "decompose", "pipeline.self_s", None),
    ]


WARNING_COUNTERS = {
    "RankDeficiencyWarning": "fitting.warnings.rank_deficiency",
    "ConvergenceWarning": "fitting.warnings.convergence",
    "DegenerateVertexWarning": "fitting.warnings.degenerate_vertex",
}

# Call counts derived from span counts.
CALL_COUNTERS = {
    "fitting.tf_calls": "fitting.tf_s",
    "fitting.wf_calls": "fitting.wf_s",
    "anim.lbs_calls": "anim.lbs_s",
}
