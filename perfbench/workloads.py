"""The benchmark's workloads: input generation, one op, and the op's output check.

Every workload makes its inputs from the seed alone and hands the library only
those inputs. The fit and playback workloads fit or play back one fixed motion
(``make_synthetic_rig`` with seed 0) placed in space by a rotation drawn from
the workload seed; their soft probabilities and spread weights are fixed too.
Fit quality over a single rig varies by about +-40% across rig seeds, far more
than any regression bound, while a rotation leaves every error measure and
solver count unchanged and still changes every input number. The train corpus
averages over eight rigs, so its rigs come straight from the seed.

Each op writes fresh output files, and the loop deletes them after the check.
Replacing a file instead makes the write wait for the disk on ext4, which on
a rate-limited VM disk adds a wait that varies from run to run.

All library calls go through module attributes (``formats.read_anim``, not a
name imported into this file), so the tracer's wrappers see them.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from skinfit import anim, bones, cluster, cnn, codec, fitting, formats, metrics, pipeline, training

EPSILON = 1e-3
ROUNDS = 5
OBJECTIVE_RISE = 1e-8  # criterion 4: after <= before * (1 + 1e-8) + 1e-18
OBJECTIVE_FLOOR = 1e-18
AGREE = 1e-9  # relative agreement between the library and this file's own oracles
QUANTIZED = 1e-5  # relative agreement through the .sknd's float32 storage


def rotation(seed: int) -> np.ndarray:
    """A 3x3 rotation from a uniformly drawn unit quaternion."""
    w, x, y, z = (q := np.random.default_rng(seed).normal(size=4)) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def rotated_sequence(seq: anim.AnimSequence, r: np.ndarray) -> anim.AnimSequence:
    return anim.AnimSequence(seq.positions @ r.T, seq.faces, seq.rest_pose @ r.T)


def lbs_oracle(model: anim.SkinningModel) -> np.ndarray:
    """(P, N, 3) linear-blend skinning written out directly, independent of
    ``anim.lbs_sequence``."""
    rest1 = np.concatenate([model.rest_pose, np.ones((model.vertex_count, 1))], axis=1)
    ids = model.weights.bone_ids
    out = np.zeros((model.frame_count, model.vertex_count, 3))
    for slot in range(ids.shape[1]):
        used = ids[:, slot] >= 0
        t = model.transforms.transforms[:, ids[used, slot]]  # (P, n, 3, 4)
        out[:, used] += model.weights.weights[used, slot, None] * np.einsum(
            "pnck,nk->pnc", t, rest1[used])
    return out


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@dataclass
class Output:
    error: float  # the workload's end-to-end quality figure
    parts: dict[str, float] = field(default_factory=dict)  # sub-op wall times
    data: object = None  # what check() inspects


class FitWorkload:
    """Read the .anim, initialize, decompose, encode and write the .sknd."""

    def __init__(self, bone_count: int, per_segment: int, frames: int, init: str):
        self.shape = (bone_count, per_segment, frames)
        self.init = init  # "kmeans" (k = bone count) or "soft" (noisy ground truth)

    def setup(self, seed: int, workdir: Path) -> None:
        self.anim_path = workdir / "input.anim"
        self.sknd_path = workdir / "fit.sknd"
        self.outputs = [self.sknd_path]
        seq, weights, _ = anim.make_synthetic_rig(*self.shape, seed=0)
        self.seq = rotated_sequence(seq, rotation(seed))
        formats.write_anim(self.anim_path, self.seq)
        self.probabilities = None
        if self.init == "soft":
            # Criterion 4's recipe: ground truth plus U(0, 0.35), clipped to [0, 1].
            dense = weights.to_dense(self.shape[0])
            noise = np.random.default_rng(0).uniform(0.0, 0.35, size=dense.shape)
            self.probabilities = np.clip(dense + noise, 0.0, 1.0)

    def inputs_digest(self) -> str:
        extra = () if self.probabilities is None else (self.probabilities,)
        return digest(self.anim_path.read_bytes(), *extra)

    def op(self) -> Output:
        seq = formats.read_anim(self.anim_path)
        if self.init == "kmeans":
            probabilities = cluster.cluster_trajectories(seq, self.shape[0], seed=0).astype(float)
        else:
            probabilities = self.probabilities
        result = pipeline.decompose(
            seq, probabilities, EPSILON, fitting.SolverConfig(alternation_iterations=ROUNDS))
        data = codec.encode(result.model)
        formats.atomic_write_bytes(self.sknd_path, data)
        return Output(float(result.report.erms), data=(result, data))

    def check(self, out: Output) -> str | None:
        result, data = out.data
        objectives = [s.objective for s in result.trace.steps]
        for k, (before, after) in enumerate(zip(objectives, objectives[1:]), start=1):
            if after > before * (1.0 + OBJECTIVE_RISE) + OBJECTIVE_FLOOR:
                return f"objective rose at half-step {k}: {before!r} -> {after!r}"
        residual = lbs_oracle(result.model) - self.seq.positions
        objective = float(np.sum(residual ** 2))
        if not math.isclose(objective, objectives[-1], rel_tol=AGREE, abs_tol=OBJECTIVE_FLOOR):
            return f"model's objective {objective!r} is not the traced {objectives[-1]!r}"
        if codec.encode(codec.decode(data)) != data:
            return "encode -> decode -> encode is not byte-identical"
        if self.sknd_path.read_bytes() != data:
            return "written .sknd differs from the encoded bytes"
        return None


def spread_weights(x: np.ndarray, truth: anim.WeightMap, bone_count: int) -> anim.WeightMap:
    """Ground-truth weights spread over the six bones nearest each vertex along
    the chain (bone j spans x in [j, j+1]), so every vertex fills all six slots."""
    centers = np.arange(bone_count) + 0.5
    distance = np.abs(x[:, None] - centers[None, :])
    ids = np.argsort(distance, axis=1, kind="stable")[:, :anim.MAX_INFLUENCES]
    near = np.take_along_axis(distance, ids, axis=1)
    w = np.take_along_axis(truth.to_dense(bone_count), ids, axis=1) + 0.02 * np.exp(-near ** 2)
    return anim.WeightMap(ids, w / w.sum(axis=1, keepdims=True))


class PlaybackWorkload:
    """Paper-size playback: `reconstruct` then `evaluate`, no solver."""

    SHAPE = (26, 324, 48)

    def setup(self, seed: int, workdir: Path) -> None:
        self.orig_path = workdir / "orig.anim"
        self.sknd_path = workdir / "model.sknd"
        self.out_path = workdir / "reconstructed.anim"
        self.outputs = [self.out_path]
        seq, truth, transforms = anim.make_synthetic_rig(*self.SHAPE, seed=0)
        r = rotation(seed)
        t = transforms.transforms
        # Conjugate every transform by r, so the model plays back the rotated motion.
        rotated = np.concatenate([r @ t[..., :3] @ r.T, (t[..., 3] @ r.T)[..., None]], axis=-1)
        model = anim.SkinningModel(seq.rest_pose @ r.T,
                                   spread_weights(seq.rest_pose[:, 0], truth, self.SHAPE[0]),
                                   anim.BoneTransformSet(rotated), seq.faces)
        self.seq = rotated_sequence(seq, r)
        self.model = model
        self.expected = None  # the oracle's playback, made on the first check
        formats.write_anim(self.orig_path, self.seq)
        formats.atomic_write_bytes(self.sknd_path, codec.encode(model))

    def inputs_digest(self) -> str:
        return digest(self.orig_path.read_bytes(), self.sknd_path.read_bytes())

    def op(self) -> Output:
        start = time.perf_counter()
        model = codec.decode(self.sknd_path.read_bytes())
        played = anim.lbs_sequence(model)
        formats.write_anim(self.out_path, played)
        middle = time.perf_counter()
        orig = formats.read_anim(self.orig_path)
        model = codec.decode(self.sknd_path.read_bytes())
        report = metrics.evaluate(orig, anim.lbs_sequence(model), bone_count=model.bone_count)
        end = time.perf_counter()
        return Output(float(report.erms),
                      parts={"reconstruct_s": middle - start, "evaluate_s": end - middle},
                      data=(played, report))

    def check(self, out: Output) -> str | None:
        played, report = out.data
        back = formats.read_anim(self.out_path)
        if not (np.array_equal(back.positions, played.positions)
                and np.array_equal(back.rest_pose, played.rest_pose)
                and np.array_equal(back.faces, played.faces)):
            return "re-read .anim differs from the lbs_sequence output"
        if self.expected is None:
            self.expected = lbs_oracle(self.model)
        scale = float(np.abs(self.expected).max())
        if float(np.abs(played.positions - self.expected).max()) > QUANTIZED * scale:
            return "playback differs from the skinning sum of the encoded model"
        diff = np.linalg.norm(self.seq.positions - played.positions)
        erms = 100.0 * diff / math.sqrt(played.positions.size)
        spread = np.linalg.norm(self.seq.positions - self.seq.positions.mean(axis=0))
        disper = 100.0 * diff / spread
        if not (math.isclose(report.erms, erms, rel_tol=AGREE)
                and math.isclose(report.disper, disper, rel_tol=AGREE)):
            return f"evaluate reports ERMS {report.erms!r}, DisPer {report.disper!r}; " \
                   f"expected {erms!r}, {disper!r}"
        return None


class TrainWorkload:
    """Train the trajectory classifier, then run the `cnn:` init path on a
    held-out rig: forward, then weight extraction."""

    RIGS = 8
    SHAPE = (8, 100, 30)
    B_MAX = 32
    CONFIG = dict(learning_rate=1e-3, batch_size=256, epochs=20, seed=0)  # CLI defaults

    outputs: list[Path] = []

    def setup(self, seed: int, workdir: Path) -> None:
        inputs, labels = [], []
        for i in range(self.RIGS):
            seq, weights, _ = anim.make_synthetic_rig(*self.SHAPE, seed=seed * (self.RIGS + 1) + i)
            padded = np.zeros((seq.vertex_count, self.B_MAX))
            padded[:, :self.SHAPE[0]] = weights.to_dense(self.SHAPE[0]) > 0.0
            inputs.append(anim.trajectories(seq))
            labels.append(padded)
        self.inputs = np.vstack(inputs)
        self.labels = np.vstack(labels)
        self.held_out, _, _ = anim.make_synthetic_rig(
            *self.SHAPE, seed=seed * (self.RIGS + 1) + self.RIGS)

    def inputs_digest(self) -> str:
        return digest(self.inputs, self.labels, self.held_out.positions)

    def op(self) -> Output:
        model, history = training.train(self.inputs, self.labels,
                                        training.TrainConfig(**self.CONFIG))
        probabilities = cnn.forward(model, anim.trajectories(self.held_out))
        weights, bone_count = bones.extract_weights(probabilities, EPSILON)
        return Output(float(history[-1].loss), data=(history, weights, bone_count))

    def check(self, out: Output) -> str | None:
        history, weights, bone_count = out.data
        losses = [s.loss for s in history]
        if not all(math.isfinite(v) for v in losses):
            return f"non-finite epoch loss in {losses}"
        if not losses[-1] < losses[0]:
            return f"final loss {losses[-1]!r} is not below the first {losses[0]!r}"
        if weights.vertex_count != self.held_out.vertex_count or bone_count < 1:
            return "extracted weights do not cover the held-out rig"
        return None


WORKLOADS = {
    "fit-hard": lambda: FitWorkload(8, 100, 30, "kmeans"),
    "fit-soft": lambda: FitWorkload(6, 150, 10, "soft"),
    "playback": PlaybackWorkload,
    "train": TrainWorkload,
}
