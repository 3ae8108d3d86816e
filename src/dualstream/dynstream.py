"""Dynamic stream: the object query set with motion-compensated temporal
propagation, top-k memory as an index select, and the object self- and
object-to-image attention blocks.

Anchors used for projection geometry and positional encodings are detached
values; gradients reach the learned spawn anchors through the box-decode
residual path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diffcore import (
    AttentionParams,
    FeatureMap,
    MlpParams,
    NumericError,
    Tensor,
    layernorm,
    linear,
    mlp,
    multi_head_attention,
    sigmoid,
    sincos_encoding,
)
from .diffcore.tensor import add, concat, getitem, mul, take_rows
from .geom3d import Pose, rot2
from .statstream import CameraReadParams, CameraReads, camera_read


@dataclass
class QuerySet:
    """Object queries as one struct of arrays, one row per hypothesized agent.

    ``ids`` holds carried track identities, -1 where a query has none.
    """

    latents: Tensor          # (n, L)
    anchors: Tensor          # (n, 3) m, current ego frame
    velocities: np.ndarray   # (n, 2) m/s, current ego frame
    scores: np.ndarray       # (n,)
    ids: np.ndarray          # (n,) int

    def __post_init__(self):
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        n = len(self)
        if (self.anchors.data.shape != (n, 3) or self.velocities.shape != (n, 2)
                or self.scores.shape != (n,) or self.ids.shape != (n,)):
            raise ValueError("query fields must all hold one row per query")
        if not np.all(np.isfinite(self.anchors.data)):
            raise NumericError("query anchors must be finite")
        if np.any(np.isnan(self.scores)):
            raise NumericError("query scores must lie in [0, 1], not NaN")
        if not np.all((self.scores >= 0.0) & (self.scores <= 1.0)):
            raise ValueError("query scores must lie in [0, 1]")

    def __len__(self) -> int:
        return self.latents.data.shape[0]

    @property
    def anchor_xyz(self) -> np.ndarray:
        return np.asarray(self.anchors.data, dtype=np.float64)

    @staticmethod
    def empty(latent_dim: int, dtype) -> "QuerySet":
        """No queries, with latents and anchors in the model ``dtype``."""
        return QuerySet(latents=Tensor(np.zeros((0, latent_dim), dtype)), anchors=Tensor(np.zeros((0, 3), dtype)),
                        velocities=np.zeros((0, 2)), scores=np.zeros(0), ids=np.zeros(0))

    def take(self, idx: np.ndarray) -> "QuerySet":
        """Rows ``idx`` in that order, as one index select per field."""
        return QuerySet(latents=take_rows(self.latents, idx), anchors=take_rows(self.anchors, idx),
                        velocities=self.velocities[idx], scores=self.scores[idx], ids=self.ids[idx])

    def detached(self) -> "QuerySet":
        """The same rows with the gradient history of latents and anchors cut."""
        return replace(self, latents=self.latents.detach(), anchors=self.anchors.detach())

    def __add__(self, other: "QuerySet") -> "QuerySet":
        """Rows of ``self`` followed by the rows of ``other``."""
        if not len(other):
            return self
        if not len(self):
            return other
        return QuerySet(latents=concat([self.latents, other.latents]),
                        anchors=concat([self.anchors, other.anchors]),
                        velocities=np.concatenate([self.velocities, other.velocities]),
                        scores=np.concatenate([self.scores, other.scores]),
                        ids=np.concatenate([self.ids, other.ids]))


@dataclass
class SpawnParams:
    embeddings: Tensor     # (N_max, L) learned latents
    anchor_logits: Tensor  # (N_max, 3), sigmoid-mapped into the detection range


def spawn_queries(n_new: int, params: SpawnParams, ranges: np.ndarray) -> QuerySet:
    """First ``n_new`` learned queries; anchors sigmoid-mapped into ``ranges``.

    ``ranges`` is (2, 3): row 0 the per-axis minima, row 1 the maxima.
    Deterministic: repeated calls return the same learned values.
    """
    if n_new < 0:
        raise ValueError("n_new must be >= 0")
    if n_new > params.embeddings.data.shape[0]:
        raise ValueError("n_new exceeds the learned spawn pool")
    lo, hi = np.asarray(ranges[0], dtype=np.float64), np.asarray(ranges[1], dtype=np.float64)
    rows = slice(0, n_new)
    anchors = add(mul(sigmoid(getitem(params.anchor_logits, rows)), (hi - lo)), lo)
    return QuerySet(latents=getitem(params.embeddings, rows), anchors=anchors,
                    velocities=np.zeros((n_new, 2)), scores=np.zeros(n_new), ids=np.full(n_new, -1))


@dataclass
class MotionParams:
    """Residual MLP conditioning the latent on the ego motion and dt."""

    mlp: MlpParams


def _flatten_se2(delta: Pose) -> np.ndarray:
    c, s = np.cos(delta.rotation), np.sin(delta.rotation)
    tx, ty = delta.translation
    return np.array([c, -s, tx, s, c, ty], dtype=np.float64)


def propagate(
    memory: QuerySet,
    delta: Pose,
    dt: float,
    params: MotionParams,
    compensate_object_motion: bool = True,
) -> QuerySet:
    """Carry memory queries one step forward.

    Geometric part: a constant-velocity step in the old frame (object
    motion), then re-expression of anchor and velocity in the new ego frame
    (ego motion). Learned part: a residual MLP on the latent conditioned on
    the flattened SE(2) ego delta and dt.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if not len(memory):
        return memory
    anchors = memory.anchor_xyz
    vels = memory.velocities
    if compensate_object_motion:
        anchors = anchors.copy()
        anchors[:, :2] += vels * dt
    new_anchors = delta.apply_points(anchors)
    new_vels = vels @ rot2(delta.rotation).T

    latents = memory.latents
    cond = np.tile(np.concatenate([_flatten_se2(delta), [dt]]), (len(memory), 1))
    feats = concat([latents, Tensor(cond.astype(latents.dtype))], axis=1)
    new_latents = add(latents, mlp(feats, params.mlp))
    return replace(memory, latents=new_latents, anchors=Tensor(new_anchors.astype(latents.dtype)),
                   velocities=new_vels)


def select_topk(queries: QuerySet, k: int) -> tuple[QuerySet, np.ndarray]:
    """The k highest-score queries, score-descending (ties keep the lower
    index), and the source row of each."""
    if k < 0:
        raise ValueError("k must be >= 0")
    order = np.lexsort((np.arange(len(queries)), -queries.scores))[:k]
    return queries.take(order), order


def normalize_anchors(anchors: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    lo, hi = np.asarray(ranges[0]), np.asarray(ranges[1])
    return (anchors - lo) / (hi - lo)


@dataclass
class SetAttnParams:
    """Multi-head attention over the object latents as a key set, keyed with
    their anchor encodings and normalised: object self-attention and
    static-to-dynamic attention."""

    heads: int
    attn: AttentionParams
    pe_w: Tensor
    pe_b: Tensor
    ln_g: Tensor
    ln_b: Tensor


def anchor_keys(latents: Tensor, anchors: np.ndarray, params: SetAttnParams, ranges: np.ndarray) -> Tensor:
    """The (n, L) latents plus their anchors' projected sincos encodings,
    whose width is ``pe_w``'s row count (3 coordinates x 2 x n_freqs)."""
    enc = sincos_encoding(normalize_anchors(anchors, ranges), params.pe_w.data.shape[0] // 6)
    return add(latents, linear(Tensor(enc.astype(latents.dtype)), params.pe_w, params.pe_b))


def _obj_self_attention(latents: Tensor, anchors: np.ndarray, params: SetAttnParams, ranges: np.ndarray) -> Tensor:
    """Self-attention over the (n, L) query latents with anchor encodings on
    q/k. Returns the updated (n, L) latent matrix."""
    qk = anchor_keys(latents, anchors, params, ranges)
    attn_out = multi_head_attention(qk, qk, latents, params.heads, params.attn)
    return layernorm(add(latents, attn_out), params.ln_g, params.ln_b)


def _obj_image_cross_attention(latents: Tensor, reads: CameraReads, features: FeatureMap,
                               params: CameraReadParams) -> Tensor:
    """Each query reads the frame's cameras at its anchor's projections,
    planned once per frame (``reads``), pooled by the mean over the cameras
    that see it. Returns the (n, L) latents.
    """
    update = camera_read(latents, reads, features, params)
    return layernorm(add(latents, update), params.ln_g, params.ln_b)
