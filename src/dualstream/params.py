"""Named parameter registry shared by the optimizer and checkpoints."""

from __future__ import annotations

import math

import numpy as np

from .diffcore import AttentionParams, DeformableParams, MlpParams, PatchEmbedParams, Tensor


class ParamStore:
    """Flat name -> Tensor registry; names are stable across runs.

    Every parameter is stored in the store's ``dtype``, which the caller
    names (a model passes its config's), so the activations, the tape and
    the gradients computed from them share it.
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}

    def tensor(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(f"parameter set mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
        for name, t in self._params.items():
            arr = np.asarray(arrays[name])
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}")
            if arr.dtype != t.data.dtype:
                raise ValueError(f"dtype mismatch for {name}: stored {arr.dtype}, model {t.data.dtype}")
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in parameter {name}")
            t.data = arr.copy()


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def make_mlp_params(store: ParamStore, prefix: str, rng, d_in: int, d_hidden: int, d_out: int) -> MlpParams:
    return MlpParams(
        w1=store.tensor(f"{prefix}.w1", glorot(rng, d_in, d_hidden)),
        b1=store.tensor(f"{prefix}.b1", np.zeros(d_hidden)),
        w2=store.tensor(f"{prefix}.w2", glorot(rng, d_hidden, d_out)),
        b2=store.tensor(f"{prefix}.b2", np.zeros(d_out)),
    )


def make_attention_params(store: ParamStore, prefix: str, rng, dim: int) -> AttentionParams:
    def proj(tag):
        return store.tensor(f"{prefix}.{tag}", glorot(rng, dim, dim)), store.tensor(f"{prefix}.{tag}_b", np.zeros(dim))

    wq, bq = proj("wq")
    wk, bk = proj("wk")
    wv, bv = proj("wv")
    wo, bo = proj("wo")
    return AttentionParams(wq, bq, wk, bk, wv, bv, wo, bo)


def make_layernorm_params(store: ParamStore, prefix: str, dim: int) -> tuple[Tensor, Tensor]:
    return store.tensor(f"{prefix}.g", np.ones(dim)), store.tensor(f"{prefix}.b", np.zeros(dim))


def _offset_ring(n_points: int, radius: float = 0.5) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n_points) / max(n_points, 1)
    return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1).reshape(-1)


def make_deformable_params(store: ParamStore, prefix: str, rng, latent: int, channels: int, n_points: int) -> DeformableParams:
    # offsets start on a small ring around the reference point, weights uniform
    return DeformableParams(
        w_off=store.tensor(f"{prefix}.w_off", np.zeros((latent, n_points * 2))),
        b_off=store.tensor(f"{prefix}.b_off", _offset_ring(n_points)),
        w_wgt=store.tensor(f"{prefix}.w_wgt", np.zeros((latent, n_points))),
        b_wgt=store.tensor(f"{prefix}.b_wgt", np.zeros(n_points)),
        w_val=store.tensor(f"{prefix}.w_val", glorot(rng, channels, latent)),
        w_out=store.tensor(f"{prefix}.w_out", glorot(rng, latent, latent)),
        b_out=store.tensor(f"{prefix}.b_out", np.zeros(latent)),
    )


def make_patch_embed_params(store: ParamStore, prefix: str, rng, patch: int, channels: int) -> PatchEmbedParams:
    d_in = 3 * patch * patch
    g1, b1 = make_layernorm_params(store, f"{prefix}.ln1", channels)
    g2, b2 = make_layernorm_params(store, f"{prefix}.ln2", channels)
    return PatchEmbedParams(
        w_proj=store.tensor(f"{prefix}.w_proj", glorot(rng, d_in, channels)),
        b_proj=store.tensor(f"{prefix}.b_proj", np.zeros(channels)),
        ln1_g=g1, ln1_b=b1,
        mlp1=make_mlp_params(store, f"{prefix}.mlp1", rng, channels, channels * 2, channels),
        ln2_g=g2, ln2_b=b2,
        mlp2=make_mlp_params(store, f"{prefix}.mlp2", rng, channels, channels * 2, channels),
    )
