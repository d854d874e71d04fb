"""N-particle potential, forces and block Hessian for the mean-field system.

The configuration energy is

    V(x_1, ..., x_N) = sum_i U(x_i) + (1/2N) sum_{i,j} W(x_i - x_j),

with the double sum running over all pairs including i = j exactly as
written (the diagonal contributes the constant N W(0) / 2, which drops out
of every derivative because W is even).  Configurations are (N, d) arrays;
batched helpers accept (R, N, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpecError, ResourceCapError
from .potentials import PotentialSpec

__all__ = [
    "ModelConfig",
    "HessianBlocks",
    "total_potential",
    "force",
    "force_batch",
    "hessian_blocks",
    "hw_opnorm",
    "DENSE_CAP",
]

DENSE_CAP = 4096  # largest N*d for dense Hessian assembly


@dataclass(frozen=True)
class ModelConfig:
    """Mean-field model: N particles in R^d with confinement U and interaction W."""

    N: int
    d: int
    U: PotentialSpec
    W: Optional[PotentialSpec] = None

    def __post_init__(self):
        if self.N < 2:
            raise InvalidSpecError("N must be >= 2")
        if self.d < 1:
            raise InvalidSpecError("d must be >= 1")
        if self.U.dim != self.d or self.U.role != "confinement":
            raise InvalidSpecError("U must be a confinement potential of dimension d")
        if self.W is not None:
            if self.W.dim != self.d or self.W.role != "interaction":
                raise InvalidSpecError("W must be an interaction potential of dimension d")

    def to_json(self) -> dict:
        out = {"N": self.N, "d": self.d, "U": self.U.to_json()}
        out["W"] = self.W.to_json() if self.W is not None else None
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        extra = set(obj) - {"N", "d", "U", "W"}
        if extra:
            raise InvalidSpecError(f"unknown keys in model config: {sorted(extra)}")
        w = obj.get("W")
        return cls(
            N=int(obj["N"]),
            d=int(obj["d"]),
            U=PotentialSpec.from_json(obj["U"], role="confinement"),
            W=PotentialSpec.from_json(w, role="interaction") if w is not None else None,
        )


def _check_config(model: ModelConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (model.N, model.d):
        raise InvalidSpecError(f"configuration shape {x.shape} does not match (N, d) = ({model.N}, {model.d})")
    if not np.all(np.isfinite(x)):
        raise InvalidSpecError("non-finite configuration")
    return x


def total_potential(model: ModelConfig, x) -> float:
    """V(x) for one configuration of shape (N, d)."""
    x = _check_config(model, x)
    v = float(model.U.value(x).sum())
    if model.W is not None and not model.W.is_zero():
        diff = x[:, None, :] - x[None, :, :]
        v += float(model.W.value(diff).sum()) / (2 * model.N)
    return v


def _pair_radii(diff: np.ndarray) -> np.ndarray:
    return np.sqrt((diff**2).sum(axis=-1))


def force_batch(model: ModelConfig, x: np.ndarray) -> np.ndarray:
    """-grad V for a batch of configurations, shape (..., N, d).

    Per particle i:  -grad U(x_i) - (1/N) sum_j grad W(x_i - x_j), with the
    j = i term vanishing identically (grad W(0) = 0 for even W).
    """
    x = np.asarray(x, dtype=float)
    f = -model.U.gradient(x)
    if model.W is not None and not model.W.is_zero():
        diff = x[..., :, None, :] - x[..., None, :, :]
        psi = model.W.psi(_pair_radii(diff))
        f -= (psi[..., None] * diff).sum(axis=-2) / model.N
    return f


def force(model: ModelConfig, x) -> np.ndarray:
    """-grad V at one configuration, shape (N, d)."""
    return force_batch(model, _check_config(model, x))


@dataclass(frozen=True)
class HessianBlocks:
    """Dense H_U and H_W with hess V = H_U + H_W (both (Nd, Nd), symmetric).

    H_U is block diagonal with blocks hess U(x_i).  H_W has off-diagonal
    blocks -(1/N) hess W(x_i - x_j) and diagonal blocks
    (1/N) sum_{k != i} hess W(x_i - x_k), so its block rows sum to zero.
    """

    H_U: np.ndarray
    H_W: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.H_U + self.H_W


def hessian_blocks(model: ModelConfig, x) -> HessianBlocks:
    """Assemble the dense block Hessian of V at x (N*d <= DENSE_CAP)."""
    x = _check_config(model, x)
    N, d = model.N, model.d
    if N * d > DENSE_CAP:
        raise ResourceCapError(f"dense Hessian needs N*d <= {DENSE_CAP}, got {N * d}")
    H_U = np.zeros((N * d, N * d))
    hu = model.U.hessian(x)  # (N, d, d)
    for i in range(N):
        H_U[i * d:(i + 1) * d, i * d:(i + 1) * d] = hu[i]
    H_W = np.zeros((N * d, N * d))
    if model.W is not None and not model.W.is_zero():
        diff = x[:, None, :] - x[None, :, :]
        hw = model.W.hessian(diff)  # (N, N, d, d)
        for i in range(N):
            acc = np.zeros((d, d))
            for j in range(N):
                if i == j:
                    continue
                H_W[i * d:(i + 1) * d, j * d:(j + 1) * d] = -hw[i, j] / N
                acc += hw[i, j]
            H_W[i * d:(i + 1) * d, i * d:(i + 1) * d] = acc / N
    return HessianBlocks(H_U=H_U, H_W=H_W)


def hw_opnorm(model: ModelConfig, x) -> float:
    """Operator norm of H_W(x) from the dense symmetric eigensolver
    (``hessian_blocks`` raises ResourceCapError beyond DENSE_CAP)."""
    x = _check_config(model, x)
    if model.W is None or model.W.is_zero():
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(hessian_blocks(model, x).H_W)).max())
