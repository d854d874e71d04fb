"""N-particle potential, forces and block Hessian for the mean-field system.

The configuration energy is

    V(x_1, ..., x_N) = sum_i U(x_i) + (1/2N) sum_{i,j} W(x_i - x_j),

with the double sum running over all pairs including i = j exactly as
written (the diagonal contributes the constant N W(0) / 2, which drops out
of every derivative because W is even).  Configurations are (N, d) arrays;
batched helpers accept (R, N, d).

The pair force runs over cache-sized slabs of whole replicas, in buffers
reused from slab to slab, and takes psi from r^2 in place
(``PotentialSpec.psi_sq`` with ``out``), so each replica's force is bit for
bit the same whatever batch it comes in.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpecError, ResourceCapError
from .potentials import PotentialSpec

__all__ = [
    "ModelConfig",
    "HessianBlocks",
    "total_potential",
    "force_batch",
    "hessian_blocks",
    "DENSE_CAP",
]

DENSE_CAP = 4096  # largest N*d for dense Hessian assembly
_PAIR_SLAB = 2**15  # (replica, i, j) pair entries per slab of the pair force


@dataclass(frozen=True)
class ModelConfig:
    """Mean-field model: N particles in R^d with confinement U and interaction W.

    A force-free W (``PotentialSpec.is_zero``) is stored as None: no interaction.
    """

    N: int
    d: int
    U: PotentialSpec
    W: Optional[PotentialSpec] = None

    def __post_init__(self):
        for name, value, least in (("N", self.N, 2), ("d", self.d, 1)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise InvalidSpecError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.U.dim != self.d or self.U.role != "confinement":
            raise InvalidSpecError("U must be a confinement potential of dimension d")
        if self.W is not None:
            if self.W.dim != self.d or self.W.role != "interaction":
                raise InvalidSpecError("W must be an interaction potential of dimension d")
            if self.W.is_zero():
                object.__setattr__(self, "W", None)

    def to_json(self) -> dict:
        out = {"N": self.N, "d": self.d, "U": self.U.to_json()}
        out["W"] = self.W.to_json() if self.W is not None else None
        return out


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
    if model.W is not None:
        diff = x[:, None, :] - x[None, :, :]
        v += float(model.W.value(diff).sum()) / (2 * model.N)
    return v


def force_batch(model: ModelConfig, x: np.ndarray) -> np.ndarray:
    """-grad V for a batch of configurations, shape (..., N, d).

    Per particle i:  -grad U(x_i) - (1/N) sum_j grad W(x_i - x_j), with the
    j = i term vanishing identically (grad W(0) = 0 for even W).  The pair
    sum runs in slabs of at most ``_PAIR_SLAB`` pair entries (at least one
    replica each), with psi taken from r^2 = sum_k (x_i - x_j)_k^2 summed
    in coordinate order.  The differences, r^2 (overwritten by psi) and the
    pair sums of a slab go to buffers allocated once per call and reused by
    every slab.  Row k of the result equals
    ``force_batch(model, x[k:k+1])[0]`` bit for bit.  In d = 1 it also
    equals psi(|x_i - x_j|) bit for bit, because sqrt(fl(y^2)) = |y|.
    """
    x = np.ascontiguousarray(x, dtype=float)
    f = -model.U.gradient(x)
    W = model.W
    if W is None:
        return f
    N, d = x.shape[-2:]
    xs, fs = x.reshape(-1, N, d), f.reshape(-1, N, d)  # views: both contiguous
    slab = max(1, _PAIR_SLAB // (N * N))
    rows = min(slab, xs.shape[0])
    diff_buf, s_buf = np.empty((rows, N, N, d)), np.empty((rows, N, N))
    sq_buf = np.empty((rows, N, N)) if d > 1 else None
    sum_buf = np.empty((rows, N, d))
    for lo in range(0, xs.shape[0], slab):
        xb = xs[lo:lo + slab]
        n = xb.shape[0]
        diff = np.subtract(xb[:, :, None, :], xb[:, None, :, :], out=diff_buf[:n])
        s = np.square(diff[..., 0], out=s_buf[:n])
        for k in range(1, d):
            s += np.square(diff[..., k], out=sq_buf[:n])
        diff *= W.psi_sq(s, out=s)[..., None]
        acc = np.sum(diff, axis=-2, out=sum_buf[:n])
        acc /= N
        fs[lo:lo + n] -= acc
    return f


@dataclass(frozen=True)
class HessianBlocks:
    """Dense H_U and H_W with hess V = H_U + H_W (both (Nd, Nd), symmetric).

    H_U is block diagonal with blocks hess U(x_i).  H_W has off-diagonal
    blocks -(1/N) hess W(x_i - x_j) and diagonal blocks
    (1/N) sum_{k != i} hess W(x_i - x_k), so its block rows sum to zero.
    """

    H_U: np.ndarray
    H_W: np.ndarray


def hessian_blocks(model: ModelConfig, x) -> HessianBlocks:
    """Assemble the dense block Hessian of V at x (N*d <= DENSE_CAP)."""
    x = _check_config(model, x)
    N, d = model.N, model.d
    if N * d > DENSE_CAP:
        raise ResourceCapError(f"dense Hessian needs N*d <= {DENSE_CAP}, got {N * d}")
    idx = np.arange(N)
    # blocks indexed (i, a, j, b) so that reshape gives rows i*d + a
    H_U = np.zeros((N, d, N, d))
    H_U[idx, :, idx, :] = model.U.hessian(x)
    H_W = np.zeros((N, d, N, d))
    if model.W is not None:
        diff = x[:, None, :] - x[None, :, :]
        hw = model.W.hessian(diff)  # (N, N, d, d)
        hw[idx, idx] = 0.0
        acc = np.zeros((N, d, d))
        for j in range(N):  # sum_{k != i} hw[i, k] in k order; hw[i, i] adds an exact 0
            acc += hw[:, j]
        blocks = -hw / N
        blocks[idx, idx] = acc / N
        H_W = blocks.transpose(0, 2, 1, 3)
    return HessianBlocks(H_U=H_U.reshape(N * d, N * d), H_W=H_W.reshape(N * d, N * d))
