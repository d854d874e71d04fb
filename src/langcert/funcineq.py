"""Poincare / log-Sobolev certification criteria and a grid spectral-gap oracle.

Criteria return ``None`` when their hypotheses fail rather than raising, so
callers can chain routes.  The log-Sobolev normalization is fixed once and
for all to  Ent_m(g^2) <= 2 C_LS Int |grad g|^2 dm;  the inverse constant
rho_LS = 1 / C_LS is converted at the boundaries of this module only.

The grid oracle discretizes the overdamped generator  H = Lap - grad V . grad
on a uniform grid with the detailed-balance-preserving three-point stencil
(midpoint densities by geometric means), which after symmetrization is the
discrete Schroedinger matrix with constant off-diagonal -1/dx^2.  Restricted
to total dimension <= 2: it exists to validate formulas, not to scale.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpecError, TailCoverageError
# nothing here calls force_batch; perfbench/tracer.py wraps this name
from .meanfield import ModelConfig, force_batch  # noqa: F401
from .potentials import PotentialSpec

__all__ = [
    "GridMeasure",
    "BakryEmery",
    "GapResult",
    "kappa_bakry_emery",
    "kappa_dissipativity",
    "upi_criterion",
    "lsi_transfer",
    "ulsi_criterion",
    "spectral_gap",
]


@dataclass(frozen=True)
class GridMeasure:
    """Gibbs measure (1/Z) e^{-V} dx tabulated on a uniform 1D or 2D grid.

    ``log_density`` holds -V at the nodes (unnormalized); the 1D grid also
    holds -grad V in ``grad_log_density``.
    """

    axes: tuple
    log_density: np.ndarray
    spacing: float
    grad_log_density: Optional[np.ndarray] = None

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def weights(self) -> np.ndarray:
        """Normalized quadrature weights of the probability measure."""
        w = np.exp(self.log_density - self.log_density.max())
        for ax in range(self.ndim):
            edge = [slice(None)] * self.ndim
            for k in (0, -1):
                edge[ax] = k
                w[tuple(edge)] *= 0.5
        return w / w.sum()

    def expectation(self, values: np.ndarray, weights: Optional[np.ndarray] = None,
                    out: Optional[np.ndarray] = None) -> float:
        """E[values]. A caller taking several passes ``weights``, read once:
        each read rebuilds them, and the measure does not keep them.  ``out``,
        a C-ordered array of the grid's shape, receives the product
        ``weights * values`` (it may be ``values`` itself); without it the
        product is a new array.  Either way the sum is the same bit for bit."""
        w = self.weights if weights is None else weights
        return float(np.multiply(w, values, out=out).sum())

    @classmethod
    def from_potential(cls, U: PotentialSpec, halfwidth: float, n: int) -> "GridMeasure":
        """Single-particle measure e^{-U} / Z on n nodes of [-halfwidth,
        halfwidth] (U.dim must be 1)."""
        if U.dim != 1:
            raise InvalidSpecError("grid measures need per-particle dimension 1")
        x = _grid_axis(halfwidth, n)
        logd = -U.profile(np.abs(x))
        _check_tails(logd, halfwidth)
        grad = -U.dprofile(np.abs(x)) * np.sign(x)
        return cls(axes=(x,), log_density=logd, spacing=float(x[1] - x[0]), grad_log_density=grad)

    @classmethod
    def from_pair_model(cls, model: ModelConfig, halfwidth: float, n: int) -> "GridMeasure":
        """Mean-field measure of the N = 2, d = 1 model on the tensor grid of
        n nodes of [-halfwidth, halfwidth] per axis, without a gradient: no
        pair verifier reads one."""
        if model.N != 2 or model.d != 1:
            raise InvalidSpecError("pair grids are restricted to N = 2, d = 1")
        x = _grid_axis(halfwidth, n)
        u = model.U.profile(np.abs(x))
        logd = -(u[:, None] + u[None, :])
        if model.W is not None:
            w0 = float(model.W.profile(np.zeros(1))[0])
            logd = logd - (2 * w0 + 2 * model.W.profile(np.abs(x[:, None] - x[None, :]))) / 4.0
        _check_tails(logd, halfwidth)
        return cls(axes=(x, x), log_density=logd, spacing=float(x[1] - x[0]))


def _grid_axis(halfwidth: float, n: int) -> np.ndarray:
    """The n uniform nodes of [-halfwidth, halfwidth].  n >= 3, so that the
    3-point derivative stencils of the oracle have an interior node and the
    tail check has a node off the boundary."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 3:
        raise InvalidSpecError(f"grid node count must be an integer >= 3, got {n!r}")
    if (not isinstance(halfwidth, numbers.Real) or isinstance(halfwidth, bool)
            or not math.isfinite(halfwidth) or halfwidth <= 0):
        raise InvalidSpecError(f"grid halfwidth must be finite and positive, got {halfwidth!r}")
    return np.linspace(-halfwidth, halfwidth, n)


def _check_tails(log_density: np.ndarray, halfwidth: float, rel: float = 1e-13) -> None:
    peak = float(log_density.max())
    if log_density.ndim == 1:
        edge = max(float(log_density[0]), float(log_density[-1]))
    else:
        edge = max(
            float(log_density[0].max()),
            float(log_density[-1].max()),
            float(log_density[:, 0].max()),
            float(log_density[:, -1].max()),
        )
    if math.exp(edge - peak) > rel:
        raise TailCoverageError(
            f"boundary density {math.exp(edge - peak):.2e} of peak exceeds {rel:.0e}; "
            f"enlarge the box (halfwidth {halfwidth:g} is too small)",
            required_halfwidth=2 * halfwidth,
        )


# ---------------------------------------------------------------------------
# certification criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BakryEmery:
    """Curvature bound kappa and the log-Sobolev constant 1/kappa it implies."""

    kappa: float
    c_ls: float


def kappa_bakry_emery(U: PotentialSpec, W: Optional[PotentialSpec]) -> Optional[BakryEmery]:
    """Uniform convexity route: kappa = kappa_1 - kappa_2^- when positive.

    kappa_1 is the infimum Hessian eigenvalue of U, kappa_2 that of W; the
    interaction block of the N-particle Hessian is bounded below by
    -kappa_2^- uniformly in N, so the same kappa certifies every N.  Also
    yields C_LS = 1/kappa.
    """
    kappa1 = U.hess_eig_bounds()[0]
    kappa2 = 0.0 if W is None else W.hess_eig_bounds()[0]
    kappa = kappa1 - max(0.0, -kappa2)
    if kappa <= 0 or not math.isfinite(kappa):
        return None
    return BakryEmery(kappa=kappa, c_ls=1.0 / kappa)


def kappa_dissipativity(h: float, c_lip: float) -> Optional[float]:
    """Poincare constant h + 1/c_lip from the dissipativity route.

    Needs a finite Lipschitz constant and h > -1/c_lip; the provenance of
    the result is only as strong as that of h.
    """
    if not math.isfinite(c_lip) or c_lip <= 0:
        return None
    kappa = h + 1.0 / c_lip
    if kappa <= 0:
        return None
    return kappa


def upi_criterion(c_u: float, c: float, R: float, K: float) -> Optional[float]:
    """Convexity-at-infinity criterion (c_u - K) e^{-cR/4} - 2K > 0.

    Returns the criterion slack as the Poincare constant, flagged
    criterion-derived by callers: the source result asserts the inequality
    but does not spell out the constant.
    """
    slack = (c_u - K) * math.exp(-c * R / 4.0) - 2.0 * K
    return slack if slack > 0 else None


def lsi_transfer(rho_marginal: float, c_lip: float, K: float) -> Optional[float]:
    """Zegarlinski-type transfer: C_LS = 1 / (rho_marginal (1 - gamma0)^2).

    gamma0 = c_lip K must be < 1; rho_marginal is the log-Sobolev constant
    of the conditional single-particle marginals (inverse normalization),
    supplied by the caller.
    """
    if rho_marginal <= 0:
        raise InvalidSpecError("rho_marginal must be positive")
    if not math.isfinite(c_lip):
        return None
    gamma0 = c_lip * K
    if gamma0 >= 1.0:
        return None
    return 1.0 / (rho_marginal * (1.0 - gamma0) ** 2)


def ulsi_criterion(c_u: float, c: float, R: float, K: float) -> bool:
    """Super-convexity criterion e^{cR/4} K / (c_u - K) < 1, read as
    cR/4 < log((c_u - K) / K) so that no large cR/4 overflows; it holds
    outright at K = 0.

    When true, e^{cR/4} / (c_u - K) serves as the Lipschitz bound in the
    log-Sobolev transfer (criterion-derived provenance).
    """
    if c_u <= K:
        return False
    return K <= 0 or c * R / 4.0 < math.log((c_u - K) / K)


# ---------------------------------------------------------------------------
# grid spectral-gap oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapResult:
    gap: float
    gap_coarse: float
    richardson: float
    spacing: float
    halfwidth: float


# the gap solvers import scipy when first called: only the oracle and the
# tests reach them, and ``certify`` runs without scipy

def _gap_1d(logd: np.ndarray, dx: float) -> float:
    from scipy.linalg import eigh_tridiagonal

    half = 0.5 * np.diff(logd)
    diag = np.zeros(logd.size)
    diag[:-1] += np.exp(half)
    diag[1:] += np.exp(-half)
    off = -np.ones(logd.size - 1)
    vals = eigh_tridiagonal(diag / dx**2, off / dx**2, select="i", select_range=(0, 1))[0]
    return float(vals[1])


def _gap_2d(logd: np.ndarray, dx: float) -> float:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n1, n2 = logd.shape
    size = n1 * n2
    l = logd.ravel()
    rows, cols, vals = [], [], []
    diag = np.zeros(size)
    idx = np.arange(size).reshape(n1, n2)
    for p, q in (
        (idx[:-1, :].ravel(), idx[1:, :].ravel()),
        (idx[:, :-1].ravel(), idx[:, 1:].ravel()),
    ):
        rows.extend([p, q])
        cols.extend([q, p])
        ones = -np.ones(p.size)
        vals.extend([ones, ones])
        half = 0.5 * (l[q] - l[p])
        np.add.at(diag, p, np.exp(half))
        np.add.at(diag, q, np.exp(-half))
    B = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )
    B = (B + sp.diags(diag)) / dx**2
    w = spla.eigsh(B, k=2, sigma=-1e-3, which="LM", return_eigenvectors=False)
    return float(np.sort(w)[1])


def spectral_gap(measure: GridMeasure) -> GapResult:
    """Smallest nonzero eigenvalue of -H for the measure's generator.

    The eigenproblem is solved at the measure's resolution and at half
    resolution; second-order convergence gives the Richardson extrapolate
    (4 g_fine - g_coarse) / 3, reported alongside both values.
    """
    if measure.ndim > 2:
        raise InvalidSpecError("spectral gap oracle is restricted to total dimension <= 2")
    logd = measure.log_density
    dx = measure.spacing
    if measure.ndim == 1:
        fine = _gap_1d(logd, dx)
        coarse = _gap_1d(logd[::2], 2 * dx)
    else:
        fine = _gap_2d(logd, dx)
        coarse = _gap_2d(logd[::2, ::2], 2 * dx)
    rich = (4.0 * fine - coarse) / 3.0
    half = float(measure.axes[0][-1])
    return GapResult(gap=fine, gap_coarse=coarse, richardson=rich, spacing=dx, halfwidth=half)
