"""Parametric radial potential families and the scalar constants they induce.

Every built-in family is rotationally symmetric, P(x) = g(|x|), and is one
record in ``_FAMILIES``: its parameter schema, closed forms for the radial
profile g, its first two derivatives and psi, chi below, the closed-form
Hessian and gradient bounds, a length scale, and two traits (``linear``:
grad P is linear, so b0, c_u and K2 are exact; ``bounded``: P is bounded and
cannot confine).  Gradients and Hessians follow from

    grad P(x) = psi(r) x,                 psi(r) = g'(r)/r,
    hess P(x) = psi(r) I + chi(r) x x^T,  chi(r) = (g''(r) - psi(r)) / r^2,

where psi and chi are implemented with stable closed forms (no 0/0 at the
origin).  The Hessian eigenvalues are g''(r) in the radial direction and
psi(r) with multiplicity d-1 tangentially, which is what makes all the
supremum searches below effectively low-dimensional.

On top of the families, this module extracts everything the certification
pipeline consumes: the interaction Hessian bound K and gradient bound K', a
Lyapunov pair (K1, K2) with |hess U|_op <= K1 |grad U| + K2, the drift
dissipativity rate b0(r), the induced Lipschitz constant c_lip, and a
convexity-at-infinity triple (c_u, c, R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import optimize
from scipy.integrate import cumulative_simpson

from .errors import InvalidSpecError

__all__ = [
    "PotentialSpec",
    "ConstantsBundle",
    "LipschitzResult",
    "ConvexityFit",
    "extract_constants",
    "select_lyapunov_pair",
    "lyapunov_offsets",
    "lipschitz_constant",
    "lipschitz_from_model",
    "model_b0",
    "convexity_at_infinity_fit",
    "ANALYTIC",
    "NUMERIC",
    "USER",
    "CRITERION",
    "VERIFIED",
]

ROLES = ("confinement", "interaction")

ANALYTIC = "analytic"
NUMERIC = "numeric-estimate"
USER = "user-supplied"
CRITERION = "criterion-derived"
VERIFIED = "verified-numeric"  # sup/inf search with margin, re-verified on samples


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """One radial family.  The radial functions map ``(params, r)`` to arrays,
    the bounds map ``params`` to the closed forms that the ``PotentialSpec``
    methods of the same name document."""

    schema: dict  # parameter name -> validity predicate
    g: Callable
    dg: Callable
    d2g: Callable
    psi: Callable
    chi: Callable
    hess_op_sup: Callable
    grad_sup: Callable
    hess_eig_bounds: Callable
    char_length: Callable
    is_zero: Callable
    linear: bool = False  # grad P = a x: b0, c_u and K2 are exact
    bounded: bool = False  # non-integrable Gibbs measure: cannot confine


def _quartic_char_length(p) -> float:
    q, w = p["quartic"], p["well"]
    well = math.sqrt(w / (2 * q)) if w > 0 else 0.0
    return max(1.0, well, (1.0 / (4 * q)) ** 0.25)


def _bump_amp(p) -> float:
    """Signed amplitude: an attractive bump is a well, -amplitude at the origin."""
    return (-1.0 if p["sign"] == "attractive" else 1.0) * p["amplitude"]


def _bump_exp(p, r):
    return np.exp(-(r**2) / (2 * p["width"] ** 2))


def _bump_eig_bounds(p) -> tuple[float, float]:
    a = p["amplitude"] / p["width"] ** 2
    if p["sign"] == "attractive":
        # radial a(1-u^2)e^{-u^2/2} in [-2a e^{-3/2}, a], tangential in (0, a]
        return -2 * a * math.exp(-1.5), a
    # radial a(u^2-1)e^{-u^2/2} in [-a, 2a e^{-3/2}], tangential in [-a, 0)
    return -a, 2 * a * math.exp(-1.5)


def _cosine_chi(p, r):
    om = p["frequency"]
    t = om * r
    # h(t) = (cos t - sin t / t) / t^2 -> -1/3 + t^2/30 near 0
    small = np.abs(t) < 1e-4
    denom = np.where(small, 1.0, t**2)
    h = np.where(small, -1.0 / 3.0 + t**2 / 30.0, (np.cos(t) - np.sinc(t / np.pi)) / denom)
    return -p["amplitude"] * om**4 * h


_FAMILIES = {
    # coef/2 |x|^2
    "quadratic": _Family(
        schema={"coef": lambda v: v >= 0.0},
        g=lambda p, r: 0.5 * p["coef"] * r**2,
        dg=lambda p, r: p["coef"] * r,
        d2g=lambda p, r: np.full_like(r, p["coef"]),
        psi=lambda p, r: np.full_like(r, p["coef"]),
        chi=lambda p, r: np.zeros_like(r),
        hess_op_sup=lambda p: p["coef"],
        grad_sup=lambda p: 0.0 if p["coef"] == 0.0 else math.inf,
        hess_eig_bounds=lambda p: (p["coef"], p["coef"]),
        char_length=lambda p: 1.0 / math.sqrt(p["coef"]) if p["coef"] > 0 else 1.0,
        is_zero=lambda p: p["coef"] == 0.0,
        linear=True,
    ),
    # quartic |x|^4 - well |x|^2
    "quartic_double_well": _Family(
        schema={"quartic": lambda v: v > 0.0, "well": lambda v: v >= 0.0},
        g=lambda p, r: p["quartic"] * r**4 - p["well"] * r**2,
        dg=lambda p, r: 4 * p["quartic"] * r**3 - 2 * p["well"] * r,
        d2g=lambda p, r: 12 * p["quartic"] * r**2 - 2 * p["well"],
        psi=lambda p, r: 4 * p["quartic"] * r**2 - 2 * p["well"],
        chi=lambda p, r: np.full_like(r, 8 * p["quartic"]),
        hess_op_sup=lambda p: math.inf,
        grad_sup=lambda p: math.inf,
        hess_eig_bounds=lambda p: (-2 * p["well"], math.inf),
        char_length=_quartic_char_length,
        is_zero=lambda p: False,
    ),
    # -+ amplitude exp(-|x|^2 / 2 width^2), minus sign for an attractive bump
    "gaussian_bump": _Family(
        schema={
            "amplitude": lambda v: v >= 0.0,
            "width": lambda v: v > 0.0,
            "sign": lambda v: v in ("attractive", "repulsive"),
        },
        g=lambda p, r: _bump_amp(p) * _bump_exp(p, r),
        dg=lambda p, r: -_bump_amp(p) * r / p["width"] ** 2 * _bump_exp(p, r),
        d2g=lambda p, r: -_bump_amp(p) / p["width"] ** 2 * (1 - r**2 / p["width"] ** 2) * _bump_exp(p, r),
        psi=lambda p, r: -_bump_amp(p) / p["width"] ** 2 * _bump_exp(p, r),
        chi=lambda p, r: _bump_amp(p) / (p["width"] ** 2) ** 2 * _bump_exp(p, r),
        hess_op_sup=lambda p: p["amplitude"] / p["width"] ** 2,
        grad_sup=lambda p: p["amplitude"] / p["width"] * math.exp(-0.5),
        hess_eig_bounds=_bump_eig_bounds,
        char_length=lambda p: p["width"],
        is_zero=lambda p: p["amplitude"] == 0.0,
        bounded=True,
    ),
    # amplitude cos(frequency |x|)
    "cosine": _Family(
        schema={"amplitude": lambda v: True, "frequency": lambda v: v != 0.0},
        g=lambda p, r: p["amplitude"] * np.cos(p["frequency"] * r),
        dg=lambda p, r: -p["amplitude"] * p["frequency"] * np.sin(p["frequency"] * r),
        d2g=lambda p, r: -p["amplitude"] * p["frequency"] ** 2 * np.cos(p["frequency"] * r),
        psi=lambda p, r: -p["amplitude"] * p["frequency"] ** 2 * np.sinc(p["frequency"] * r / np.pi),
        chi=_cosine_chi,
        hess_op_sup=lambda p: abs(p["amplitude"]) * p["frequency"] ** 2,
        grad_sup=lambda p: abs(p["amplitude"]) * abs(p["frequency"]),
        hess_eig_bounds=lambda p: (-abs(p["amplitude"]) * p["frequency"] ** 2,
                                   abs(p["amplitude"]) * p["frequency"] ** 2),
        char_length=lambda p: 2 * math.pi / abs(p["frequency"]),
        is_zero=lambda p: p["amplitude"] == 0.0,
        bounded=True,
    ),
}
FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class PotentialSpec:
    """One potential from a built-in radial family.

    Parameters
    ----------
    family : str
        A key of ``_FAMILIES``: ``quadratic``, ``quartic_double_well``,
        ``gaussian_bump`` or ``cosine``.
    params : dict
        Family parameters, named and range-checked by the family's
        ``_FAMILIES`` schema.
    dim : int
        Dimension d >= 1 of the space the potential acts on.
    role : str
        ``confinement`` or ``interaction``.
    """

    family: str
    params: dict
    dim: int = 1
    role: str = "confinement"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidSpecError(f"unknown family {self.family!r}")
        if self.role not in ROLES:
            raise InvalidSpecError(f"unknown role {self.role!r}")
        if self.dim < 1:
            raise InvalidSpecError("dim must be >= 1")
        schema = _FAMILIES[self.family].schema
        unknown = set(self.params) - set(schema)
        if unknown:
            raise InvalidSpecError(f"unknown params for {self.family}: {sorted(unknown)}")
        for name, ok in schema.items():
            if name not in self.params:
                raise InvalidSpecError(f"{self.family} requires param {name!r}")
            if not ok(self.params[name]):
                raise InvalidSpecError(f"param {name}={self.params[name]!r} out of range")
        if self.role == "confinement" and self.bounded:
            raise InvalidSpecError(
                f"{self.family} is bounded and cannot confine (non-integrable Gibbs measure)"
            )

    @property
    def linear(self) -> bool:
        """grad P(x) = a x with a constant a = hess_eig_bounds()[0]."""
        return _FAMILIES[self.family].linear

    @property
    def bounded(self) -> bool:
        """P is bounded, so it cannot serve as the confinement."""
        return _FAMILIES[self.family].bounded

    # -- radial profile -------------------------------------------------

    def profile(self, r):
        """g(r) with r = |x| (vectorized)."""
        return _FAMILIES[self.family].g(self.params, np.asarray(r, dtype=float))

    def dprofile(self, r):
        """g'(r)."""
        return _FAMILIES[self.family].dg(self.params, np.asarray(r, dtype=float))

    def d2profile(self, r):
        """g''(r)."""
        return _FAMILIES[self.family].d2g(self.params, np.asarray(r, dtype=float))

    def psi(self, r):
        """g'(r)/r, finite at r = 0."""
        return _FAMILIES[self.family].psi(self.params, np.asarray(r, dtype=float))

    def chi(self, r):
        """(g''(r) - psi(r)) / r^2, finite at r = 0."""
        return _FAMILIES[self.family].chi(self.params, np.asarray(r, dtype=float))

    # -- point evaluation -------------------------------------------------

    def value(self, x):
        """P(x) for x of shape (..., dim)."""
        x = self._as_points(x)
        return self.profile(np.sqrt((x**2).sum(axis=-1)))

    def gradient(self, x):
        """grad P(x), shape (..., dim)."""
        x = self._as_points(x)
        r = np.sqrt((x**2).sum(axis=-1))
        return self.psi(r)[..., None] * x

    def hessian(self, x):
        """hess P(x), shape (..., dim, dim), exactly symmetric."""
        x = self._as_points(x)
        r = np.sqrt((x**2).sum(axis=-1))
        eye = np.eye(self.dim)
        outer = x[..., :, None] * x[..., None, :]  # symmetric before scaling
        return self.psi(r)[..., None, None] * eye + self.chi(r)[..., None, None] * outer

    def _as_points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 and self.dim == 1:
            x = x.reshape(1)
        if x.shape[-1] != self.dim:
            raise InvalidSpecError(f"point has last axis {x.shape[-1]}, expected dim {self.dim}")
        return x

    # -- analytic scalar bounds -------------------------------------------

    def hess_op_sup(self) -> float:
        """sup_x |hess P(x)|_op, closed form per family."""
        return _FAMILIES[self.family].hess_op_sup(self.params)

    def grad_sup(self) -> float:
        """sup_x |grad P(x)|, closed form per family (may be +inf)."""
        return _FAMILIES[self.family].grad_sup(self.params)

    def hess_eig_bounds(self) -> tuple[float, float]:
        """(inf, sup) over x of the Hessian eigenvalues, closed form.

        The radial eigenvalue is g''(r); the tangential one, psi(r), only
        exists for d >= 2 but always lies inside the radial branch's hull
        for the built-in families, so the bounds are dimension-free.
        """
        return _FAMILIES[self.family].hess_eig_bounds(self.params)

    def char_length(self) -> float:
        """Length scale used to size search boxes and grids."""
        return _FAMILIES[self.family].char_length(self.params)

    def is_zero(self) -> bool:
        """P vanishes identically (zero coefficient or amplitude)."""
        return _FAMILIES[self.family].is_zero(self.params)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "dim": self.dim}

    @classmethod
    def from_json(cls, obj: dict, role: str = "confinement") -> "PotentialSpec":
        if not isinstance(obj, dict):
            raise InvalidSpecError("potential spec must be a JSON object")
        extra = set(obj) - {"family", "params", "dim"}
        if extra:
            raise InvalidSpecError(f"unknown keys in potential spec: {sorted(extra)}")
        return cls(
            family=obj.get("family", ""),
            params=dict(obj.get("params", {})),
            dim=int(obj.get("dim", 1)),
            role=role,
        )


# ---------------------------------------------------------------------------
# constants bundle
# ---------------------------------------------------------------------------

@dataclass
class ConstantsBundle:
    """Every scalar the certification pipeline consumes, with provenance.

    ``K_prime`` and ``c_lip`` use ``math.inf`` as their unbounded flag;
    ``kappa``, ``C_LS`` and the convexity triple stay ``None`` until some
    criterion produces them.  ``provenance`` maps field names to one of
    ``analytic``, ``numeric-estimate``, ``user-supplied``,
    ``criterion-derived`` and ``verified-numeric`` (a sup/inf search with a
    margin, re-verified on samples; ``extract_constants`` and
    ``assemble_constants`` give it to ``K2`` and the convexity triple).
    Every grade except ``numeric-estimate`` certifies.
    """

    K: float
    K_prime: float
    K1: float
    K2: float
    d: int
    c_u: Optional[float] = None
    c: Optional[float] = None
    R_conv: Optional[float] = None
    c_lip: Optional[float] = None
    c_lip_converged: bool = False
    kappa: Optional[float] = None
    C_LS: Optional[float] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.K < 0 or self.K1 < 0 or self.K2 < 0:
            raise InvalidSpecError("K, K1, K2 must be nonnegative")
        if math.isfinite(self.K_prime) and self.K_prime < 0:
            raise InvalidSpecError("finite K_prime must be nonnegative")
        if self.kappa is not None and self.kappa <= 0:
            raise InvalidSpecError("kappa must be positive when present")
        if self.C_LS is not None and self.C_LS <= 0:
            raise InvalidSpecError("C_LS must be positive when present")
        if self.c_lip is not None and math.isfinite(self.c_lip) and not self.c_lip_converged:
            raise InvalidSpecError("finite c_lip requires a converged quadrature")

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return v

        return {
            "K": self.K,
            "K_prime": enc(self.K_prime),
            "K1": self.K1,
            "K2": self.K2,
            "d": self.d,
            "c_u": enc(self.c_u),
            "c": enc(self.c),
            "R_conv": enc(self.R_conv),
            "c_lip": enc(self.c_lip),
            "c_lip_converged": self.c_lip_converged,
            "kappa": enc(self.kappa),
            "C_LS": enc(self.C_LS),
            "provenance": dict(sorted(self.provenance.items())),
        }


# ---------------------------------------------------------------------------
# radial supremum machinery
# ---------------------------------------------------------------------------

def _radial_grid(r_max: float, n: int = 2001, r_lin: float | None = None) -> np.ndarray:
    """Uniform grid on [0, r_lin] extended geometrically out to r_max."""
    if r_lin is None or r_max <= r_lin:
        return np.linspace(0.0, r_max, n)
    lin = np.linspace(0.0, r_lin, n)
    geo = np.geomspace(r_lin, r_max, max(n // 4, 64))[1:]
    return np.concatenate([lin, geo])


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# scipy's defaults for minimize_scalar(method="bounded"): xatol and maxiter
_XATOL = 1e-5
_MAXFUN = 500


def _fminbound(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise bounded Brent minimization, one independent problem per row.

    A step-for-step copy of ``scipy.optimize.minimize_scalar(method="bounded")``
    (golden-section steps with parabolic interpolation, Brent 1973): row i
    minimizes ``func`` on ``[lo[i], hi[i]]`` and stops at the same evaluation
    with the same ``(x, fun)``, bit for bit, as the scalar routine applied to
    ``lambda t: float(func(np.asarray(t)))`` (element-wise numpy arithmetic
    rounds a vector entry as it rounds a 0-d array).  ``func`` maps an array
    of one abscissa per row to the objective values; rows that have stopped
    keep their state and their evaluations are discarded.  Returns
    ``(x, fun)``.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc.copy(), fulc.copy()
    rat = np.zeros_like(a)
    e = np.zeros_like(a)
    fx = np.asarray(func(xf), dtype=float)
    ffulc, fnfc = fx.copy(), fx.copy()
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    active = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        while num < _MAXFUN and active.any():
            # parabolic step where it falls well inside the bracket, else golden
            step = active & (np.abs(e) > tol1)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parab = step & (np.abs(p) < np.abs(0.5 * q * e)) & (p > q * (a - xf)) & (p < q * (b - xf))
            golden = active & ~parab
            rat_p = (p + 0.0) / q
            x_p = xf + rat_p
            si = np.sign(xm - xf) + ((xm - xf) == 0)
            rat_p = np.where(((x_p - a) < tol2) | ((b - x_p) < tol2), tol1 * si, rat_p)
            e = np.where(golden, np.where(xf >= xm, a - xf, b - xf), np.where(step, rat, e))
            rat = np.where(parab, rat_p, np.where(golden, _GOLDEN * e, rat))
            si = np.sign(rat) + (rat == 0)
            x = xf + si * np.maximum(np.abs(rat), tol1)
            fu = np.asarray(func(x), dtype=float)
            num += 1

            # bracket and point bookkeeping, on the rows still running
            down = active & (fu <= fx)
            up = active & ~(fu <= fx)
            shift_nfc = up & ((fu <= fnfc) | (nfc == xf))
            set_fulc = up & ~shift_nfc & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            a = np.where(down & (x >= xf), xf, np.where(up & (x < xf), x, a))
            b = np.where(down & (x < xf), xf, np.where(up & (x >= xf), x, b))
            fulc, ffulc = (np.where(down | shift_nfc, nfc, np.where(set_fulc, x, fulc)),
                           np.where(down | shift_nfc, fnfc, np.where(set_fulc, fu, ffulc)))
            nfc, fnfc = (np.where(down, xf, np.where(shift_nfc, x, nfc)),
                         np.where(down, fx, np.where(shift_nfc, fu, fnfc)))
            xf, fx = np.where(down, x, xf), np.where(down, fu, fx)
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
            tol2 = 2.0 * tol1
            active &= np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    return xf, fx


def hess_op_radial(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    """|hess P|_op as a function of the radius."""
    if spec.dim == 1:
        return np.abs(spec.d2profile(r))
    return np.maximum(np.abs(spec.d2profile(r)), np.abs(spec.psi(r)))


def lyapunov_offsets(spec: PotentialSpec, k1s) -> list[float]:
    """Smallest K2 with |hess P|_op <= k1 |grad P| + K2, for each K1 in ``k1s``.

    Radial search: the defect's grid maximum per K1, then one bounded-Brent
    polish of the cells around the three best grid nodes of every K1 at once.
    The box is enlarged to cover the stationary point of the defect for
    polynomially growing families; it sits near r ~ 1/k1 for the quartic.
    """
    char = spec.char_length()

    def defect(k1, r):
        return hess_op_radial(spec, r) - k1 * np.abs(spec.dprofile(r))

    grid_max, lo, hi, counts = [], [], [], []
    for k1 in k1s:
        r_box = 50.0 * char
        if k1 > 0:
            r_box = max(r_box, 8.0 / k1)
        grid = _radial_grid(r_box, 2001, r_lin=50.0 * char)
        vals = defect(k1, grid)
        top = np.argsort(vals)[::-1][:3]
        cell_lo = grid[np.maximum(top - 1, 0)]
        cell_hi = grid[np.minimum(top + 1, grid.size - 1)]
        ok = cell_hi > cell_lo
        grid_max.append(float(vals.max()))
        lo.append(cell_lo[ok])
        hi.append(cell_hi[ok])
        counts.append(int(ok.sum()))
    row_k1 = np.repeat(np.asarray(k1s, dtype=float), counts)
    _, neg = _fminbound(lambda r: -defect(row_k1, r), np.concatenate(lo), np.concatenate(hi))
    polished = np.split(-neg, np.cumsum(counts)[:-1])
    return [max(g, *p.tolist(), 0.0) for g, p in zip(grid_max, polished)]


def select_lyapunov_pair(
    spec: PotentialSpec,
    objective: Callable[[float, float], float] | None = None,
) -> tuple[float, float]:
    """Pick (K1, K2) over a log grid of K1 minimizing ``objective(K1, K2)``.

    The default objective is the single boundedness constant
    M = max(2 C1, 2 C2), with C1 = 50 K1^2 and C2 = 4 K2^2 + 25 K1^4 d^2 / 4,
    the dominant terms on both certification routes; callers with the full
    constant formula in hand (known K, K', C_LS) pass it in instead.
    """
    if objective is None:
        d = spec.dim

        def objective(k1, k2):
            c1 = 50 * k1**2
            c2 = 4 * k2**2 + 25 * k1**4 * d**2 / 4
            return max(2 * c1, 2 * c2, 1.0)

    candidates = [2.0**e for e in range(-20, 11)]
    if math.isfinite(spec.hess_op_sup()):
        candidates = [0.0] + candidates
    best = None
    for k1, k2 in zip(candidates, lyapunov_offsets(spec, candidates)):
        score = objective(k1, k2)
        if not math.isfinite(score):
            continue
        if best is None or score < best[0]:
            best = (score, k1, k2)
    if best is None:
        raise InvalidSpecError("no feasible Lyapunov pair found")
    return best[1], best[2]


def extract_constants(U: PotentialSpec, W: Optional[PotentialSpec]) -> ConstantsBundle:
    """Interaction bounds K, K' and a Lyapunov pair (K1, K2) for U.

    K and K' are closed forms per family.  A quadratic interaction has a
    constant Hessian but a linear gradient, so K' comes back as the +inf
    flag and certification must go through the log-Sobolev route.
    """
    if U.role != "confinement":
        raise InvalidSpecError("U must have the confinement role")
    if W is not None and W.role != "interaction":
        raise InvalidSpecError("W must have the interaction role")
    if W is not None and W.dim != U.dim:
        raise InvalidSpecError("U and W dimensions differ")
    if W is None or W.is_zero():
        K, K_prime = 0.0, 0.0
    else:
        K, K_prime = W.hess_op_sup(), W.grad_sup()

    d = U.dim
    kp_eff = K_prime if math.isfinite(K_prime) else 0.0

    def objective(k1, k2):
        c1 = 50 * k1**2
        c2 = 4 * k2**2 + 25 * k1**4 * d**2 / 4 + 25 * kp_eff**2 * k1**2 / 2
        return max(2 * c1, 2 * c2 + 2 * K**2, 1.0)

    k1, k2 = select_lyapunov_pair(U, objective)
    prov = {"K": ANALYTIC, "K_prime": ANALYTIC, "K1": ANALYTIC, "K2": VERIFIED}
    if U.linear:
        prov["K2"] = ANALYTIC  # constant Hessian, offset exact
    else:
        # safety margin on the refined supremum, then a dense random check
        # (an over-estimate of K2 only weakens the certified rate, never
        # its validity; an under-estimate would invalidate it)
        k2 = k2 * (1 + 1e-9) + 1e-12
        rng = np.random.default_rng(20240)
        pts = rng.uniform(-1.0, 1.0, size=(10**4, d)) * 40.0 * U.char_length()
        op = np.abs(np.linalg.eigvalsh(U.hessian(pts))).max(axis=-1)
        gn = np.sqrt((U.gradient(pts) ** 2).sum(axis=-1))
        if np.any(op > k1 * gn + k2 + 1e-9):
            prov["K2"] = NUMERIC  # verification failed: degrade, do not certify
    return ConstantsBundle(K=K, K_prime=K_prime, K1=k1, K2=k2, d=d, provenance=prov)


# ---------------------------------------------------------------------------
# dissipativity rate b0 and the Lipschitz constant it induces
# ---------------------------------------------------------------------------

# rows per block of the d = 1 section grid: keeps the (rows, n) work arrays
# near 1 MB each at n = 1601, so peak memory does not grow with the node count
_SECTION_BLOCK = 64 * 1601


def section_sup_batch(spec: PotentialSpec, rs, spans, n: int = 1601) -> np.ndarray:
    """sup over pairs x = y + r e of -<e, grad P(x) - grad P(y)>, one per radius.

    Rotational invariance reduces the pair to the plane spanned by e and one
    orthogonal direction:  y = alpha e + beta n, with the beta axis absent
    for d = 1.  Row i searches alpha in -r_i/2 +- spans[i] on an n-point grid.
    In d = 1 the grid runs in blocks of rows and the best grid node of every
    row is then polished at once by bounded Brent on its neighbouring cell;
    in d >= 2 each row polishes its three best grid nodes with Nelder-Mead.
    A polish only raises the grid maximum, so each entry is still a lower
    estimate of the true supremum.
    """
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    spans = np.broadcast_to(np.asarray(spans, dtype=float), rs.shape)
    if spec.dim > 1:
        return np.array([_section_sup_2d(spec, float(r), float(sp), n) for r, sp in zip(rs, spans)])
    grid_max, lo, hi = np.empty_like(rs), np.empty_like(rs), np.empty_like(rs)
    step = max(_SECTION_BLOCK // n, 1)
    for start in range(0, rs.size, step):
        blk = slice(start, start + step)
        r, span = rs[blk], spans[blk]
        alpha = np.linspace(-r / 2 - span, -r / 2 + span, n, axis=1)
        vals = _section_line(spec, alpha, r[:, None])
        i = np.argmax(vals, axis=1)
        rows = np.arange(r.size)
        grid_max[blk] = vals.max(axis=1)
        lo[blk] = alpha[rows, np.maximum(i - 1, 0)]
        hi[blk] = alpha[rows, np.minimum(i + 1, n - 1)]
    _, neg = _fminbound(lambda a: -_section_line(spec, a, rs), lo, hi)
    return np.maximum(grid_max, -neg)


def _section_line(spec: PotentialSpec, alpha: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The d = 1 section objective at y = alpha, x = alpha + r."""
    x = alpha + r
    return -(spec.psi(np.abs(x)) * x - spec.psi(np.abs(alpha)) * alpha)


def _section_sup_2d(spec: PotentialSpec, r: float, span: float, n: int) -> float:
    alpha = np.linspace(-r / 2 - span, -r / 2 + span, n)
    nb = max(n // 8, 101)
    beta = np.linspace(0.0, span, nb)
    A, B = np.meshgrid(alpha, beta, indexing="ij")
    s0 = np.sqrt(A**2 + B**2)
    s1 = np.sqrt((A + r) ** 2 + B**2)
    vals = -(spec.psi(s1) * (A + r) - spec.psi(s0) * A)
    best = float(vals.max())
    for k in np.argsort(vals.ravel())[::-1][:3]:
        i, j = np.unravel_index(k, vals.shape)

        def neg(p):
            a, b = p
            ss0 = math.hypot(a, b)
            ss1 = math.hypot(a + r, b)
            return float(spec.psi(ss1) * (a + r) - spec.psi(ss0) * a)

        res = optimize.minimize(neg, x0=[A[i, j], B[i, j]], method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
        best = max(best, float(-res.fun))
    return best


@dataclass(frozen=True)
class LipschitzResult:
    value: float
    converged: bool
    s_max: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def lipschitz_constant(
    b0: Callable[[np.ndarray], np.ndarray],
    s_init: float = 16.0,
    rel_tail: float = 1e-10,
    max_doublings: int = 12,
) -> LipschitzResult:
    """c_lip = (1/4) Int_0^inf exp{(1/4) Int_0^s b0(u) du} s ds.

    Cumulative Simpson rule on a uniform grid for both nested integrals; the
    domain doubles until the analytic tail bound (built from the largest b0
    sample over the last quarter of the domain) falls below ``rel_tail`` of
    the running value.  A non-integrable tail comes back as the +inf flag.
    """
    s_max = float(s_init)
    for _ in range(max_doublings):
        n = max(4097, min(int(s_max * 256) + 1, 2_000_001))
        s = np.linspace(0.0, s_max, n)
        b = np.asarray(b0(s), dtype=float)
        inner = cumulative_simpson(b, x=s, initial=0.0) / 4.0
        if inner[-1] > 700.0:
            return LipschitzResult(math.inf, True, s_max)
        integrand = 0.25 * np.exp(inner) * s
        value = float(cumulative_simpson(integrand, x=s, initial=0.0)[-1])
        b_tail = float(b[int(0.75 * n):].max())
        if b_tail < 0.0:
            beta = -b_tail / 4.0
            tail = 0.25 * math.exp(inner[-1]) * (s_max / beta + 1.0 / beta**2)
            if value > 0 and tail < rel_tail * value:
                return LipschitzResult(value, True, s_max)
        s_max *= 2.0
    return LipschitzResult(math.inf, False, s_max)


def model_b0(U: PotentialSpec, W: Optional[PotentialSpec]) -> Callable[[np.ndarray], np.ndarray]:
    """Worst-case radial contraction of the drift, vectorized over separations r:

        b0(r) = sup_{|x-y| = r, z} -< (x-y)/r, grad U(x) - grad U(y)
                                         + grad W(x-z) - grad W(y-z) >.

    The supremum splits into independent confinement and interaction parts
    because z is unconstrained.  A part with a linear gradient a x is exactly
    -a r; every other part is one batched section search over all r on the
    box -r/2 +- max(8 char_length, 2r), with r clamped to >= 1e-9.  That
    search is a lower estimate, and an under-estimate would poison c_lip:
    test_b0_widened_box_never_wins pins that a 1.5x wider box does not
    raise it at the first-pass c_lip nodes of the certify models.
    """
    specs = [s for s in (U, W) if s is not None and not s.is_zero()]
    linear = sum(s.hess_eig_bounds()[0] for s in specs if s.linear)
    nonlin = [s for s in specs if not s.linear]

    def b0_vec(rs):
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        out = -linear * rs
        rr = np.maximum(rs, 1e-9)
        for spec in nonlin:
            out += section_sup_batch(spec, rr, np.maximum(8.0 * spec.char_length(), 2.0 * rr))
        return out

    return b0_vec


def lipschitz_from_model(U: PotentialSpec, W: Optional[PotentialSpec]) -> LipschitzResult:
    """c_lip for the model's own dissipativity rate, always by quadrature.

    Models with a purely linear drift (quadratic families) have the closed
    form c_lip = 1/a; the quadrature reproduces it to ~1e-10 and tests pin
    that agreement, so a single code path serves both.
    """
    if not any(s is not None and not s.is_zero() for s in (U, W)):
        return LipschitzResult(math.inf, True, 0.0)
    return lipschitz_constant(model_b0(U, W))


# ---------------------------------------------------------------------------
# convexity at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityFit:
    c_u: float
    c: float
    radius: float


def convexity_at_infinity_fit(
    U: PotentialSpec,
    W: Optional[PotentialSpec] = None,
    r_max: float | None = None,
    n_r: int = 400,
    verify_pairs: int = 10**4,
    seed: int = 2024,
) -> Optional[ConvexityFit]:
    """Feasible (c_u, c, R) with
       <grad U(x) - grad U(y), x - y> >= c_u |x-y|^2 - c |x-y| 1_{|x-y| <= R}.

    Works off the separation modulus m(r) = inf over pairs at distance r of
    <e, grad U(x) - grad U(y)> / r: for a candidate R the best asymptotic
    constant is c_u = inf_{r >= R} m(r) and the compensation is
    c = max_{r <= R} (c_u - m(r))^+ r.  Among feasible triples the one with
    the largest downstream criterion slack (c_u - K) e^{-cR/4} - 2K is kept
    and re-verified on random pairs before being returned.
    """
    if U.bounded:
        raise InvalidSpecError("convexity at infinity needs quadratic-or-faster growth")
    if U.linear:
        return ConvexityFit(c_u=U.hess_eig_bounds()[0], c=0.0, radius=0.0)

    K = 0.0 if W is None or W.is_zero() else W.hess_op_sup()
    char = U.char_length()
    if r_max is None:
        r_max = 12.0 * char
    rs = np.linspace(r_max / n_r, r_max, n_r)
    span = 8.0 * char + r_max
    # separation modulus m(r): the section search returns -m(r) * r
    m = -section_sup_batch(U, rs, span, n=801) / rs

    suffix_min = np.minimum.accumulate(m[::-1])[::-1]
    best = None
    for i in range(n_r):
        c_u = float(suffix_min[i])
        if c_u <= 0:
            continue
        defect = np.maximum(c_u - m[: i + 1], 0.0) * rs[: i + 1]
        c_val = float(defect.max())
        R = float(rs[i]) if c_val > 0 else 0.0
        slack = (c_u - K) * math.exp(-c_val * R / 4.0) - 2 * K
        if best is None or slack > best[0]:
            best = (slack, c_u, c_val, R)
    if best is None:
        return None
    _, c_u, c_val, R = best

    rng = np.random.default_rng(seed)
    scale = 2.0 * (r_max + char)
    x = rng.uniform(-scale, scale, size=(verify_pairs, U.dim))
    y = rng.uniform(-scale, scale, size=(verify_pairs, U.dim))
    diff = x - y
    sep = np.sqrt((diff**2).sum(axis=1))
    keep = sep > 1e-9
    diff, sep, x, y = diff[keep], sep[keep], x[keep], y[keep]
    lhs = ((U.gradient(x) - U.gradient(y)) * diff).sum(axis=1)
    rhs = c_u * sep**2 - c_val * sep * (sep <= R)
    if np.any(lhs < rhs - 1e-7 * (1 + np.abs(rhs))):
        return None
    return ConvexityFit(c_u=c_u, c=c_val, radius=R)
