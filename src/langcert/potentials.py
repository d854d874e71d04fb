"""Parametric radial potential families and the scalar constants they induce.

Every built-in family is rotationally symmetric, P(x) = g(|x|), and is one
record in ``_FAMILIES``: its parameter schema, closed forms for the radial
profile g, its first two derivatives and psi, chi below, the closed-form
Hessian eigenvalue range (which also gives the Hessian norm bound and
whether P is force-free) and gradient bound, a length scale, and ``poly``:
the coefficients (a2, a4) of g = a2 r^2 + a4 r^4 for the two polynomial
families, absent for the bounded ones (which cannot confine).  Gradients and
Hessians follow from

    grad P(x) = psi(r) x,                 psi(r) = g'(r)/r,
    hess P(x) = psi(r) I + chi(r) x x^T,  chi(r) = (g''(r) - psi(r)) / r^2,

where psi and chi are implemented with stable closed forms (no 0/0 at the
origin); psi is also available in s = r^2 (``psi_sq``), which the pair
force uses to skip the square root.  The Hessian eigenvalues are g''(r) in
the radial direction and psi(r) with multiplicity d-1 tangentially.  For a
polynomial g the Lyapunov offset K2, the b0 part and the separation modulus
have closed forms.  A bounded interaction's b0 part is its family's
``section_sup`` in every d: the bump's is exact in every d, the cosine's
exact in d = 1 and a Hessian-and-gradient envelope above it in d >= 2.

On top of the families, this module extracts everything the certification
pipeline consumes: the interaction Hessian bound K and gradient bound K', a
Lyapunov pair (K1, K2) with |hess U|_op <= K1 |grad U| + K2, the drift
dissipativity rate b0(r), the induced Lipschitz constant c_lip, and a
convexity-at-infinity triple (c_u, c, R).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
    "param_types",
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
VERIFIED = "verified-numeric"  # grid search re-verified on random samples


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """One radial family.  The radial functions map ``(params, r)`` to arrays,
    the bounds map ``params`` to the closed forms that the ``PotentialSpec``
    methods of the same name document.

    The radial derivative psi is written once, as ``psi_sq(params, s, out)``
    with s = r^2, so the pair force never takes a square root: it writes
    psi into the array ``out``, which may be ``s`` itself, and returns it,
    so the pair force's slab buffer is reused.  ``psi`` in r is
    ``psi_sq(params, r**2, r**2)``.  A family whose psi has no closed form
    in r^2 (cosine: a sinc in r) supplies ``psi_r`` instead, and its
    ``psi_sq`` copies ``psi_r(params, sqrt(s))`` into ``out``.
    """

    schema: dict  # parameter name -> predicate on a real value, or the tuple of allowed strings
    g: Callable
    dg: Callable
    d2g: Callable
    psi_sq: Callable
    chi: Callable
    grad_sup: Callable
    hess_eig_bounds: Callable
    char_length: Callable
    poly: Optional[Callable] = None  # (a2, a4) with g = a2 r^2 + a4 r^4; None: bounded
    psi_r: Optional[Callable] = None  # psi in r, where it has no closed form in r^2
    section_sup: Optional[Callable] = None  # bounded: (params, r, d) -> the b0 part, see PotentialSpec.section_sup

    def psi(self, p, r):
        if self.psi_r is not None:
            return self.psi_r(p, r)
        s = np.asarray(r**2)
        return self.psi_sq(p, s, s)


def _quartic_char_length(p) -> float:
    q, w = p["quartic"], p["well"]
    well = math.sqrt(w / (2 * q)) if w > 0 else 0.0
    return max(1.0, well, (1.0 / (4 * q)) ** 0.25)


def _bump_amp(p) -> float:
    """Signed amplitude: an attractive bump is a well, -amplitude at the origin."""
    return (-1.0 if p["sign"] == "attractive" else 1.0) * p["amplitude"]


def _bump_exp(p, s, out=None):
    """exp(-r^2 / 2 width^2) from s = r^2, into ``out`` when given."""
    return np.exp(np.divide(np.negative(s, out=out), 2 * p["width"] ** 2, out=out), out=out)


def _into(out, values):
    """``values`` written into ``out``, which is returned."""
    out[...] = values
    return out


def _bump_eig_bounds(p) -> tuple[float, float]:
    a = p["amplitude"] / p["width"] ** 2
    if p["sign"] == "attractive":
        # radial a(1-u^2)e^{-u^2/2} in [-2a e^{-3/2}, a], tangential in (0, a]
        return -2 * a * math.exp(-1.5), a
    # radial a(u^2-1)e^{-u^2/2} in [-a, 2a e^{-3/2}], tangential in [-a, 0)
    return -a, 2 * a * math.exp(-1.5)


_SQRT3 = math.sqrt(3.0)


def _h(t):
    """h(t) = t exp(-t^2/2); an attractive bump has P' = (a/w) h(y/w)."""
    return t * np.exp(-t * t / 2)


def _q_gap(a, b):
    """A function with the sign of q(a) - q(b), q = h' = (1 - t^2) exp(-t^2/2),
    for 1 <= a <= b: log((b^2 - 1) / (a^2 - 1)) - (b^2 - a^2) / 2.  Written
    as log1p(2 d / (a^2 - 1)) - d with d = (b^2 - a^2) / 2, it keeps its sign
    as b - a -> 0 and as q(b) underflows; it is +inf at a = 1, where q(a) = 0."""
    d = (b - a) * (b + a) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log1p(2 * d / ((a - 1) * (a + 1))) - d


# a bracket inside [1, sqrt3] is under 1 wide and its ends are spaced 2^-52,
# so 53 halvings leave adjacent floats
_BISECTIONS = 53


def _bisect(f, lo, hi, args=()):
    """Roots of f(x, *args) in [lo, hi] with f(lo) >= 0 >= f(hi), elementwise:
    a fixed number of halvings of every bracket at once.  Returns the final
    brackets (lo, hi)."""
    lo, hi, mid = lo.copy(), hi.copy(), np.empty_like(lo)
    for _ in range(_BISECTIONS):
        np.add(lo, hi, out=mid)
        mid /= 2
        up = f(mid, *args) >= 0
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=~up)
    return lo, hi


def _bump_section_sup(p, r, d):
    """The bump's sup_alpha [G(alpha) - G(alpha + r)], G = P', as (a/w) S(r/w).

    It is the supremum in every d: for y = alpha e + beta n and x = y + r e,
    -<e, grad P(x) - grad P(y)> = exp(-beta^2 / 2 w^2) [G(alpha) - G(alpha +
    r)], and the bracket's supremum is positive for r > 0, so beta = 0
    attains it.

    At rho = r/w, S is the sup of h(u) - h(u + rho) (attractive) or of
    h(s) + h(rho - s) (repulsive); critical points solve q(u) = q(u + rho),
    resp. q(s) = q(rho - s).  Attractive: a window that meets (-1, 1) is
    never best, so up to the mirror u -> -u - rho, u lies in [max(1, sqrt3 -
    rho), sqrt3], where q(u) falls and q(u + rho) rises: one root, with
    opposite signs at the ends.  Repulsive: h is subadditive on [0, inf), so
    s < 0 is dominated, and an off-centre critical point needs s in (1,
    sqrt3) and rho > 2 sqrt3; S is 2 h(rho/2), or above that the larger of it
    and h(s*) + h(rho - s*) at the root s* in [1, sqrt3].  All roots come from
    one ``_bisect`` call, and S is taken at the lower end of each final
    bracket.
    """
    rho = np.asarray(r, dtype=float) / p["width"]
    if p["sign"] == "attractive":
        lo, hi = np.maximum(1.0, _SQRT3 - rho), np.full_like(rho, _SQRT3)
        u = _bisect(lambda u, rho: _q_gap(u, u + rho), lo, hi, (rho,))[0]
        S = _h(u) - _h(u + rho)
    else:
        S = 2 * _h(rho / 2)
        far = rho > 2 * _SQRT3
        rf = rho[far]
        s = _bisect(lambda s, rf: _q_gap(s, rf - s), np.ones_like(rf), np.full_like(rf, _SQRT3), (rf,))[0]
        S[far] = np.maximum(S[far], _h(s) + _h(rf - s))
    return p["amplitude"] / p["width"] * S


def _cosine_section_sup(p, r, d):
    """In d = 1, G(alpha) - G(alpha + r) = 2 A f cos(f alpha + f r/2) sin(f r/2)
    with G = -A f sin(f y), whose supremum is 2 |A f sin(f r/2)|.  In d >= 2
    the supremum leaves the section line.  There the section objective equals
    -r Int_0^1 e^T hess W(y + t r e) e dt and is at most |grad W(x)| +
    |grad W(y)|, so it is bounded by min(max(-lambda_min, 0) r, 2 K') with
    lambda_min = -|A| f^2 and K' = |A f|, that is 2 |A f| min(|f r/2|, 1):
    the d = 1 form with |sin t| raised to min(|t|, 1), so it stays above
    that form in float as well."""
    t = p["frequency"] * r / 2
    return 2 * np.abs(p["amplitude"] * p["frequency"] * (np.sin(t) if d == 1 else np.minimum(np.abs(t), 1.0)))


def _cosine_psi(p, r):
    return -p["amplitude"] * p["frequency"] ** 2 * np.sinc(p["frequency"] * r / np.pi)


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
        psi_sq=lambda p, s, out: _into(out, p["coef"]),
        chi=lambda p, r: np.zeros_like(r),
        grad_sup=lambda p: 0.0 if p["coef"] == 0.0 else math.inf,
        hess_eig_bounds=lambda p: (p["coef"], p["coef"]),
        char_length=lambda p: 1.0 / math.sqrt(p["coef"]) if p["coef"] > 0 else 1.0,
        poly=lambda p: (0.5 * p["coef"], 0.0),
    ),
    # quartic |x|^4 - well |x|^2
    "quartic_double_well": _Family(
        schema={"quartic": lambda v: v > 0.0, "well": lambda v: v >= 0.0},
        g=lambda p, r: p["quartic"] * r**4 - p["well"] * r**2,
        dg=lambda p, r: 4 * p["quartic"] * r**3 - 2 * p["well"] * r,
        d2g=lambda p, r: 12 * p["quartic"] * r**2 - 2 * p["well"],
        psi_sq=lambda p, s, out: np.subtract(np.multiply(s, 4 * p["quartic"], out=out), 2 * p["well"],
                                             out=out),
        chi=lambda p, r: np.full_like(r, 8 * p["quartic"]),
        grad_sup=lambda p: math.inf,
        hess_eig_bounds=lambda p: (-2 * p["well"], math.inf),
        char_length=_quartic_char_length,
        poly=lambda p: (-p["well"], p["quartic"]),
    ),
    # -+ amplitude exp(-|x|^2 / 2 width^2), minus sign for an attractive bump
    "gaussian_bump": _Family(
        schema={
            "amplitude": lambda v: v >= 0.0,
            "width": lambda v: v > 0.0,
            "sign": ("attractive", "repulsive"),
        },
        g=lambda p, r: _bump_amp(p) * _bump_exp(p, r**2),
        dg=lambda p, r: -_bump_amp(p) * r / p["width"] ** 2 * _bump_exp(p, r**2),
        d2g=lambda p, r: -_bump_amp(p) / p["width"] ** 2 * (1 - r**2 / p["width"] ** 2) * _bump_exp(p, r**2),
        psi_sq=lambda p, s, out: np.multiply(_bump_exp(p, s, out), -_bump_amp(p) / p["width"] ** 2, out=out),
        chi=lambda p, r: _bump_amp(p) / (p["width"] ** 2) ** 2 * _bump_exp(p, r**2),
        grad_sup=lambda p: p["amplitude"] / p["width"] * math.exp(-0.5),
        hess_eig_bounds=_bump_eig_bounds,
        char_length=lambda p: p["width"],
        section_sup=_bump_section_sup,
    ),
    # amplitude cos(frequency |x|)
    "cosine": _Family(
        schema={"amplitude": lambda v: True, "frequency": lambda v: v != 0.0},
        g=lambda p, r: p["amplitude"] * np.cos(p["frequency"] * r),
        dg=lambda p, r: -p["amplitude"] * p["frequency"] * np.sin(p["frequency"] * r),
        d2g=lambda p, r: -p["amplitude"] * p["frequency"] ** 2 * np.cos(p["frequency"] * r),
        psi_sq=lambda p, s, out: _into(out, _cosine_psi(p, np.sqrt(s))),
        chi=_cosine_chi,
        grad_sup=lambda p: abs(p["amplitude"]) * abs(p["frequency"]),
        hess_eig_bounds=lambda p: (-abs(p["amplitude"]) * p["frequency"] ** 2,
                                   abs(p["amplitude"]) * p["frequency"] ** 2),
        char_length=lambda p: 2 * math.pi / abs(p["frequency"]),
        psi_r=_cosine_psi,
        section_sup=_cosine_section_sup,
    ),
}
FAMILIES = tuple(_FAMILIES)


def param_types(family) -> dict:
    """Parameter name -> ``float`` or ``str``, the type each parameter of the
    family takes; empty for an unknown family."""
    fam = _FAMILIES.get(family) if isinstance(family, str) else None
    return {k: str if isinstance(rule, tuple) else float for k, rule in fam.schema.items()} if fam else {}


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
        ``_FAMILIES`` schema, and rejected when the closed-form bounds or the
        length scale leave the float range.
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
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise InvalidSpecError(f"unknown family {self.family!r}")
        if self.role not in ROLES:
            raise InvalidSpecError(f"unknown role {self.role!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise InvalidSpecError(f"dim must be an integer >= 1, got {self.dim!r}")
        schema = _FAMILIES[self.family].schema
        unknown = set(self.params) - set(schema)
        if unknown:
            raise InvalidSpecError(f"unknown params for {self.family}: {sorted(unknown)}")
        for name, rule in schema.items():
            if name not in self.params:
                raise InvalidSpecError(f"{self.family} requires param {name!r}")
            v = self.params[name]
            if isinstance(rule, tuple):
                ok = isinstance(v, str) and v in rule
            elif isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise InvalidSpecError(f"param {name} must be a number, got {v!r}")
            else:
                ok = rule(v)
            if not ok:
                raise InvalidSpecError(f"param {name}={v!r} out of range")
        try:
            self.hess_eig_bounds(), self.grad_sup()
            in_range = math.isfinite(self.char_length())
        except ArithmeticError:
            in_range = False
        if not in_range:
            raise InvalidSpecError(
                f"{self.family} params {self.params} are out of float range: "
                "its closed-form bounds cannot be evaluated")
        if self.role == "confinement" and self.bounded:
            raise InvalidSpecError(
                f"{self.family} is bounded and cannot confine (non-integrable Gibbs measure)"
            )

    @property
    def linear(self) -> bool:
        """grad P(x) = a x with a constant a = hess_eig_bounds()[0]."""
        return not self.bounded and self.poly()[1] == 0.0

    @property
    def bounded(self) -> bool:
        """P is bounded, so it cannot serve as the confinement."""
        return _FAMILIES[self.family].poly is None

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

    def psi_sq(self, s, out=None):
        """psi(sqrt(s)) for s = r^2 >= 0, without a square root where the
        family has a closed form in r^2.  Written into ``out`` when given (a
        float array of the shape of ``s``, which may be ``s`` itself)."""
        s = np.asarray(s, dtype=float)
        return _FAMILIES[self.family].psi_sq(self.params, s, np.empty_like(s) if out is None else out)

    def section_sup(self, r):
        """sup_{|x - y| = r} -<(x - y)/r, grad P(x) - grad P(y)> for a bounded P,
        in closed form: exact for the bump in every d and for the cosine in
        d = 1, an upper bound for the cosine in d >= 2."""
        return _FAMILIES[self.family].section_sup(self.params, np.asarray(r, dtype=float), self.dim)

    def chi(self, r):
        """(g''(r) - psi(r)) / r^2, finite at r = 0."""
        return _FAMILIES[self.family].chi(self.params, np.asarray(r, dtype=float))

    # -- point evaluation -------------------------------------------------

    def value(self, x):
        """P(x) for x of shape (..., dim)."""
        x = self._as_points(x)
        return self.profile(np.sqrt((x**2).sum(axis=-1)))

    def gradient(self, x):
        """grad P(x), shape (..., dim).  In d = 1 psi comes from s = x^2 without a
        square root, the bytes of psi(sqrt(s)): sqrt(s)^2 rounds back to s, and
        where s is subnormal (|x| < 1.5e-154) psi is psi(0) either way."""
        x = self._as_points(x)
        s = (x**2).sum(axis=-1)
        psi = self.psi_sq(s) if self.dim == 1 else self.psi(np.sqrt(s))
        return psi[..., None] * x

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
        """sup_x |hess P(x)|_op: the larger magnitude of ``hess_eig_bounds``."""
        return max(abs(b) for b in self.hess_eig_bounds())

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
        """P is force-free: its Hessian vanishes everywhere (zero coefficient
        or amplitude), so P is constant."""
        return self.hess_op_sup() == 0

    def poly(self) -> tuple[float, float]:
        """(a2, a4) with g(r) = a2 r^2 + a4 r^4; only for unbounded families."""
        return _FAMILIES[self.family].poly(self.params)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "dim": self.dim}


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
    ``criterion-derived`` and ``verified-numeric`` (a grid search
    re-verified on random pairs; only ``assemble_constants`` gives it, to
    the convexity triple of a non-quadratic U).  Every grade except
    ``numeric-estimate`` certifies.
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


# ---------------------------------------------------------------------------
# Lyapunov pair
# ---------------------------------------------------------------------------

def lyapunov_offsets(spec: PotentialSpec, k1s) -> list[float]:
    """Smallest K2 with |hess P|_op <= k1 |grad P| + K2, for each K1 in ``k1s``.

    For g = a2 r^2 + a4 r^4 the defect is D(r) = max(|g''|, |psi| if d >= 2)
    - k1 |g'|.  On [0, r0], r0 = sqrt(-a2 / 2 a4) if a2 < 0 else 0, g'' and
    psi are monotone with |psi| <= |g''(0)| and g' vanishes at both ends, so
    D peaks at an end.  On [r0, inf), 0 <= psi <= g'' and g' >= 0, so D is
    the cubic g'' - k1 g', whose maximum is at r* = (1 + sqrt(1 - k1^2 a2 /
    6 a4)) / k1.  Hence sup D = max(D(0), D(r0), D(r*)) in every d, and +inf
    for k1 = 0 when a4 > 0.
    """
    if spec.bounded:
        raise InvalidSpecError(f"{spec.family} is bounded: no Lyapunov pair")
    a2, a4 = spec.poly()
    k1 = np.asarray(k1s, dtype=float)[:, None]
    r0 = math.sqrt(-a2 / (2 * a4)) if a2 < 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_star = (1 + np.sqrt(1 - k1**2 * a2 / (6 * a4))) / k1
    r = np.concatenate([np.zeros_like(k1), np.full_like(k1, r0), r_star], axis=1)
    r = np.where(np.isfinite(r), r, 0.0)  # no r* for k1 = 0 or a4 = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing profile leaves K2 nan: infeasible
        sup = (np.abs(spec.d2profile(r)) - k1 * np.abs(spec.dprofile(r))).max(axis=1)
    return np.where((k1[:, 0] == 0) & (a4 > 0), math.inf, np.maximum(sup, 0.0)).tolist()


def select_lyapunov_pair(
    spec: PotentialSpec,
    objective: Callable[[float, float], float],
) -> tuple[float, float]:
    """Pick (K1, K2) over a log grid of K1 minimizing ``objective(K1, K2)``."""
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

    K and K' are closed forms per family, both 0 for an absent or force-free
    W.  A quadratic interaction has a constant Hessian but a linear gradient,
    so K' comes back as the +inf flag and certification must go through the
    log-Sobolev route.
    """
    if U.role != "confinement":
        raise InvalidSpecError("U must have the confinement role")
    if W is not None and W.role != "interaction":
        raise InvalidSpecError("W must have the interaction role")
    if W is not None and W.dim != U.dim:
        raise InvalidSpecError("U and W dimensions differ")
    K, K_prime = (0.0, 0.0) if W is None else (W.hess_op_sup(), W.grad_sup())

    from .certifier import constants_bounded_grad  # certifier imports this module

    d = U.dim
    kp_eff = K_prime if math.isfinite(K_prime) else 0.0

    def objective(k1, k2):
        # the thm3 M of the pair, floored at 1; a pair whose C1 or C2
        # overflows is infeasible
        try:
            return max(constants_bounded_grad(K, kp_eff, k1, k2, d).M, 1.0)
        except InvalidSpecError:
            return math.inf

    k1, k2 = select_lyapunov_pair(U, objective)
    if not U.linear:
        # outward margin for the rounding of the candidate evaluations (an
        # over-estimate of K2 only weakens the certified rate, never its validity)
        k2 = k2 * (1 + 1e-9) + 1e-12
    prov = {"K": ANALYTIC, "K_prime": ANALYTIC, "K1": ANALYTIC, "K2": ANALYTIC}
    return ConstantsBundle(K=K, K_prime=K_prime, K1=k1, K2=k2, d=d, provenance=prov)


# ---------------------------------------------------------------------------
# dissipativity rate b0 and the Lipschitz constant it induces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzResult:
    value: float
    converged: bool
    s_max: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


# the c_lip domain [0, 16] doubles at most 12 times, until the tail bound
# falls below 1e-10 of the running value
_CLIP_S0 = 16.0
_CLIP_REL_TAIL = 1e-10
_CLIP_DOUBLINGS = 12


def _simpson_pieces(y, dx):
    """Integral over each [x_k, x_k+1] of the parabola through the samples
    at x_k, x_k+1, x_k+2, for node spacings dx (Cartwright's eqn (8))."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1] - x21x21_x31x32 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Int_{x_0}^{x_k} y for every node k by the composite Simpson rule on
    increasing nodes x (at least 3), summed in order: interval k takes the
    parabola through nodes k..k+2 for even k and through k-1..k+1 for odd k
    and for the last interval.  This is ``scipy.integrate.cumulative_simpson(
    y, x=x, initial=0.0)`` to the bit."""
    dx = np.diff(x)
    right = _simpson_pieces(y, dx)
    left = _simpson_pieces(y[::-1], dx[::-1])[::-1]
    pieces = np.empty_like(y)
    pieces[0] = 0.0
    pieces[1:-1:2] = right[::2]
    pieces[2::2] = left[::2]
    pieces[-1] = left[-1]
    return np.cumsum(pieces)


def lipschitz_constant(b0: Callable[[np.ndarray], np.ndarray]) -> LipschitzResult:
    """c_lip = (1/4) Int_0^inf exp{(1/4) Int_0^s b0(u) du} s ds.

    Cumulative Simpson rule on a uniform grid for both nested integrals; the
    domain doubles until the analytic tail bound (built from the largest b0
    sample over the last quarter of the domain) falls below
    ``_CLIP_REL_TAIL`` of the running value.  A non-integrable tail comes
    back as the +inf flag.
    """
    s_max = _CLIP_S0
    for _ in range(_CLIP_DOUBLINGS):
        n = max(4097, min(int(s_max * 256) + 1, 2_000_001))
        s = np.linspace(0.0, s_max, n)
        b = np.asarray(b0(s), dtype=float)
        inner = _cumulative_simpson(b, s) / 4.0
        if inner[-1] > 700.0:
            return LipschitzResult(math.inf, True, s_max)
        integrand = 0.25 * np.exp(inner) * s
        value = float(_cumulative_simpson(integrand, s)[-1])
        b_tail = float(b[int(0.75 * n):].max())
        if b_tail < 0.0:
            beta = -b_tail / 4.0
            try:
                tail = 0.25 * math.exp(inner[-1]) * (s_max / beta + 1.0 / beta**2)
            except ArithmeticError:  # beta**2 underflows to 0: no usable bound
                tail = math.inf
            if value > 0 and tail < _CLIP_REL_TAIL * value:
                return LipschitzResult(value, True, s_max)
        s_max *= 2.0
    return LipschitzResult(math.inf, False, s_max)


def model_b0(U: PotentialSpec, W: Optional[PotentialSpec]) -> Callable[[np.ndarray], np.ndarray]:
    """Worst-case radial contraction of the drift, vectorized over separations r:

        b0(r) = sup_{|x-y| = r, z} -< (x-y)/r, grad U(x) - grad U(y)
                                         + grad W(x-z) - grad W(y-z) >.

    The supremum splits into independent confinement and interaction parts
    because z is unconstrained.  A polynomial part g = a2 r^2 + a4 r^4 is
    exactly -(2 a2 r + a4 r^3), attained at y = -x = -r e / 2, since
    <|x|^2 x - |y|^2 y, x - y> >= |x - y|^4 / 4.  A bounded part is
    ``PotentialSpec.section_sup`` over all r at once, in closed form: the
    exact supremum, or for the cosine in d >= 2 an upper bound, so b0 never
    under-estimates.  A force-free part adds 0.  All parts clamp r to >= 1e-9.
    """
    specs = [s for s in (U, W) if s is not None]
    a2 = sum(s.poly()[0] for s in specs if not s.bounded)
    a4 = sum(s.poly()[1] for s in specs if not s.bounded)
    bounded = [s for s in specs if s.bounded]

    def b0_vec(rs):
        rr = np.maximum(np.atleast_1d(np.asarray(rs, dtype=float)), 1e-9)
        out = -(2 * a2 * rr + a4 * rr**3)
        for spec in bounded:
            out += spec.section_sup(rr)
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


# the separation modulus grid covers (0, 12 char_length] in 400 steps; the
# chosen triple is then re-verified on 1e4 random pairs
_CONV_SPAN = 12.0
_CONV_NODES = 400
_CONV_PAIRS = 10**4
_CONV_SEED = 2024


def convexity_at_infinity_fit(U: PotentialSpec, W: Optional[PotentialSpec] = None) -> Optional[ConvexityFit]:
    """Feasible (c_u, c, R) with
       <grad U(x) - grad U(y), x - y> >= c_u |x-y|^2 - c |x-y| 1_{|x-y| <= R}.

    Works off the separation modulus m(r) = inf over pairs at distance r of
    <e, grad U(x) - grad U(y)> / r, which is 2 a2 + a4 r^2 for g = a2 r^2 +
    a4 r^4 (the b0 closed form over r).  On a grid of r, for a candidate R
    the best asymptotic constant is c_u = inf_{r >= R} m(r) and the
    compensation is c = max_{r <= R} (c_u - m(r))^+ r.  Among feasible
    triples the one with the largest downstream criterion slack
    (c_u - K) e^{-cR/4} - 2K is kept and re-verified on random pairs before
    being returned.
    """
    if U.bounded:
        raise InvalidSpecError("convexity at infinity needs quadratic-or-faster growth")
    if U.linear:
        return ConvexityFit(c_u=U.hess_eig_bounds()[0], c=0.0, radius=0.0)

    K = 0.0 if W is None else W.hess_op_sup()
    char = U.char_length()
    r_max = _CONV_SPAN * char
    rs = np.linspace(r_max / _CONV_NODES, r_max, _CONV_NODES)
    a2, a4 = U.poly()
    m = 2 * a2 + a4 * rs**2

    suffix_min = np.minimum.accumulate(m[::-1])[::-1]
    best = None
    for i in range(_CONV_NODES):
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

    rng = np.random.default_rng(_CONV_SEED)
    scale = 2.0 * (r_max + char)
    x = rng.uniform(-scale, scale, size=(_CONV_PAIRS, U.dim))
    y = rng.uniform(-scale, scale, size=(_CONV_PAIRS, U.dim))
    diff = x - y
    sep = np.sqrt((diff**2).sum(axis=1))
    keep = sep > 1e-9
    diff, sep, x, y = diff[keep], sep[keep], x[keep], y[keep]
    lhs = ((U.gradient(x) - U.gradient(y)) * diff).sum(axis=1)
    rhs = c_u * sep**2 - c_val * sep * (sep <= R)
    if np.any(lhs < rhs - 1e-7 * (1 + np.abs(rhs))):
        return None
    return ConvexityFit(c_u=c_u, c=c_val, radius=R)
