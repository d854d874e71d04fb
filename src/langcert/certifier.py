"""Hypocoercive rate certification: boundedness constants, the twisted-norm
coefficients (a, b, c, lambda0), the 4x4 coercivity matrices, and the final
certificate (lambda, C0).

The pipeline is a pure function of the scalar constants bundle: the particle
count N never appears in any signature, which is precisely the point of the
construction.  Two routes produce the mixed-derivative boundedness constants

    bounded-gradient route:  C1 = 50 K1^2,
                             C2 = 4 K2^2 + 25 K1^4 d^2 / 4 + 25 K'^2 K1^2 / 2,
    log-Sobolev route:       C1 = 50 K1^2 (1 + 4 K^2 C_LS^2),
                             C2 = 4 K2^2 + 25 K1^4 d^2 / 4
                                  + 50 ln2 d K^2 K1^2 C_LS,

and both feed  M = max(2 C1, 2 C2 + 2 K^2)  or the split pair
M1 = 2 C1, M2 = 2 C2 + 2 K^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidSpecError, MissingConstantError
from . import funcineq
from . import potentials as pot
from .potentials import ConstantsBundle, PotentialSpec

__all__ = [
    "BoundednessConstants",
    "Coefficients",
    "Certificate",
    "constants_bounded_grad",
    "constants_lsi",
    "default_coefficients",
    "improved_coefficients",
    "build_T",
    "build_Tprime",
    "verify_coercivity",
    "rate_lambda",
    "norm_equivalence",
    "certify",
    "assemble_constants",
    "refine_coefficients",
]

PSD_TOL = -1e-12


@dataclass(frozen=True)
class BoundednessConstants:
    """C1/C2 with the single constant M and the split pair (M1, M2)."""

    C1: float
    C2: float
    K: float
    mode: str  # "thm3" or "thm4"

    @property
    def M(self) -> float:
        return max(2 * self.C1, 2 * self.C2 + 2 * self.K**2)

    @property
    def M1(self) -> float:
        return 2 * self.C1

    @property
    def M2(self) -> float:
        return 2 * self.C2 + 2 * self.K**2


def constants_bounded_grad(K: float, K_prime: float, K1: float, K2: float, d: int) -> BoundednessConstants:
    """C1, C2 for the bounded-interaction-gradient route (needs K' finite)."""
    if not math.isfinite(K_prime):
        raise MissingConstantError("K_prime", "grad W unbounded: use the log-Sobolev route (constants_lsi)")
    C1 = 50.0 * K1**2
    C2 = 4.0 * K2**2 + 25.0 * K1**4 * d**2 / 4.0 + 25.0 * K_prime**2 * K1**2 / 2.0
    return BoundednessConstants(C1=C1, C2=C2, K=K, mode="thm3")


def constants_lsi(K: float, K1: float, K2: float, C_LS: float, d: int) -> BoundednessConstants:
    """C1, C2 for the log-Sobolev route (no gradient bound on W needed)."""
    if C_LS is None or C_LS <= 0:
        raise MissingConstantError("C_LS", "provide a log-Sobolev constant or a curvature bound")
    C1 = 50.0 * K1**2 * (1.0 + 4.0 * K**2 * C_LS**2)
    C2 = 4.0 * K2**2 + 25.0 * K1**4 * d**2 / 4.0 + 50.0 * math.log(2.0) * d * K**2 * K1**2 * C_LS
    return BoundednessConstants(C1=C1, C2=C2, K=K, mode="thm4")


@dataclass(frozen=True)
class Coefficients:
    a: float
    b: float
    c: float
    lambda0: float
    variant: str  # "single", "split_case1", "split_case2", "refined"


def default_coefficients(M: float) -> Coefficients:
    """The fixed working choice a = 1/25M, b = 1/200M^2, c = 1/800M^3,
    lambda0 = 1/440M^2, valid for M >= 1 (smaller M is clamped to 1)."""
    M = max(M, 1.0)
    return Coefficients(
        a=1.0 / (25.0 * M),
        b=1.0 / (200.0 * M**2),
        c=1.0 / (800.0 * M**3),
        lambda0=1.0 / (440.0 * M**2),
        variant="single",
    )


def build_T(a: float, b: float, c: float, M: float) -> np.ndarray:
    """Symmetric 4x4 coercivity matrix for the single boundedness constant.

    Quadratic-form order: (|grad_v h|, |grad_v^2 h|, |grad_x h|, |grad_xv^2 h|).
    """
    s = math.sqrt(M)
    return np.array(
        [
            [1.0 + a - b * s, 0.0, -(a + b + c * s) / 2.0, -b * s / 2.0],
            [0.0, a, 0.0, -b],
            [-(a + b + c * s) / 2.0, 0.0, b, -c * s / 2.0],
            [-b * s / 2.0, -b, -c * s / 2.0, c],
        ]
    )


def build_Tprime(a: float, b: float, c: float, M1: float, M2: float) -> np.ndarray:
    """Symmetric 4x4 coercivity matrix for the split pair (M1, M2).

    The sqrt(M2) terms come from bounding the |grad_v h| factor and sit in
    the first row/column; the mixed-Hessian factors carry sqrt(M1), so the
    (1,4) and (3,4) couplings are -b sqrt(M1)/2 and -c sqrt(M1)/2.  The
    matrix is symmetrized before eigen-analysis (a no-op for these entries;
    only the quadratic form matters).
    """
    s1, s2 = math.sqrt(M1), math.sqrt(M2)
    T = np.array(
        [
            [1.0 + a - b * s2, 0.0, -(a + b + c * s2) / 2.0, -b * s1 / 2.0],
            [0.0, a, 0.0, -b],
            [-(a + b + c * s2) / 2.0, 0.0, b, -c * s1 / 2.0],
            [-b * s1 / 2.0, -b, -c * s1 / 2.0, c],
        ]
    )
    return (T + T.T) / 2.0


def verify_coercivity(T: np.ndarray, lambda0: float) -> float:
    """Min eigenvalue of S = T - Diag(lambda0, 0, lambda0, 0).

    The certificate is valid iff the witness is >= -1e-12.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4) or not np.allclose(T, T.T, atol=0.0):
        raise InvalidSpecError("verify_coercivity needs a symmetric 4x4 matrix")
    S = T - np.diag([lambda0, 0.0, lambda0, 0.0])
    return float(np.linalg.eigvalsh(S)[0])


def rate_lambda(lambda0: float, a: float, c: float, kappa: float) -> float:
    """lambda = lambda0 min{ 1/(2a+1), kappa/(2c kappa + 1) }."""
    return lambda0 * min(1.0 / (2.0 * a + 1.0), kappa / (2.0 * c * kappa + 1.0))


def norm_equivalence(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Equivalence constants c1, c2 between the twisted norm and H^1, and C0.

    The twisted square norm is ||h||^2 + q(grad_v h, grad_x h) with q the
    2x2 form [[a, b], [b, c]]; hence c1^2 = min(1, eig_min q) and
    c2^2 = max(1, eig_max q).  Positivity of c1 requires b^2 < a c.
    """
    if b * b >= a * c:
        raise InvalidSpecError(f"norm equivalence degenerate: b^2 = {b*b:g} >= ac = {a*c:g}")
    Q = np.array([[a, b], [b, c]])
    eigs = np.linalg.eigvalsh(Q)
    c1 = math.sqrt(min(1.0, float(eigs[0])))
    c2 = math.sqrt(max(1.0, float(eigs[1])))
    return c1, c2, c2 / c1


# Exact rationals for the split route, case M1 <= 1; they solve
# beta = (alpha + beta + gamma)^2, alpha gamma = 2 beta^2, gamma = 3 beta / 8.
CASE1_ALPHA = 3072.0 / 25921.0
CASE1_BETA = 576.0 / 25921.0
CASE1_GAMMA = 216.0 / 25921.0


def _split_conditions_hold(a: float, b: float, c: float, lambda0: float, M1: float, M2: float) -> bool:
    """Sufficient conditions for T' >= Diag(lambda0, 0, lambda0, 0)."""
    s1, s2 = math.sqrt(M1), math.sqrt(M2)
    tol = 1e-12
    return (
        b * s2 <= 0.25 + tol
        and lambda0 <= 0.25 + tol
        and 0.5 * (b / 2.0) + tol >= ((a + b + c * s2) / 2.0) ** 2
        and a * c / 8.0 + tol * a * c >= (b * s1 / 2.0) ** 2
        and a * c / 2.0 + tol * a * c >= b * b
        and (b / 4.0) * (3.0 * c / 8.0) + tol * b * c >= (c * s1 / 2.0) ** 2
    )


def improved_coefficients(M1: float, M2: float) -> tuple[Coefficients, list[str]]:
    """Split-constant coefficients with rate of order 1/sqrt(M2).

    Case M1 <= 1 uses the exact rationals alpha = 3072/25921,
    beta = 576/25921, gamma = 216/25921 with a = alpha M^{-1/4},
    b = beta M^{-1/2}, c = gamma M^{-3/4}, lambda0 = b/4, M = max(1, M2).
    Case M1 > 1 solves the corresponding equality system,

        b = (16 M1^2/3 + 1 + 3 sqrt(M2)/(8 M1))^{-2},
        a = (16/3) M1^2 b,   c = 3 b / (8 M1).

    Every candidate is checked against the sufficient PSD conditions and the
    eigenvalue witness of T'; on failure the single-constant defaults at
    max(1, M1, M2) are returned with a diagnostic.
    """
    if M1 <= 0 or M2 <= 0:
        raise InvalidSpecError("M1, M2 must be positive")
    notes: list[str] = []
    M = max(1.0, M2)
    if M1 <= 1.0:
        cand = Coefficients(
            a=CASE1_ALPHA / M**0.25,
            b=CASE1_BETA / M**0.5,
            c=CASE1_GAMMA / M**0.75,
            lambda0=CASE1_BETA / (4.0 * M**0.5),
            variant="split_case1",
        )
        candidates = [cand]
    else:
        denom = 16.0 * M1**2 / 3.0 + 1.0 + 3.0 * math.sqrt(M2) / (8.0 * M1)
        b = 1.0 / denom**2
        candidates = [
            Coefficients(a=16.0 * M1**2 * b / 3.0, b=b, c=3.0 * b / (8.0 * M1),
                         lambda0=b / 4.0, variant="split_case2")
        ]
    for cand in candidates:
        ok = _split_conditions_hold(cand.a, cand.b, cand.c, cand.lambda0, M1, M2)
        if not ok:
            notes.append(f"{cand.variant}: sufficient conditions violated")
            continue
        witness = verify_coercivity(build_Tprime(cand.a, cand.b, cand.c, M1, M2), cand.lambda0)
        if witness < PSD_TOL:
            notes.append(f"{cand.variant}: PSD witness {witness:.3e} below tolerance")
            continue
        return cand, notes
    fallback = default_coefficients(max(1.0, M1, M2))
    notes.append("split construction failed; falling back to single-constant defaults")
    return fallback, notes


def refine_coefficients(
    coeffs: Coefficients,
    M: float,
    M1: Optional[float],
    M2: Optional[float],
    kappa: float,
    n_rounds: int = 3,
) -> Coefficients:
    """Coordinate search around a valid coefficient set, maximizing lambda
    subject to the PSD witness and b^2 < ac.  Never replaces the literal
    choice in reports; callers store it alongside.
    """
    split = M1 is not None and M2 is not None

    def valid_lambda(a, b, c, lam0):
        if min(a, b, c, lam0) <= 0 or b * b >= a * c:
            return None
        T = build_Tprime(a, b, c, M1, M2) if split else build_T(a, b, c, M)
        if verify_coercivity(T, lam0) < PSD_TOL:
            return None
        return rate_lambda(lam0, a, c, kappa)

    best = (coeffs.a, coeffs.b, coeffs.c, coeffs.lambda0)
    best_lam = valid_lambda(*best)
    if best_lam is None:
        return coeffs
    factors = (0.5, 0.8, 1.0, 1.25, 2.0, 4.0)
    for _ in range(n_rounds):
        improved = False
        for k in range(4):
            for f in factors:
                trial = list(best)
                trial[k] *= f
                lam = valid_lambda(*trial)
                if lam is not None and lam > best_lam * (1 + 1e-12):
                    best, best_lam, improved = tuple(trial), lam, True
        if not improved:
            break
    return Coefficients(a=best[0], b=best[1], c=best[2], lambda0=best[3], variant="refined")


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

CERTIFYING_PROVENANCE = {pot.ANALYTIC, pot.USER, pot.CRITERION, pot.VERIFIED}


@dataclass
class Certificate:
    """Everything the certification run produced, paper-literal channel first."""

    mode: str
    variant: str
    a: float
    b: float
    c: float
    lambda0: float
    lam: float
    C0: float
    c1: float
    c2: float
    psd_witness: float
    M: float
    M1: float
    M2: float
    C1: float
    C2: float
    kappa: float
    T: np.ndarray
    inputs: Optional[ConstantsBundle] = None
    certified: bool = False
    notes: list = field(default_factory=list)
    refined: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "schema_version": "1",
            "mode": self.mode,
            "variant": self.variant,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "lambda0": self.lambda0,
            "lambda": self.lam,
            "C0": self.C0,
            "c1": self.c1,
            "c2": self.c2,
            "psd_witness": self.psd_witness,
            "M": self.M,
            "M1": self.M1,
            "M2": self.M2,
            "C1": self.C1,
            "C2": self.C2,
            "kappa": self.kappa,
            "T": [[float(v) for v in row] for row in self.T],
            "inputs": self.inputs.to_json() if self.inputs is not None else None,
            "certified": self.certified,
            "notes": list(self.notes),
        }
        if self.refined is not None:
            out["refined"] = self.refined
        return out


def certify(
    bundle: ConstantsBundle,
    mode: str = "auto",
    use_split: bool = False,
    refine: bool = False,
) -> Certificate:
    """Run the full pipeline on a constants bundle.

    mode ``thm3`` requires a finite K' and a Poincare constant kappa; mode
    ``thm4`` requires C_LS (kappa falls back to 1/C_LS, since a log-Sobolev
    inequality implies a Poincare inequality with that constant).  ``auto``
    prefers thm3 when its prerequisites hold.  The certificate is marked
    certified only when every input constant has certifying provenance and
    the PSD witness passes.
    """
    if mode not in ("auto", "thm3", "thm4"):
        raise InvalidSpecError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "thm3" if math.isfinite(bundle.K_prime) and bundle.kappa is not None else "thm4"

    if mode == "thm3":
        if not math.isfinite(bundle.K_prime):
            raise MissingConstantError("K_prime", "grad W unbounded: provide C_LS and use mode thm4")
        if bundle.kappa is None:
            raise MissingConstantError(
                "kappa", "no Poincare constant: supply one, or derive via Bakry-Emery / "
                "dissipativity (kappa_dissipativity) / convexity criterion (upi_criterion)")
        bc = constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
        kappa = bundle.kappa
    else:
        if bundle.C_LS is None:
            raise MissingConstantError(
                "C_LS", "no log-Sobolev constant: supply one, or derive via Bakry-Emery / "
                "Zegarlinski transfer (lsi_transfer)")
        bc = constants_lsi(bundle.K, bundle.K1, bundle.K2, bundle.C_LS, bundle.d)
        kappa = max(bundle.kappa or 0.0, 1.0 / bundle.C_LS)

    notes: list[str] = []
    if use_split:
        coeffs, split_notes = improved_coefficients(bc.M1, bc.M2)
        notes.extend(split_notes)
        if coeffs.variant == "single":
            T = build_T(coeffs.a, coeffs.b, coeffs.c, max(1.0, bc.M1, bc.M2))
        else:
            T = build_Tprime(coeffs.a, coeffs.b, coeffs.c, bc.M1, bc.M2)
    else:
        coeffs = default_coefficients(bc.M)
        T = build_T(coeffs.a, coeffs.b, coeffs.c, max(1.0, bc.M))

    witness = verify_coercivity(T, coeffs.lambda0)
    c1, c2, C0 = norm_equivalence(coeffs.a, coeffs.b, coeffs.c)
    lam = rate_lambda(coeffs.lambda0, coeffs.a, coeffs.c, kappa)

    needed = ["K", "K1", "K2"]
    if mode == "thm3":
        needed += ["K_prime", "kappa"]
    else:
        needed += ["C_LS"]
    prov_ok = all(bundle.provenance.get(k, pot.NUMERIC) in CERTIFYING_PROVENANCE for k in needed)
    if not prov_ok:
        weak = [k for k in needed if bundle.provenance.get(k, pot.NUMERIC) not in CERTIFYING_PROVENANCE]
        notes.append(f"non-certifying provenance for {weak}")

    cert = Certificate(
        mode=mode,
        variant=coeffs.variant,
        a=coeffs.a,
        b=coeffs.b,
        c=coeffs.c,
        lambda0=coeffs.lambda0,
        lam=lam,
        C0=C0,
        c1=c1,
        c2=c2,
        psd_witness=witness,
        M=bc.M,
        M1=bc.M1,
        M2=bc.M2,
        C1=bc.C1,
        C2=bc.C2,
        kappa=kappa,
        T=T,
        inputs=bundle,
        certified=bool(witness >= PSD_TOL and prov_ok),
        notes=notes,
    )
    if refine:
        ref = refine_coefficients(
            coeffs,
            M=max(1.0, bc.M),
            M1=bc.M1 if coeffs.variant.startswith("split") else None,
            M2=bc.M2 if coeffs.variant.startswith("split") else None,
            kappa=kappa,
        )
        rc1, rc2, rC0 = norm_equivalence(ref.a, ref.b, ref.c)
        cert.refined = {
            "a": ref.a, "b": ref.b, "c": ref.c, "lambda0": ref.lambda0,
            "lambda": rate_lambda(ref.lambda0, ref.a, ref.c, kappa),
            "C0": rC0, "c1": rc1, "c2": rc2,
        }
    return cert


# ---------------------------------------------------------------------------
# constants assembly from potentials
# ---------------------------------------------------------------------------

def assemble_constants(
    U: PotentialSpec,
    W: Optional[PotentialSpec],
    mode: str = "auto",
    kappa_user: Optional[float] = None,
    cls_user: Optional[float] = None,
    rho_marginal: Optional[float] = None,
) -> ConstantsBundle:
    """Derive a full constants bundle for (U, W), chasing every certified route.

    Order of preference for kappa: user value, Bakry-Emery curvature,
    convexity-at-infinity criterion, dissipativity route with the exact
    h = 0 for absent interaction.  C_LS: user value, Bakry-Emery, then the
    Zegarlinski transfer when a marginal constant was supplied (or the
    super-convexity criterion provides the Lipschitz bound).
    """
    bundle = pot.extract_constants(U, W)
    prov = bundle.provenance

    fit = pot.convexity_at_infinity_fit(U, W)
    if fit is not None:
        bundle.c_u, bundle.c, bundle.R_conv = fit.c_u, fit.c, fit.radius
        # a non-linear triple is re-verified on 1e4 random pairs
        grade = pot.ANALYTIC if U.linear else pot.VERIFIED
        prov["c_u"] = prov["c"] = prov["R_conv"] = grade

    clip = pot.lipschitz_from_model(U, W)
    bundle.c_lip, bundle.c_lip_converged = clip.value, clip.converged
    linear_drift = U.linear and (W is None or W.is_zero() or W.linear)
    prov["c_lip"] = pot.ANALYTIC if linear_drift else pot.NUMERIC

    be = funcineq.kappa_bakry_emery(U, W)

    if kappa_user is not None:
        bundle.kappa = kappa_user
        prov["kappa"] = pot.USER
    elif be is not None:
        bundle.kappa = be.kappa
        prov["kappa"] = pot.ANALYTIC
    elif fit is not None:
        kap = funcineq.upi_criterion(fit.c_u, fit.c, fit.radius, bundle.K)
        if kap is not None:
            bundle.kappa = kap
            prov["kappa"] = pot.CRITERION
    if bundle.kappa is None and (W is None or W.is_zero()) and clip.finite:
        # no interaction: the off-diagonal block matrix is identically zero,
        # so h = 0 exactly and the dissipativity route certifies
        kap = funcineq.kappa_dissipativity(0.0, clip.value)
        if kap is not None:
            bundle.kappa = kap
            prov["kappa"] = prov["c_lip"]

    if cls_user is not None:
        bundle.C_LS = cls_user
        prov["C_LS"] = pot.USER
    elif be is not None:
        bundle.C_LS = be.c_ls
        prov["C_LS"] = pot.ANALYTIC
    elif rho_marginal is not None:
        c_lip_for_lsi = bundle.c_lip if clip.finite else None
        prov_lsi = prov["c_lip"]
        if fit is not None and funcineq.ulsi_criterion(fit.c_u, fit.c, fit.radius, bundle.K):
            crit_lip = math.exp(fit.c * fit.radius / 4.0) / (fit.c_u - bundle.K)
            if c_lip_for_lsi is None or crit_lip < c_lip_for_lsi:
                c_lip_for_lsi = crit_lip
                prov_lsi = pot.CRITERION
        if c_lip_for_lsi is not None:
            c_ls = funcineq.lsi_transfer(rho_marginal, c_lip_for_lsi, bundle.K)
            if c_ls is not None:
                bundle.C_LS = c_ls
                prov["C_LS"] = prov_lsi
    return bundle
