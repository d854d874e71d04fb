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

Coefficients are accepted by one exact rational decision, ``coercivity_holds``;
the float eigenvalue witness is only reported.  The paper's literal set and
the ``refined`` set are fixed rationals scaled by M, proved PSD for M >= 1;
the split set is a formula in (M1, M2), decided like the others.  ``certify``
walks its coefficient sets in order and reports the first accepted one;
``_evaluate`` is the one place that builds T', decides it and computes
lambda and C0 from a set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import asdict, dataclass, field
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
    "build_Tprime",
    "verify_coercivity",
    "rate_lambda",
    "norm_equivalence",
    "certify",
    "assemble_constants",
    "coercivity_holds",
    "scaled_coefficients",
]


@dataclass(frozen=True)
class BoundednessConstants:
    """C1/C2 with the single constant M and the split pair (M1, M2)."""

    C1: float
    C2: float
    K: float
    mode: str  # "thm3" or "thm4"

    @property
    def M1(self) -> float:
        return 2 * self.C1

    @property
    def M2(self) -> float:
        return 2 * self.C2 + 2 * self.K**2

    @property
    def M(self) -> float:
        return max(self.M1, self.M2)


def _in_range(build, ok, message: str):
    """``build()`` when it passes ``ok``, else an InvalidSpecError with
    ``message``.  An OverflowError fails too: float ** raises one where *
    gives inf."""
    try:
        value = build()
        if ok(value):
            return value
    except OverflowError:
        pass
    raise InvalidSpecError(message)


def _finite(mode: str, K: float, C1_C2, inputs: str) -> BoundednessConstants:
    """The constants of ``mode`` with (C1, C2) = ``C1_C2()``, or an
    InvalidSpecError naming ``inputs`` when C1, C2, M1 or M2 is not a finite
    float."""
    return _in_range(lambda: BoundednessConstants(*C1_C2(), K=K, mode=mode),
                     lambda bc: math.isfinite(bc.M1) and math.isfinite(bc.M2),
                     f"C1 or C2 is not finite: {inputs} too large")


def constants_bounded_grad(K: float, K_prime: float, K1: float, K2: float, d: int) -> BoundednessConstants:
    """C1, C2 for the bounded-interaction-gradient route (needs K' finite)."""
    if not math.isfinite(K_prime):
        raise MissingConstantError("K_prime", "grad W unbounded: provide C_LS and use mode thm4")
    return _finite("thm3", K, lambda: (
        50.0 * K1**2,
        4.0 * K2**2 + 25.0 * K1**4 * d**2 / 4.0 + 25.0 * K_prime**2 * K1**2 / 2.0,
    ), f"K = {K!r}, K1 = {K1!r}, K2 = {K2!r} or K' = {K_prime!r}")


def constants_lsi(K: float, K1: float, K2: float, C_LS: float, d: int) -> BoundednessConstants:
    """C1, C2 for the log-Sobolev route (no gradient bound on W needed)."""
    if C_LS is None or C_LS <= 0:
        raise MissingConstantError(
            "C_LS", "no log-Sobolev constant: supply one, or derive via Bakry-Emery / "
            "Zegarlinski transfer (lsi_transfer)")
    return _finite("thm4", K, lambda: (
        50.0 * K1**2 * (1.0 + 4.0 * K**2 * C_LS**2),
        4.0 * K2**2 + 25.0 * K1**4 * d**2 / 4.0 + 50.0 * math.log(2.0) * d * K**2 * K1**2 * C_LS,
    ), f"K = {K!r}, K1 = {K1!r}, K2 = {K2!r} or C_LS = {C_LS!r}")


@dataclass(frozen=True)
class Coefficients:
    """Twisted-norm weights (a, b, c) and the coercivity target lambda0; the
    variant is ``single`` (PAPER_SET at M), ``refined`` (REFINED_SET at M),
    or ``split_case1``/``split_case2`` (improved_coefficients at M1, M2)."""

    a: float
    b: float
    c: float
    lambda0: float
    variant: str


# Denominators (da, db, dc, dl) of a set a = 1/(da M), b = 1/(db M^2),
# c = 1/(dc M^3), lambda0 = 1/(dl M^2).  For both sets every principal
# minor of S at T(M, M) is non-negative for all M >= 1, and b^2 < ac.
PAPER_SET = (25, 200, 800, 440)
REFINED_SET = (8, 25, 40, 70)


def scaled_coefficients(M: float, denominators: tuple, variant: str) -> Coefficients:
    """The set a = 1/(da M), b = 1/(db M^2), c = 1/(dc M^3),
    lambda0 = 1/(dl M^2) at max(M, 1)."""
    M = max(M, 1.0)
    da, db, dc, dl = denominators
    return Coefficients(a=1.0 / (da * M), b=1.0 / (db * M**2), c=1.0 / (dc * M**3),
                        lambda0=1.0 / (dl * M**2), variant=variant)


def default_coefficients(M: float) -> Coefficients:
    """The paper's working choice a = 1/25M, b = 1/200M^2, c = 1/800M^3,
    lambda0 = 1/440M^2, valid for M >= 1 (smaller M is clamped to 1)."""
    return scaled_coefficients(M, PAPER_SET, "single")


def build_Tprime(a: float, b: float, c: float, M1: float, M2: float) -> np.ndarray:
    """Symmetric 4x4 coercivity matrix for the split pair (M1, M2); the
    single-constant matrix T is build_Tprime(a, b, c, M, M).

    Quadratic-form order: (|grad_v h|, |grad_v^2 h|, |grad_x h|, |grad_xv^2 h|).
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


def _checked(T: np.ndarray) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4) or not np.allclose(T, T.T, atol=0.0):
        raise InvalidSpecError("the coercivity check needs a symmetric 4x4 matrix")
    return T


def verify_coercivity(T: np.ndarray, lambda0: float) -> float:
    """Min eigenvalue of S = T - Diag(lambda0, 0, lambda0, 0), in floats.

    A reported witness only: ``coercivity_holds`` makes the decision.
    """
    S = _checked(T) - np.diag([lambda0, 0.0, lambda0, 0.0])
    return float(np.linalg.eigvalsh(S)[0])


# Each float entry of build_Tprime is within a relative delta = 2^-50 of the
# real matrix at the same a, b, c, M1, M2 (correctly rounded square roots, at
# most three more roundings on terms of one sign, T[0, 0] about 1).  If
# S - eps Diag(|S_ii|) is PSD then |S_ij| <= sqrt(S_ii S_jj), so S + E stays
# PSD for |E_ij| <= delta |S_ij| whenever eps >= 4 delta; eps = 2^-46 = 16 delta.
PSD_MARGIN = Fraction(1, 2**46)


def coercivity_holds(T: np.ndarray, lambda0: float) -> bool:
    """Exactly decide whether S - PSD_MARGIN Diag(|S_ii|) is PSD, with
    S = T - Diag(lambda0, 0, lambda0, 0) taken entry by entry in Fraction.

    LDL^T without pivoting: a negative pivot refutes; a zero pivot needs a
    zero remaining row (PSD, unlike PD, allows it) and is skipped.
    """
    S = [[Fraction(v) for v in row] for row in _checked(T).tolist()]
    for i, shift in enumerate((lambda0, 0.0, lambda0, 0.0)):
        S[i][i] -= Fraction(shift)
        S[i][i] -= PSD_MARGIN * abs(S[i][i])
    for k in range(4):
        pivot = S[k][k]
        if pivot < 0 or (pivot == 0 and any(S[k][k + 1:])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, 4):
            f = S[i][k] / pivot
            for j in range(k + 1, 4):
                S[i][j] -= f * S[k][j]
    return True


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


def improved_coefficients(M1: float, M2: float) -> Coefficients:
    """Split-constant coefficients with rate of order 1/sqrt(M2).

    Case M1 <= 1 (a linear confinement has M1 = 0) uses the exact rationals
    alpha = 3072/25921, beta = 576/25921, gamma = 216/25921 with
    a = alpha M^{-1/4}, b = beta M^{-1/2}, c = gamma M^{-3/4},
    lambda0 = b/4, M = max(1, M2).  Case M1 > 1 solves the corresponding
    equality system,

        b = (16 M1^2/3 + 1 + 3 sqrt(M2)/(8 M1))^{-2},
        a = (16/3) M1^2 b,   c = 3 b / (8 M1).

    A formula only: ``certify`` decides the set on T'(M1, M2).
    """
    if not (M1 >= 0 and M2 >= 0):
        raise InvalidSpecError(f"M1, M2 must be >= 0, got {M1!r}, {M2!r}")
    M = max(1.0, M2)
    if M1 <= 1.0:
        return Coefficients(a=CASE1_ALPHA / M**0.25, b=CASE1_BETA / M**0.5, c=CASE1_GAMMA / M**0.75,
                            lambda0=CASE1_BETA / (4.0 * M**0.5), variant="split_case1")
    denom = 16.0 * M1**2 / 3.0 + 1.0 + 3.0 * math.sqrt(M2) / (8.0 * M1)
    b = 1.0 / denom**2
    return Coefficients(a=16.0 * M1**2 * b / 3.0, b=b, c=3.0 * b / (8.0 * M1),
                        lambda0=b / 4.0, variant="split_case2")


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
    psd_exact: bool
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
        """The fields, with ``lam`` as ``lambda``, ``T`` as nested lists, a
        ``schema_version`` and no ``refined`` key when it is absent."""
        out = {"schema_version": "1", **asdict(self), "lambda": self.lam, "T": self.T.tolist()}
        del out["lam"]
        if self.refined is None:
            del out["refined"]
        return out


def _coefficients(build, scale: str) -> Coefficients:
    """``build()``, or an InvalidSpecError naming ``scale`` when the set
    overflows or leaves b^2 < ac false (norm_equivalence needs it)."""
    return _in_range(build, lambda co: co.b * co.b < co.a * co.c,
                     f"coefficients leave the float range (overflow, or b^2 >= ac): {scale} too large")


def _coefficient_sets(bc: BoundednessConstants, use_split: bool):
    """``certify``'s coefficient sets in order, each with the (M1, M2) of its
    T': the split set at (M1, M2) when asked for, then the single set at
    M1 = M2 = max(1, M).  Each is built only when the walk reaches it."""
    if use_split:
        yield (_coefficients(lambda: improved_coefficients(bc.M1, bc.M2), f"M1 = {bc.M1!r}, M2 = {bc.M2!r}"),
               bc.M1, bc.M2)
    M = max(1.0, bc.M)
    yield _coefficients(lambda: default_coefficients(M), f"M = {bc.M!r}"), M, M


def _evaluate(coeffs: Coefficients, M1: float, M2: float, kappa: float) -> tuple[np.ndarray, bool, dict]:
    """T'(M1, M2) of ``coeffs``, the exact decision on it, and what a
    certificate reports of the set: a, b, c, lambda0, lambda, C0, c1, c2."""
    T = build_Tprime(coeffs.a, coeffs.b, coeffs.c, M1, M2)
    c1, c2, C0 = norm_equivalence(coeffs.a, coeffs.b, coeffs.c)
    values = {"a": coeffs.a, "b": coeffs.b, "c": coeffs.c, "lambda0": coeffs.lambda0,
              "lambda": rate_lambda(coeffs.lambda0, coeffs.a, coeffs.c, kappa), "C0": C0, "c1": c1, "c2": c2}
    return T, coercivity_holds(T, coeffs.lambda0), values


def certify(
    bundle: ConstantsBundle,
    mode: str = "auto",
    use_split: bool = False,
    refine: bool = False,
) -> Certificate:
    """Run the full pipeline on a constants bundle.

    mode ``thm3`` requires a finite K', then finite C1 and C2 (both checked
    by ``constants_bounded_grad``), then a Poincare constant kappa; mode
    ``thm4`` requires C_LS, then finite C1 and C2 (both checked by
    ``constants_lsi``), and kappa is 1/C_LS, since a log-Sobolev inequality
    implies a Poincare inequality with that constant, or the bundle's kappa
    when that is larger and its grade certifies.  ``auto``
    prefers thm3 when its prerequisites hold.  The coefficient sets are
    walked in order (``_coefficient_sets``: the split set when ``use_split``,
    then the single set) and each is decided once by ``coercivity_holds``;
    the first accepted is reported, else the last, and every rejected set
    leaves a note naming its variant.  The certificate is marked certified
    only when every input constant has certifying provenance and a set is
    accepted.  ``refine`` adds the REFINED_SET at max(1, M) beside it, when
    it is in the float range (else a note names the error) and passes the
    same check.
    """
    if mode not in ("auto", "thm3", "thm4"):
        raise InvalidSpecError(f"unknown mode {mode!r}")
    strong = {k for k, grade in bundle.provenance.items() if grade in CERTIFYING_PROVENANCE}
    if mode == "auto":
        mode = "thm3" if math.isfinite(bundle.K_prime) and bundle.kappa is not None else "thm4"

    if mode == "thm3":
        bc = constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
        if bundle.kappa is None:
            raise MissingConstantError(
                "kappa", "no Poincare constant: supply one, or derive via Bakry-Emery / "
                "dissipativity (kappa_dissipativity) / convexity criterion (upi_criterion)")
        kappa = bundle.kappa
    else:
        bc = constants_lsi(bundle.K, bundle.K1, bundle.K2, bundle.C_LS, bundle.d)
        kappa = 1.0 / bundle.C_LS
        if bundle.kappa is not None and "kappa" in strong:
            kappa = max(bundle.kappa, kappa)

    notes: list[str] = []
    for coeffs, M1, M2 in _coefficient_sets(bc, use_split):
        T, psd_exact, values = _evaluate(coeffs, M1, M2, kappa)
        if psd_exact:
            break
        notes.append(f"{coeffs.variant} set rejected: T' - Diag(lambda0, 0, lambda0, 0) is not PSD")
    lam = values.pop("lambda")
    rate_ok = math.isfinite(lam) and lam > 0
    if not rate_ok:
        notes.append(f"lambda = {lam!r} is not a positive finite rate")

    needed = ["K", "K1", "K2", *(("K_prime", "kappa") if mode == "thm3" else ("C_LS",))]
    weak = [k for k in needed if k not in strong]
    if weak:
        notes.append(f"non-certifying provenance for {weak}")

    cert = Certificate(
        mode=mode, variant=coeffs.variant, lam=lam, **values,
        psd_witness=verify_coercivity(T, coeffs.lambda0), psd_exact=psd_exact,
        M=bc.M, M1=bc.M1, M2=bc.M2, C1=bc.C1, C2=bc.C2, kappa=kappa, T=T,
        inputs=bundle, certified=psd_exact and not weak and rate_ok, notes=notes)
    if refine:
        M = max(1.0, bc.M)
        try:
            ref = _coefficients(lambda: scaled_coefficients(M, REFINED_SET, "refined"), f"M = {bc.M!r}")
        except InvalidSpecError as exc:  # out of range beside an accepted split set
            notes.append(f"refined set omitted: {exc}")
            return cert
        _, accepted, values = _evaluate(ref, M, M, kappa)
        if accepted:
            cert.refined = values
        else:
            notes.append("refined set failed the exact PSD check; block omitted")
    return cert


# ---------------------------------------------------------------------------
# constants assembly from potentials
# ---------------------------------------------------------------------------

def _first_certified(routes) -> tuple:
    """The first ``(value, grade)`` of the lazy ``routes`` whose grade
    certifies, else the first that applies (value not None), else (None, None)."""
    first = (None, None)
    for value, grade in routes:
        if value is not None and grade in CERTIFYING_PROVENANCE:
            return value, grade
        if value is not None and first[0] is None:
            first = (value, grade)
    return first


def _kappa_routes(bundle: ConstantsBundle, be, fit, W, kappa_user):
    """Poincare routes: user value, Bakry-Emery curvature, the
    convexity-at-infinity slack, dissipativity at h = 0 without interaction."""
    yield kappa_user, pot.USER
    yield (be and be.kappa), pot.ANALYTIC
    if fit is not None:
        yield funcineq.upi_criterion(fit.c_u, fit.c, fit.radius, bundle.K), pot.CRITERION
    if W is None and math.isfinite(bundle.c_lip):
        # no interaction: the off-diagonal block matrix is identically zero,
        # so h = 0 exactly and the route is as strong as c_lip
        yield funcineq.kappa_dissipativity(0.0, bundle.c_lip), bundle.provenance["c_lip"]


def _cls_routes(bundle: ConstantsBundle, be, fit, cls_user, rho_marginal):
    """Log-Sobolev routes: user value, Bakry-Emery, then the Zegarlinski
    transfer on c_lip and on the super-convexity bound e^{cR/4}/(c_u - K).
    The exact c_lip never exceeds that bound, so it goes first."""
    yield cls_user, pot.USER
    yield (be and be.c_ls), pot.ANALYTIC
    if rho_marginal is None:
        return
    if math.isfinite(bundle.c_lip):
        yield funcineq.lsi_transfer(rho_marginal, bundle.c_lip, bundle.K), bundle.provenance["c_lip"]
    if fit is not None and funcineq.ulsi_criterion(fit.c_u, fit.c, fit.radius, bundle.K):
        try:
            lip = math.exp(fit.c * fit.radius / 4.0) / (fit.c_u - bundle.K)
        except OverflowError:  # e^{cR/4} is past the float range: no usable bound
            return
        yield funcineq.lsi_transfer(rho_marginal, lip, bundle.K), pot.CRITERION


def assemble_constants(
    U: PotentialSpec,
    W: Optional[PotentialSpec],
    kappa_user: Optional[float] = None,
    cls_user: Optional[float] = None,
    rho_marginal: Optional[float] = None,
) -> ConstantsBundle:
    """Derive a full constants bundle for (U, W), chasing every certified route.

    ``kappa`` and ``C_LS`` each walk their route list (``_kappa_routes``,
    ``_cls_routes``) and keep the first route whose grade certifies, or the
    first that applies when none does; a force-free W counts as absent.  The
    transfer routes need ``rho_marginal``.  A supplied ``kappa_user``,
    ``cls_user`` or ``rho_marginal`` must be a finite number > 0.
    """
    for key, value in (("kappa_user", kappa_user), ("cls_user", cls_user), ("rho_marginal", rho_marginal)):
        if value is not None and not 0 < value < math.inf:
            raise InvalidSpecError(f"{key} must be finite and > 0, got {value!r}")
    bundle = pot.extract_constants(U, W)
    prov = bundle.provenance
    if W is not None and W.is_zero():
        W = None

    fit = pot.convexity_at_infinity_fit(U, W)
    if fit is not None:
        bundle.c_u, bundle.c, bundle.R_conv = fit.c_u, fit.c, fit.radius
        # a non-linear triple is re-verified on 1e4 random pairs
        grade = pot.ANALYTIC if U.linear else pot.VERIFIED
        prov["c_u"] = prov["c"] = prov["R_conv"] = grade

    clip = pot.lipschitz_from_model(U, W)
    bundle.c_lip, bundle.c_lip_converged = clip.value, clip.converged
    linear_drift = U.linear and (W is None or W.linear)
    prov["c_lip"] = pot.ANALYTIC if linear_drift else pot.NUMERIC

    be = funcineq.kappa_bakry_emery(U, W)
    for key, routes in (("kappa", _kappa_routes(bundle, be, fit, W, kappa_user)),
                        ("C_LS", _cls_routes(bundle, be, fit, cls_user, rho_marginal))):
        value, grade = _first_certified(routes)
        if value is not None:
            setattr(bundle, key, value)
            prov[key] = grade
    return bundle
