"""Independent numerical verification of the lemma-level inequalities.

Everything here runs at desk scale (1D grids, or the N = 2, d = 1 pair
measure on a 2D grid) where the mean-field measure is exactly computable by
quadrature.  Test-function derivatives are taken by central differences on
the grid, so every verified integral converges at second order in the
spacing (the refinement ratio test pins that), and the pass tolerances stay
far above the quadrature error at the shipped resolutions.

These are transcription checks of the certified formulas, not scalability
claims: a failure here means either the formula or the oracle was copied
wrong, and is treated as build-blocking by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidSpecError
from .funcineq import GridMeasure
from .meanfield import ModelConfig
from .potentials import PotentialSpec

__all__ = [
    "TestFunctionSpec",
    "InequalityCheck",
    "verify_lyapunov_lemma",
    "verify_moment_bound",
    "verify_boundedness_condition",
    "fd_derivative_suite",
    "random_test_function",
    "oracle_suite",
]

FN_FAMILIES = ("gaussian_bump_fn", "polynomial_fn", "logistic_fn")
_PASS_TOL = 1e-8  # relative slack of the quadrature verifiers
# fd_derivative_suite: random points per spec, their seed, and the pass bound
_FD_POINTS = 1000
_FD_SEED = 99
_FD_REL_TOL = 1e-6


@dataclass(frozen=True)
class TestFunctionSpec:
    """Twice-differentiable scalar test function on the line.

    Families: ``gaussian_bump_fn`` exp(-(x-center)^2 / 2 width^2) (+offset),
    ``polynomial_fn`` with given coefficients (ascending powers), and
    ``logistic_fn`` 1 / (1 + exp(-(x-center)/scale)).  Positive-role
    functions (Lyapunov weights S > 0) are validated on the grid they are
    used on, not here.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FN_FAMILIES:
            raise InvalidSpecError(f"unknown test function family {self.family!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.family == "gaussian_bump_fn":
            z = (x - p["center"]) / p["width"]
            return p.get("offset", 0.0) + np.exp(-0.5 * z**2)
        if self.family == "polynomial_fn":
            return np.polynomial.polynomial.polyval(x, p["coefficients"])
        return 1.0 / (1.0 + np.exp(-(x - p["center"]) / p["scale"]))


def random_test_function(rng: np.random.Generator, purpose: str = "g_generic") -> TestFunctionSpec:
    """Draw a random test function; positive families only for S weights."""
    if purpose not in ("S_positive", "g_generic"):
        raise InvalidSpecError(f"unknown purpose {purpose!r}")
    fams = ("gaussian_bump_fn", "logistic_fn") if purpose == "S_positive" else FN_FAMILIES
    fam = fams[int(rng.integers(len(fams)))]
    if fam == "gaussian_bump_fn":
        params = {
            "center": float(rng.uniform(-2, 2)),
            "width": float(rng.uniform(0.8, 2.5)),
            "offset": float(rng.uniform(0.2, 1.0)) if purpose == "S_positive" else 0.0,
        }
    elif fam == "polynomial_fn":
        params = {"coefficients": [float(c) for c in rng.uniform(-1, 1, size=3)]}
    else:
        params = {"center": float(rng.uniform(-2, 2)), "scale": float(rng.uniform(0.5, 2.0))}
    return TestFunctionSpec(family=fam, params=params)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    detail: dict = field(default_factory=dict)


def _d1(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    return np.gradient(values, dx, axis=axis, edge_order=2)


def _d2_1d(values: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2 * values[1:-1] + values[:-2]) / dx**2
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def verify_lyapunov_lemma(
    measure: GridMeasure,
    S: TestFunctionSpec,
    g: TestFunctionSpec,
) -> InequalityCheck:
    """Check  Int -(H S / S) g^2 dm <= Int |g'|^2 dm  on a 1D grid,
    with H = Lap - V' d/dx the generator of the measure.

    S must be positive at every node.  Derivatives are central differences;
    the inequality holds for all twice-differentiable S > 0, so a failure
    beyond tolerance is a transcription defect.
    """
    if measure.ndim != 1:
        raise InvalidSpecError("Lyapunov lemma oracle works on 1D grids")
    if measure.grad_log_density is None:
        raise InvalidSpecError("measure must carry grad_log_density (-V')")
    x = measure.axes[0]
    dx = measure.spacing
    s_vals = S(x)
    if np.any(s_vals <= 0):
        raise InvalidSpecError("Lyapunov weight S must be positive on the grid")
    g_vals = g(x)
    hs = _d2_1d(s_vals, dx) + measure.grad_log_density * _d1(s_vals, dx)
    weights = measure.weights
    lhs = measure.expectation(-(hs / s_vals) * g_vals**2, weights)
    rhs = measure.expectation(_d1(g_vals, dx) ** 2, weights)
    return InequalityCheck(
        name="lyapunov_lemma",
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs <= rhs + _PASS_TOL * (1 + abs(rhs))),
        detail={"spacing": dx},
    )


def verify_moment_bound(
    model: ModelConfig,
    C_LS: float,
    tau: float,
    g_pair: tuple[TestFunctionSpec, TestFunctionSpec],
    measure: GridMeasure,
) -> InequalityCheck:
    """Pair-distance moment bound on the N = 2, d = 1 mean-field measure:

        Int |x1 - x2|^2 g^2 dm  <=  (2 C_LS / tau) Int |grad g|^2 dm
                                    + (d ln(1 - 4 tau C_LS)^{-1} / (2 tau)) Int g^2 dm

    for 0 < tau < 1/(4 C_LS);  g(x1, x2) = g1(x1) g2(x2) is a separable test
    function.  At tau = 1/(8 C_LS) the constants reduce to 16 C_LS^2 and
    4 ln2 d C_LS.
    """
    if not 0.0 < tau < 1.0 / (4.0 * C_LS):
        raise InvalidSpecError("tau must lie in (0, 1/(4 C_LS))")
    x = measure.axes[0]
    dx = measure.spacing
    g1, g2 = g_pair
    G = np.outer(g1(x), g2(x))
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    F = (X1 - X2) ** 2
    weights = measure.weights
    lhs = measure.expectation(F * G**2, weights)
    grad_sq = _d1(G, dx, axis=0) ** 2 + _d1(G, dx, axis=1) ** 2
    d = model.d
    rhs = (2.0 * C_LS / tau) * measure.expectation(grad_sq, weights) + (
        d * math.log(1.0 / (1.0 - 4.0 * tau * C_LS)) / (2.0 * tau)
    ) * measure.expectation(G**2, weights)
    return InequalityCheck(
        name="moment_bound",
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs <= rhs + _PASS_TOL * (1 + abs(rhs))),
        detail={"tau": tau, "C_LS": C_LS, "spacing": dx},
    )


def verify_boundedness_condition(
    model: ModelConfig,
    M1: float,
    M2: float,
    phi: TestFunctionSpec,
    psi_vec: Sequence[float],
    measure: GridMeasure,
) -> InequalityCheck:
    """Mixed-derivative boundedness condition on separable h(x, v) = phi(x) (psi . v):

        Int |hess V(x) . grad_v h|^2 dmu  <=  M1 Int |grad_xv h|_HS^2 dmu
                                              + M2 Int |grad_v h|^2 dmu.

    For this h the velocity integrals collapse to Gaussian moments of order
    zero (grad_v h = phi psi is v-free), leaving position-space quadrature:

        Int |hess V psi|^2 phi^2 dm <= M1 |psi|^2 Int |grad phi|^2 dm
                                       + M2 |psi|^2 Int phi^2 dm.
    """
    if model.N != 2 or model.d != 1:
        raise InvalidSpecError("boundedness oracle is restricted to N = 2, d = 1")
    psi = np.asarray(psi_vec, dtype=float)
    if psi.shape != (2,):
        raise InvalidSpecError("psi must be a vector in R^(N d) = R^2")
    x = measure.axes[0]
    dx = measure.spacing
    n = x.size
    X1, X2 = np.meshgrid(x, x, indexing="ij")

    # hess V(x1, x2) = [[U''(x1) + w/2, -w/2], [-w/2, U''(x2) + w/2]]
    # with w = W''(x1 - x2); closed form of the block assembly at N = 2
    hu1 = model.U.d2profile(np.abs(X1))
    hu2 = model.U.d2profile(np.abs(X2))
    w = model.W.d2profile(np.abs(X1 - X2)) if model.W is not None else np.zeros_like(X1)
    h11, h22, h12 = hu1 + w / 2.0, hu2 + w / 2.0, -w / 2.0
    hv_psi_sq = (h11 * psi[0] + h12 * psi[1]) ** 2 + (h12 * psi[0] + h22 * psi[1]) ** 2

    phi1 = np.outer(phi(x), np.ones(n))
    grad_phi_sq = _d1(phi1, dx, axis=0) ** 2
    psi_sq = float((psi**2).sum())
    weights = measure.weights
    lhs = measure.expectation(hv_psi_sq * phi1**2, weights)
    e_grad, e_phi2 = measure.expectation(grad_phi_sq, weights), measure.expectation(phi1**2, weights)
    rhs = psi_sq * (M1 * e_grad + M2 * e_phi2)
    return InequalityCheck(
        name="boundedness_condition",
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs <= rhs * (1 + _PASS_TOL)),
        detail={"M1": M1, "M2": M2, "spacing": dx},
    )


def fd_derivative_suite(specs: Sequence[PotentialSpec]) -> list[InequalityCheck]:
    """Central finite differences vs analytic gradient and Hessian.

    Step h = 1e-5 (1 + |x|) per coordinate; the reported lhs is the worst
    relative error over the random points, rhs the tolerance.  All points run
    as one array per coordinate direction; every step is elementwise or
    reduces over one point, so the errors equal one-point calls bit for bit.
    """
    rng = np.random.default_rng(_FD_SEED)
    out = []
    for spec in specs:
        d = spec.dim
        pts = rng.uniform(-4, 4, size=(_FD_POINTS, d)) * spec.char_length()
        h = 1e-5 * (1 + np.abs(pts))
        grad_fd = np.empty((_FD_POINTS, d))
        hess_fd = np.empty((_FD_POINTS, d, d))
        for a in range(d):
            e = np.zeros_like(pts)
            e[:, a] = h[:, a]
            grad_fd[:, a] = (spec.value(pts + e) - spec.value(pts - e)) / (2 * h[:, a])
            hess_fd[:, :, a] = (spec.gradient(pts + e) - spec.gradient(pts - e)) / (2 * h[:, a, None])
        ref_g = spec.gradient(pts)
        ref_h = spec.hessian(pts)
        scale_g = np.maximum(1.0, np.abs(ref_g).max(axis=1))
        scale_h = np.maximum(1.0, np.abs(ref_h).max(axis=(1, 2)))
        worst_g = float((np.abs(grad_fd - ref_g).max(axis=1) / scale_g).max())
        worst_h = float((np.abs(hess_fd - ref_h).max(axis=(1, 2)) / scale_h).max())
        out.append(
            InequalityCheck(
                name=f"fd_{spec.family}",
                lhs=max(worst_g, worst_h),
                rhs=_FD_REL_TOL,
                passed=bool(max(worst_g, worst_h) < _FD_REL_TOL),
                detail={"dim": spec.dim, "grad_err": worst_g, "hess_err": worst_h},
            )
        )
    return out


def oracle_suite(
    n_lyapunov: int = 20,
    n_moment: int = 10,
    n_boundedness: int = 10,
    seed: int = 31415,
) -> dict:
    """The full shipped battery on reference models; returns a JSON-able report.

    Lyapunov lemma on the 1D standard Gaussian generator, moment bound at
    tau = 1/(8 C_LS) on the quadratic pair measure, boundedness condition on
    the double-well pair model with its own certified (M1, M2).
    """
    from . import certifier
    from .potentials import extract_constants

    rng = np.random.default_rng(seed)
    checks: list[InequalityCheck] = []

    u_quad = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
    measure_1d = GridMeasure.from_potential(u_quad, halfwidth=9.0, n=16001)
    for _ in range(n_lyapunov):
        S = random_test_function(rng, "S_positive")
        g = random_test_function(rng, "g_generic")
        checks.append(verify_lyapunov_lemma(measure_1d, S, g))

    pair_quad = ModelConfig(N=2, d=1, U=u_quad, W=None)
    measure_2d = GridMeasure.from_pair_model(pair_quad, halfwidth=9.0, n=361)
    C_LS = 1.0  # Bakry-Emery for the unit-curvature quadratic model
    tau = 1.0 / (8.0 * C_LS)
    for _ in range(n_moment):
        g1 = random_test_function(rng, "g_generic")
        g2 = random_test_function(rng, "g_generic")
        checks.append(verify_moment_bound(pair_quad, C_LS, tau, (g1, g2), measure=measure_2d))

    u_dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    pair_dw = ModelConfig(N=2, d=1, U=u_dw, W=None)
    measure_dw = GridMeasure.from_pair_model(pair_dw, halfwidth=9.0, n=361)
    bundle = extract_constants(u_dw, None)
    bc = certifier.constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
    for _ in range(n_boundedness):
        phi = random_test_function(rng, "g_generic")
        psi = rng.uniform(-1.5, 1.5, size=2)
        checks.append(
            verify_boundedness_condition(pair_dw, bc.M1, bc.M2, phi, psi, measure=measure_dw)
        )

    fd = fd_derivative_suite(
        [
            PotentialSpec("quadratic", {"coef": 1.3}, dim=2),
            PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=2),
            PotentialSpec("gaussian_bump", {"amplitude": 1.1, "width": 0.9, "sign": "attractive"},
                          dim=3, role="interaction"),
            PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.8}, dim=2, role="interaction"),
        ]
    )
    checks.extend(fd)

    # spectral-gap cross-checks with grid metadata: the discretized generator
    # must reproduce the curvature gap of the quadratic family within 2%
    from .funcineq import spectral_gap

    gap_reports = []
    for k1 in (0.5, 1.0, 2.0):
        u = PotentialSpec("quadratic", {"coef": k1}, dim=1)
        m = GridMeasure.from_potential(u, halfwidth=9.0 / math.sqrt(k1), n=2001)
        res = spectral_gap(m)
        ok = abs(res.gap - k1) <= 0.02 * k1
        gap_reports.append({"curvature": k1, "passed": ok, **asdict(res)})
        checks.append(InequalityCheck(name="spectral_gap", lhs=abs(res.gap - k1),
                                      rhs=0.02 * k1, passed=ok, detail=asdict(res)))
    return {
        "oracle_suite": [asdict(c) for c in checks],
        "spectral_gap_oracle": gap_reports,
        "all_passed": bool(all(c.passed for c in checks)),
        "n_checks": len(checks),
    }
