"""Independent numerical verification of the lemma-level inequalities.

Everything here runs at desk scale (1D grids, or the N = 2, d = 1 pair
measure on a 2D grid) where the mean-field measure is exactly computable by
quadrature.  Test-function derivatives are taken by central differences on
the grid, so every verified integral converges at second order in the
spacing (the refinement ratio test pins that), and the pass tolerances stay
far above the quadrature error at the shipped resolutions.

Each quadrature verifier checks a whole battery of test-function cases in
one call and returns one check per case: it builds the case-independent
fields (the quadrature weights, and on the pair grid |x1 - x2|^2 or the
Hessian entries) once, and each case adds only its test-function factors.
It also allocates its grid-sized work arrays once per call, and each case
writes only into them, through ``out=``: ``_d1`` and ``_d2_1d`` write their
difference quotients into a given buffer, and ``GridMeasure.expectation``
writes its weighted product into one.  Every ufunc keeps the operands and the
order of the freshly allocated formula, so each check stays the same bit for
bit.  A fresh temporary per operation would cost more than its arithmetic:
on the 361 x 361 pair grid each is 1 MB, which glibc maps afresh, so every
case would page-fault.

These are transcription checks of the certified formulas, not scalability
claims: a failure here means either the formula or the oracle was copied
wrong, and is treated as build-blocking by the test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

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

_PASS_TOL = 1e-8  # relative slack of the quadrature verifiers
# fd_derivative_suite: random points per spec, their seed, and the pass bound
_FD_POINTS = 1000
_FD_SEED = 99
_FD_REL_TOL = 1e-6


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _positive(v) -> bool:
    return _real(v) and v > 0.0


def _coefficients(v) -> bool:
    return np.ndim(v) == 1 and len(v) > 0 and all(map(_real, v))


@dataclass(frozen=True)
class _FnFamily:
    """One test-function family: its parameter schema, its evaluation
    ``f(params, x)`` and ``draw(rng, positive)``, the parameters
    ``random_test_function`` draws for it (``positive``: for a weight S)."""

    schema: dict  # parameter name -> predicate on its value
    f: Callable
    draw: Callable
    optional: tuple = ()  # schema names that may be left out
    weight: bool = False  # positive on the line, so it may serve as a Lyapunov weight S


_FN_FAMILIES = {
    # exp(-(x - center)^2 / 2 width^2) + offset
    "gaussian_bump_fn": _FnFamily(
        schema={"center": _real, "width": _positive, "offset": _real},
        f=lambda p, x: p.get("offset", 0.0) + np.exp(-0.5 * ((x - p["center"]) / p["width"]) ** 2),
        draw=lambda rng, positive: {
            "center": float(rng.uniform(-2, 2)),
            "width": float(rng.uniform(0.8, 2.5)),
            "offset": float(rng.uniform(0.2, 1.0)) if positive else 0.0,
        },
        optional=("offset",),
        weight=True,
    ),
    # sum_k coefficients[k] x^k
    "polynomial_fn": _FnFamily(
        schema={"coefficients": _coefficients},
        f=lambda p, x: np.polynomial.polynomial.polyval(x, p["coefficients"]),
        draw=lambda rng, positive: {"coefficients": [float(c) for c in rng.uniform(-1, 1, size=3)]},
    ),
    # 1 / (1 + exp(-(x - center) / scale))
    "logistic_fn": _FnFamily(
        schema={"center": _real, "scale": _positive},
        f=lambda p, x: 1.0 / (1.0 + np.exp(-(x - p["center"]) / p["scale"])),
        draw=lambda rng, positive: {
            "center": float(rng.uniform(-2, 2)),
            "scale": float(rng.uniform(0.5, 2.0)),
        },
        weight=True,
    ),
}


@dataclass(frozen=True)
class TestFunctionSpec:
    """Twice-differentiable scalar test function on the line, from a family
    of ``_FN_FAMILIES``: ``gaussian_bump_fn`` (``center``, ``width`` > 0 and
    an optional ``offset``), ``polynomial_fn`` (``coefficients``, ascending
    powers) and ``logistic_fn`` (``center``, ``scale`` > 0).  Parameters are
    checked here; positive-role functions (Lyapunov weights S > 0) are
    validated on the grid they are used on.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    family: str
    params: dict

    def __post_init__(self):
        fam = _FN_FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if fam is None:
            raise InvalidSpecError(f"unknown test function family {self.family!r}")
        if not isinstance(self.params, dict):
            raise InvalidSpecError(f"{self.family} params must be a dict, got {self.params!r}")
        unknown = set(self.params) - set(fam.schema)
        if unknown:
            raise InvalidSpecError(f"unknown params for {self.family}: {sorted(unknown)}")
        for name, ok in fam.schema.items():
            if name not in self.params:
                if name in fam.optional:
                    continue
                raise InvalidSpecError(f"{self.family} requires param {name!r}")
            if not ok(self.params[name]):
                raise InvalidSpecError(f"{self.family} param {name}={self.params[name]!r} out of range")

    def __call__(self, x):
        return _FN_FAMILIES[self.family].f(self.params, np.asarray(x, dtype=float))


def random_test_function(rng: np.random.Generator, purpose: str = "g_generic") -> TestFunctionSpec:
    """Draw a random test function; positive families only for S weights."""
    if purpose not in ("S_positive", "g_generic"):
        raise InvalidSpecError(f"unknown purpose {purpose!r}")
    positive = purpose == "S_positive"
    fams = [name for name, fam in _FN_FAMILIES.items() if fam.weight or not positive]
    fam = fams[int(rng.integers(len(fams)))]
    return TestFunctionSpec(family=fam, params=_FN_FAMILIES[fam].draw(rng, positive))


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    detail: dict = field(default_factory=dict)


def _d1(values: np.ndarray, dx: float, axis: int, out: np.ndarray) -> np.ndarray:
    """d/dx of ``values`` along ``axis`` at uniform spacing ``dx``, written into
    ``out`` (same shape, no overlap with ``values``) and returned.

    These are numpy.gradient's ``edge_order=2`` formulas, operation for
    operation: central differences inside, one-sided 3-point differences at
    both ends, so the result is numpy's ``gradient(values, dx, axis=axis,
    edge_order=2)`` bit for bit.  Needs at least 3 nodes along ``axis``.
    """
    f = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    inner = o[1:-1]
    np.subtract(f[2:], f[:-2], out=inner)
    np.divide(inner, 2.0 * dx, out=inner)
    a, b, c = -1.5 / dx, 2.0 / dx, -0.5 / dx
    o[0] = a * f[0] + b * f[1] + c * f[2]
    a, b, c = 0.5 / dx, -2.0 / dx, 1.5 / dx
    o[-1] = a * f[-3] + b * f[-2] + c * f[-1]
    return out


def _d2_1d(values: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """(v[2:] - 2 v[1:-1] + v[:-2]) / dx^2 inside, the nearest interior value
    at both ends, written into ``out`` (no overlap with ``values``)."""
    inner = out[1:-1]
    np.multiply(2, values[1:-1], out=inner)
    np.subtract(values[2:], inner, out=inner)
    np.add(inner, values[:-2], out=inner)
    np.divide(inner, dx**2, out=inner)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def verify_lyapunov_lemma(
    measure: GridMeasure,
    cases: Sequence[tuple[TestFunctionSpec, TestFunctionSpec]],
) -> list[InequalityCheck]:
    """Check  Int -(H S / S) g^2 dm <= Int |g'|^2 dm  on a 1D grid for each
    ``(S, g)`` of ``cases``, with H = Lap - V' d/dx the generator of the
    measure; one check per case, in order.

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
    weights = measure.weights
    hs, d1, g_sq = (np.empty(x.shape) for _ in range(3))
    checks = []
    for S, g in cases:
        s_vals = S(x)
        if np.any(s_vals <= 0):
            raise InvalidSpecError("Lyapunov weight S must be positive on the grid")
        g_vals = g(x)
        # H S = S'' + (-V') S', then -(H S / S) g^2
        _d2_1d(s_vals, dx, hs)
        np.add(hs, np.multiply(measure.grad_log_density, _d1(s_vals, dx, 0, d1), out=d1), out=hs)
        np.negative(np.divide(hs, s_vals, out=hs), out=hs)
        np.multiply(hs, np.square(g_vals, out=g_sq), out=hs)
        lhs = measure.expectation(hs, weights, out=hs)
        grad_g = _d1(g_vals, dx, 0, d1)
        rhs = measure.expectation(np.square(grad_g, out=grad_g), weights, out=grad_g)
        checks.append(InequalityCheck(
            name="lyapunov_lemma",
            lhs=lhs,
            rhs=rhs,
            passed=bool(lhs <= rhs + _PASS_TOL * (1 + abs(rhs))),
            detail={"spacing": dx},
        ))
    return checks


def _check_pair_grid(model: ModelConfig, measure: GridMeasure, what: str) -> None:
    if model.N != 2 or model.d != 1 or measure.ndim != 2:
        raise InvalidSpecError(f"{what} oracle is restricted to N = 2, d = 1 on a 2D pair grid")


def verify_moment_bound(
    model: ModelConfig,
    C_LS: float,
    tau: float,
    g_pairs: Sequence[tuple[TestFunctionSpec, TestFunctionSpec]],
    measure: GridMeasure,
) -> list[InequalityCheck]:
    """Pair-distance moment bound on the N = 2, d = 1 mean-field measure, for
    each ``(g1, g2)`` of ``g_pairs``:

        Int |x1 - x2|^2 g^2 dm  <=  (2 C_LS / tau) Int |grad g|^2 dm
                                    + (d ln(1 - 4 tau C_LS)^{-1} / (2 tau)) Int g^2 dm

    for 0 < tau < 1/(4 C_LS);  g(x1, x2) = g1(x1) g2(x2) is a separable test
    function.  At tau = 1/(8 C_LS) the constants reduce to 16 C_LS^2 and
    4 ln2 d C_LS.  One check per pair, in order.
    """
    _check_pair_grid(model, measure, "moment bound")
    if not _positive(C_LS):
        raise InvalidSpecError(f"C_LS must be finite and positive, got {C_LS!r}")
    if not _real(tau):
        raise InvalidSpecError(f"tau must be finite, got {tau!r}")
    if not 0.0 < tau < 1.0 / (4.0 * C_LS):
        raise InvalidSpecError("tau must lie in (0, 1/(4 C_LS))")
    x = measure.axes[0]
    dx = measure.spacing
    weights = measure.weights
    dist_sq = (x[:, None] - x[None, :]) ** 2
    grad_coef = 2.0 * C_LS / tau
    log_coef = model.d * math.log(1.0 / (1.0 - 4.0 * tau * C_LS)) / (2.0 * tau)
    # G, then G^2 and a product; both are free again once their
    # expectations are taken, and then hold the two partial derivatives
    G, G_sq, prod = (np.empty(weights.shape) for _ in range(3))
    checks = []
    for g1, g2 in g_pairs:
        np.multiply(g1(x)[:, None], g2(x)[None, :], out=G)
        np.square(G, out=G_sq)
        lhs = measure.expectation(np.multiply(dist_sq, G_sq, out=prod), weights, out=prod)
        e_g_sq = measure.expectation(G_sq, weights, out=prod)
        d_x1, d_x2 = _d1(G, dx, 0, G_sq), _d1(G, dx, 1, prod)
        grad_sq = np.add(np.square(d_x1, out=d_x1), np.square(d_x2, out=d_x2), out=d_x1)
        rhs = grad_coef * measure.expectation(grad_sq, weights, out=grad_sq) + log_coef * e_g_sq
        checks.append(InequalityCheck(
            name="moment_bound",
            lhs=lhs,
            rhs=rhs,
            passed=bool(lhs <= rhs + _PASS_TOL * (1 + abs(rhs))),
            detail={"tau": tau, "C_LS": C_LS, "spacing": dx},
        ))
    return checks


def _pair_hessian(model: ModelConfig, x: np.ndarray) -> tuple:
    """Entries (h11, h22, h12) of hess V on the pair grid x by x:

        hess V(x1, x2) = [[U''(x1) + w/2, -w/2], [-w/2, U''(x2) + w/2]]

    with w = W''(x1 - x2), the closed form of the block assembly at N = 2."""
    r = np.abs(x[:, None] - x[None, :])
    w = model.W.d2profile(r) if model.W is not None else np.zeros_like(r)
    hu = model.U.d2profile(np.abs(x))
    return hu[:, None] + w / 2.0, hu[None, :] + w / 2.0, -w / 2.0


def verify_boundedness_condition(
    model: ModelConfig,
    M1: float,
    M2: float,
    cases: Sequence[tuple[TestFunctionSpec, Sequence[float]]],
    measure: GridMeasure,
) -> list[InequalityCheck]:
    """Mixed-derivative boundedness condition on separable h(x, v) = phi(x) (psi . v),
    for each ``(phi, psi)`` of ``cases``:

        Int |hess V(x) . grad_v h|^2 dmu  <=  M1 Int |grad_xv h|_HS^2 dmu
                                              + M2 Int |grad_v h|^2 dmu.

    For this h the velocity integrals collapse to Gaussian moments of order
    zero (grad_v h = phi psi is v-free), leaving position-space quadrature:

        Int |hess V psi|^2 phi^2 dm <= M1 |psi|^2 Int |grad phi|^2 dm
                                       + M2 |psi|^2 Int phi^2 dm.

    One check per case, in order.
    """
    _check_pair_grid(model, measure, "boundedness")
    for name, v in (("M1", M1), ("M2", M2)):
        if not (_real(v) and v >= 0.0):
            raise InvalidSpecError(f"{name} must be finite and non-negative, got {v!r}")
    x = measure.axes[0]
    dx = measure.spacing
    weights = measure.weights
    h11, h22, h12 = _pair_hessian(model, x)
    hv_psi_sq, row2, work = (np.empty(weights.shape) for _ in range(3))
    d_phi = np.empty(x.shape)
    checks = []
    for phi, psi_vec in cases:
        psi = np.asarray(psi_vec, dtype=float)
        if psi.shape != (2,) or not np.isfinite(psi).all():
            raise InvalidSpecError(f"psi must be a finite vector in R^(N d) = R^2, got {psi_vec!r}")
        # (h11 psi0 + h12 psi1)^2 + (h12 psi0 + h22 psi1)^2
        np.add(np.multiply(h11, psi[0], out=hv_psi_sq), np.multiply(h12, psi[1], out=work), out=hv_psi_sq)
        np.add(np.multiply(h12, psi[0], out=row2), np.multiply(h22, psi[1], out=work), out=row2)
        np.add(np.square(hv_psi_sq, out=hv_psi_sq), np.square(row2, out=row2), out=hv_psi_sq)
        # phi depends on x1 alone: its factors stay 1D columns, broadcast over x2
        phi_x = phi(x)
        phi_sq = (phi_x**2)[:, None]
        grad_phi_sq = (_d1(phi_x, dx, 0, d_phi) ** 2)[:, None]
        psi_sq = float((psi**2).sum())
        lhs = measure.expectation(np.multiply(hv_psi_sq, phi_sq, out=hv_psi_sq), weights, out=hv_psi_sq)
        e_grad = measure.expectation(grad_phi_sq, weights, out=work)
        e_phi2 = measure.expectation(phi_sq, weights, out=work)
        rhs = psi_sq * (M1 * e_grad + M2 * e_phi2)
        checks.append(InequalityCheck(
            name="boundedness_condition",
            lhs=lhs,
            rhs=rhs,
            passed=bool(lhs <= rhs * (1 + _PASS_TOL)),
            detail={"M1": M1, "M2": M2, "spacing": dx},
        ))
    return checks


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
    cases = [(random_test_function(rng, "S_positive"), random_test_function(rng, "g_generic"))
             for _ in range(n_lyapunov)]
    checks.extend(verify_lyapunov_lemma(measure_1d, cases))

    pair_quad = ModelConfig(N=2, d=1, U=u_quad, W=None)
    measure_2d = GridMeasure.from_pair_model(pair_quad, halfwidth=9.0, n=361)
    C_LS = 1.0  # Bakry-Emery for the unit-curvature quadratic model
    g_pairs = [(random_test_function(rng, "g_generic"), random_test_function(rng, "g_generic"))
               for _ in range(n_moment)]
    checks.extend(verify_moment_bound(pair_quad, C_LS, 1.0 / (8.0 * C_LS), g_pairs, measure=measure_2d))

    u_dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    pair_dw = ModelConfig(N=2, d=1, U=u_dw, W=None)
    measure_dw = GridMeasure.from_pair_model(pair_dw, halfwidth=9.0, n=361)
    bundle = extract_constants(u_dw, None)
    bc = certifier.constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
    cases = [(random_test_function(rng, "g_generic"), rng.uniform(-1.5, 1.5, size=2))
             for _ in range(n_boundedness)]
    checks.extend(verify_boundedness_condition(pair_dw, bc.M1, bc.M2, cases, measure=measure_dw))

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
