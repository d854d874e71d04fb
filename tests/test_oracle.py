import math

import numpy as np
import pytest

from langcert.certifier import constants_bounded_grad
from langcert.errors import InvalidSpecError
from langcert.funcineq import GridMeasure
from langcert.meanfield import ModelConfig
from langcert.oracle import (
    TestFunctionSpec,
    fd_derivative_suite,
    oracle_suite,
    random_test_function,
    verify_boundedness_condition,
    verify_lyapunov_lemma,
    verify_moment_bound,
)
from langcert.potentials import PotentialSpec, extract_constants

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
PAIR_QUAD = ModelConfig(N=2, d=1, U=QUAD)


@pytest.fixture(scope="module")
def measure_1d():
    return GridMeasure.from_potential(QUAD, halfwidth=9.0, n=16001)


@pytest.fixture(scope="module")
def measure_2d():
    return GridMeasure.from_pair_model(PAIR_QUAD, halfwidth=9.0, n=361)


def gaussian_fn(center=0.0, width=1.0, offset=0.0):
    return TestFunctionSpec("gaussian_bump_fn", {"center": center, "width": width, "offset": offset})


# ---------------------------------------------------------------------------
# Lyapunov weight lemma
# ---------------------------------------------------------------------------

def test_lyapunov_lemma_constant_g(measure_1d):
    S = gaussian_fn(0.5, 1.2, offset=0.3)
    g = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    chk = verify_lyapunov_lemma(measure_1d, S, g)
    assert chk.passed
    assert chk.rhs == pytest.approx(0.0, abs=1e-12)
    assert chk.lhs <= 1e-8  # integral of -(HS/S) dm is nonpositive


def test_lyapunov_lemma_equality_case():
    # S = g > 0: the proof's Cauchy-Schwarz is tight.  The discrete-generator
    # residual scales with dx^2, so the equality case needs a finer grid than
    # the random battery to sit inside the 1e-8 pass band; slack stays < 1e-6.
    measure = GridMeasure.from_potential(QUAD, halfwidth=9.0, n=128001)
    S = gaussian_fn(-0.3, 1.0, offset=0.5)
    chk = verify_lyapunov_lemma(measure, S, S)
    assert chk.passed
    assert abs(chk.rhs - chk.lhs) < 1e-6


def test_lyapunov_lemma_random_battery(measure_1d):
    rng = np.random.default_rng(2718)
    for _ in range(20):
        S = random_test_function(rng, "S_positive")
        g = random_test_function(rng, "g_generic")
        chk = verify_lyapunov_lemma(measure_1d, S, g)
        assert chk.passed
    with pytest.raises(InvalidSpecError):
        random_test_function(rng, "S_generic")


def test_lyapunov_lemma_rejects_nonpositive_S(measure_1d):
    S = TestFunctionSpec("polynomial_fn", {"coefficients": [0.0, 1.0]})  # x changes sign
    with pytest.raises(InvalidSpecError):
        verify_lyapunov_lemma(measure_1d, S, S)


def test_lyapunov_lemma_grid_refinement_second_order():
    S = gaussian_fn(0.4, 0.9, offset=0.4)
    g = gaussian_fn(-0.6, 1.3)
    vals = []
    for n in (751, 1501, 3001):
        m = GridMeasure.from_potential(QUAD, halfwidth=9.0, n=n)
        chk = verify_lyapunov_lemma(m, S, g)
        vals.append(chk.lhs)
    ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
    assert 3.0 <= ratio <= 5.0


# ---------------------------------------------------------------------------
# pair moment bound
# ---------------------------------------------------------------------------

def test_moment_bound_paper_constants_at_special_tau(measure_2d):
    # at tau = 1/(8 C_LS) the prefactors are 16 C_LS^2 and 4 ln2 d C_LS
    C = 1.0
    tau = 1.0 / (8.0 * C)
    assert 2 * C / tau == pytest.approx(16 * C**2)
    assert math.log(1.0 / (1.0 - 4 * tau * C)) / (2 * tau) == pytest.approx(4 * math.log(2) * C)
    g = (gaussian_fn(0.5, 1.5), gaussian_fn(-0.5, 1.2))
    chk = verify_moment_bound(PAIR_QUAD, C, tau, g, measure=measure_2d)
    assert chk.passed


def test_moment_bound_constant_g_gaussian_moment(measure_2d):
    # E|x1 - x2|^2 = 2 for the iid standard Gaussian pair; rhs = 4 ln 2
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    chk = verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, (ones, ones), measure=measure_2d)
    assert chk.lhs == pytest.approx(2.0, abs=1e-6)
    assert chk.rhs == pytest.approx(4 * math.log(2), abs=1e-9)
    assert chk.passed


def test_moment_bound_random_battery(measure_2d):
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = (random_test_function(rng), random_test_function(rng))
        chk = verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, g, measure=measure_2d)
        assert chk.passed


def test_moment_bound_tau_range_enforced(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError):
        verify_moment_bound(PAIR_QUAD, 1.0, 0.3, (ones, ones), measure=measure_2d)


def test_moment_bound_near_upper_tau_blows_up(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    chk = verify_moment_bound(PAIR_QUAD, 1.0, 0.2499999, (ones, ones), measure=measure_2d)
    assert chk.passed
    # the log factor diverges as tau -> 1/(4 C_LS); pass is trivial there
    assert chk.rhs > 10 * chk.lhs


# ---------------------------------------------------------------------------
# boundedness condition
# ---------------------------------------------------------------------------

def test_boundedness_quadratic_reduces_to_M2(measure_2d):
    # constant Hessian: the condition is |hess V psi|^2 <= M2 |psi|^2 with
    # phi = 1, i.e. a pure M2 test passing iff M2 >= |hess V|_op^2
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    # hess V eigenvalues for U quad(1), W none: {1, 1}
    chk = verify_boundedness_condition(PAIR_QUAD, 0.0, 1.0, ones, [0.7, -0.4], measure=measure_2d)
    assert chk.passed
    chk_bad = verify_boundedness_condition(PAIR_QUAD, 0.0, 0.9, ones, [0.7, -0.4], measure=measure_2d)
    assert not chk_bad.passed


def test_boundedness_constant_phi_zero_mixed_term(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    chk = verify_boundedness_condition(PAIR_QUAD, 123.0, 1.0, ones, [1.0, 0.0], measure=measure_2d)
    chk2 = verify_boundedness_condition(PAIR_QUAD, 0.0, 1.0, ones, [1.0, 0.0], measure=measure_2d)
    # grad phi = 0 kills the M1 term entirely
    assert chk.rhs == pytest.approx(chk2.rhs, rel=1e-12)


def test_boundedness_double_well_certified_constants():
    dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    model = ModelConfig(N=2, d=1, U=dw)
    measure = GridMeasure.from_pair_model(model, halfwidth=9.0, n=361)
    bundle = extract_constants(dw, None)
    bc = constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
    rng = np.random.default_rng(7)
    for _ in range(10):
        phi = random_test_function(rng)
        psi = rng.uniform(-1.5, 1.5, size=2)
        chk = verify_boundedness_condition(model, bc.M1, bc.M2, phi, psi, measure=measure)
        assert chk.passed


# ---------------------------------------------------------------------------
# FD suite and whole battery
# ---------------------------------------------------------------------------

def test_fd_suite_all_families():
    checks = fd_derivative_suite([
        PotentialSpec("quadratic", {"coef": 1.0}, dim=1),
        PotentialSpec("gaussian_bump", {"amplitude": 1.0, "width": 1.0, "sign": "attractive"},
                      dim=1, role="interaction"),
        PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.3}, dim=1, role="interaction"),
    ])
    assert all(c.passed for c in checks)


def _fd_suite_per_point(specs):
    """fd_derivative_suite as a loop over points, one-point calls each."""
    rng = np.random.default_rng(99)
    out = []
    for spec in specs:
        d = spec.dim
        pts = rng.uniform(-4, 4, size=(1000, d)) * spec.char_length()
        worst_g = worst_h = 0.0
        for x in pts:
            h = 1e-5 * (1 + np.abs(x))
            grad_fd = np.empty(d)
            hess_fd = np.empty((d, d))
            for a in range(d):
                e = np.zeros(d)
                e[a] = h[a]
                grad_fd[a] = (spec.value(x + e) - spec.value(x - e)) / (2 * h[a])
                hess_fd[:, a] = (spec.gradient(x + e) - spec.gradient(x - e)) / (2 * h[a])
            ref_g = spec.gradient(x)
            ref_h = spec.hessian(x)
            scale_g = max(1.0, float(np.abs(ref_g).max()))
            scale_h = max(1.0, float(np.abs(ref_h).max()))
            worst_g = max(worst_g, float(np.abs(grad_fd - ref_g).max()) / scale_g)
            worst_h = max(worst_h, float(np.abs(hess_fd - ref_h).max()) / scale_h)
        worst = max(worst_g, worst_h)
        out.append({"name": f"fd_{spec.family}", "lhs": worst, "rhs": 1e-6, "passed": worst < 1e-6,
                    "detail": {"dim": d, "grad_err": worst_g, "hess_err": worst_h}})
    return out


def test_fd_suite_array_pass_matches_per_point_loop():
    # the suite evaluates each spec on the whole point array; every number
    # must stay bit for bit that of the one-point loop it replaced
    specs = []
    for d in (1, 2, 3):
        specs += [
            PotentialSpec("quadratic", {"coef": 1.3}, dim=d),
            PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=d),
            PotentialSpec("gaussian_bump", {"amplitude": 1.1, "width": 0.9, "sign": "attractive"},
                          dim=d, role="interaction"),
            PotentialSpec("gaussian_bump", {"amplitude": 0.3, "width": 0.7, "sign": "repulsive"},
                          dim=d, role="interaction"),
            PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.8}, dim=d, role="interaction"),
        ]
    got = [c.to_json() for c in fd_derivative_suite(specs)]
    assert repr(got) == repr(_fd_suite_per_point(specs))


def test_oracle_suite_all_pass():
    rep = oracle_suite(n_lyapunov=5, n_moment=3, n_boundedness=3, seed=12)
    assert rep["all_passed"]
    assert rep["n_checks"] == 5 + 3 + 3 + 4 + 3  # batteries + fd families + gap checks
    names = {c["name"] for c in rep["oracle_suite"]}
    assert {"lyapunov_lemma", "moment_bound", "boundedness_condition", "spectral_gap"} <= names
    assert len(rep["spectral_gap_oracle"]) == 3
    assert all("richardson" in g and "spacing" in g for g in rep["spectral_gap_oracle"])


def test_moment_bound_grid_refinement_second_order():
    # the gradient-bearing side carries the finite-difference error; the
    # derivative-free side is already converged at these resolutions
    g = (gaussian_fn(0.4, 1.1), gaussian_fn(-0.2, 1.4))
    vals = []
    for n in (61, 121, 241):
        m = GridMeasure.from_pair_model(PAIR_QUAD, halfwidth=9.0, n=n)
        chk = verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, g, measure=m)
        vals.append(chk.rhs)
    ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
    assert 3.0 <= ratio <= 5.0
