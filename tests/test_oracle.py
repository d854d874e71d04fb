import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from langcert.certifier import constants_bounded_grad
from langcert.errors import InvalidSpecError
from langcert.funcineq import GridMeasure
from langcert.meanfield import ModelConfig
from langcert.oracle import (
    TestFunctionSpec,
    _d1,
    _d2_1d,
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
    [chk] = verify_lyapunov_lemma(measure_1d, [(S, g)])
    assert chk.passed
    assert chk.rhs == pytest.approx(0.0, abs=1e-12)
    assert chk.lhs <= 1e-8  # integral of -(HS/S) dm is nonpositive


def test_lyapunov_lemma_equality_case():
    # S = g > 0: the proof's Cauchy-Schwarz is tight.  The discrete-generator
    # residual scales with dx^2, so the equality case needs a finer grid than
    # the random battery to sit inside the 1e-8 pass band; slack stays < 1e-6.
    measure = GridMeasure.from_potential(QUAD, halfwidth=9.0, n=128001)
    S = gaussian_fn(-0.3, 1.0, offset=0.5)
    [chk] = verify_lyapunov_lemma(measure, [(S, S)])
    assert chk.passed
    assert abs(chk.rhs - chk.lhs) < 1e-6


def test_lyapunov_lemma_random_battery(measure_1d):
    rng = np.random.default_rng(2718)
    cases = [(random_test_function(rng, "S_positive"), random_test_function(rng, "g_generic"))
             for _ in range(20)]
    checks = verify_lyapunov_lemma(measure_1d, cases)
    assert len(checks) == 20
    assert all(chk.passed for chk in checks)
    with pytest.raises(InvalidSpecError):
        random_test_function(rng, "S_generic")


def test_lyapunov_lemma_rejects_nonpositive_S(measure_1d):
    S = TestFunctionSpec("polynomial_fn", {"coefficients": [0.0, 1.0]})  # x changes sign
    with pytest.raises(InvalidSpecError):
        verify_lyapunov_lemma(measure_1d, [(S, S)])


def test_lyapunov_lemma_grid_refinement_second_order():
    S = gaussian_fn(0.4, 0.9, offset=0.4)
    g = gaussian_fn(-0.6, 1.3)
    vals = []
    for n in (751, 1501, 3001):
        m = GridMeasure.from_potential(QUAD, halfwidth=9.0, n=n)
        [chk] = verify_lyapunov_lemma(m, [(S, g)])
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
    [chk] = verify_moment_bound(PAIR_QUAD, C, tau, [g], measure=measure_2d)
    assert chk.passed


def test_moment_bound_constant_g_gaussian_moment(measure_2d):
    # E|x1 - x2|^2 = 2 for the iid standard Gaussian pair; rhs = 4 ln 2
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    [chk] = verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, [(ones, ones)], measure=measure_2d)
    assert chk.lhs == pytest.approx(2.0, abs=1e-6)
    assert chk.rhs == pytest.approx(4 * math.log(2), abs=1e-9)
    assert chk.passed


def test_moment_bound_random_battery(measure_2d):
    rng = np.random.default_rng(6)
    g_pairs = [(random_test_function(rng), random_test_function(rng)) for _ in range(10)]
    checks = verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, g_pairs, measure=measure_2d)
    assert len(checks) == 10
    assert all(chk.passed for chk in checks)


def test_moment_bound_tau_range_enforced(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError):
        verify_moment_bound(PAIR_QUAD, 1.0, 0.3, [(ones, ones)], measure=measure_2d)


@pytest.mark.parametrize("C_LS", [0.0, -1.0, math.nan, math.inf])
def test_moment_bound_rejects_a_c_ls_that_is_not_finite_and_positive(C_LS, measure_2d):
    # C_LS = 0 used to escape as a bare ZeroDivisionError from 1/(4 C_LS)
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError, match="C_LS"):
        verify_moment_bound(PAIR_QUAD, C_LS, 1.0 / 8.0, [(ones, ones)], measure=measure_2d)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_moment_bound_rejects_a_tau_that_is_not_finite(tau, measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError, match="tau"):
        verify_moment_bound(PAIR_QUAD, 1.0, tau, [(ones, ones)], measure=measure_2d)


def test_moment_bound_near_upper_tau_blows_up(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    [chk] = verify_moment_bound(PAIR_QUAD, 1.0, 0.2499999, [(ones, ones)], measure=measure_2d)
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
    [chk] = verify_boundedness_condition(PAIR_QUAD, 0.0, 1.0, [(ones, [0.7, -0.4])], measure=measure_2d)
    assert chk.passed
    [chk_bad] = verify_boundedness_condition(PAIR_QUAD, 0.0, 0.9, [(ones, [0.7, -0.4])], measure=measure_2d)
    assert not chk_bad.passed


def test_boundedness_constant_phi_zero_mixed_term(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    [chk] = verify_boundedness_condition(PAIR_QUAD, 123.0, 1.0, [(ones, [1.0, 0.0])], measure=measure_2d)
    [chk2] = verify_boundedness_condition(PAIR_QUAD, 0.0, 1.0, [(ones, [1.0, 0.0])], measure=measure_2d)
    # grad phi = 0 kills the M1 term entirely
    assert chk.rhs == pytest.approx(chk2.rhs, rel=1e-12)


def test_boundedness_double_well_certified_constants():
    dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    model = ModelConfig(N=2, d=1, U=dw)
    measure = GridMeasure.from_pair_model(model, halfwidth=9.0, n=361)
    bundle = extract_constants(dw, None)
    bc = constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
    rng = np.random.default_rng(7)
    cases = [(random_test_function(rng), rng.uniform(-1.5, 1.5, size=2)) for _ in range(10)]
    checks = verify_boundedness_condition(model, bc.M1, bc.M2, cases, measure=measure)
    assert len(checks) == 10
    assert all(chk.passed for chk in checks)


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
    got = [asdict(c) for c in fd_derivative_suite(specs)]
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
        [chk] = verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, [g], measure=m)
        vals.append(chk.rhs)
    ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
    assert 3.0 <= ratio <= 5.0


# ---------------------------------------------------------------------------
# test-function table and pair-grid checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, params", [
    ("gaussian_bump_fn", {}),
    ("gaussian_bump_fn", {"center": 0.0, "width": 0.0}),
    ("gaussian_bump_fn", {"center": float("nan"), "width": 1.0}),
    ("gaussian_bump_fn", {"center": True, "width": 1.0}),
    ("logistic_fn", {"center": 0.0, "scale": 0}),
    ("logistic_fn", {"center": 0.0, "scale": 1.0, "offset": 0.5}),
    ("polynomial_fn", {"coefficients": []}),
    ("polynomial_fn", {"coefficients": [1.0, "x"]}),
    ("polynomial_fn", [1.0]),
    ("sine_fn", {}),
])
def test_test_function_spec_checks_params_when_built(family, params):
    with pytest.raises(InvalidSpecError):
        TestFunctionSpec(family, params)


def test_gaussian_bump_fn_offset_is_optional():
    assert TestFunctionSpec("gaussian_bump_fn", {"center": 0.0, "width": 1.0})(0.0) == 1.0


def _draw_by_chain(rng, purpose):
    """random_test_function as the if-chain it replaced: (family, params)."""
    fams = ("gaussian_bump_fn", "logistic_fn") if purpose == "S_positive" else (
        "gaussian_bump_fn", "polynomial_fn", "logistic_fn")
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
    return fam, params


def _eval_by_chain(fn, x):
    """TestFunctionSpec.__call__ as the if-chain it replaced."""
    fam, p = fn
    if fam == "gaussian_bump_fn":
        z = (x - p["center"]) / p["width"]
        return p.get("offset", 0.0) + np.exp(-0.5 * z**2)
    if fam == "polynomial_fn":
        return np.polynomial.polynomial.polyval(x, p["coefficients"])
    return 1.0 / (1.0 + np.exp(-(x - p["center"]) / p["scale"]))


@pytest.mark.parametrize("purpose", ["S_positive", "g_generic"])
def test_random_test_function_draws_and_values_match_chain(purpose):
    rng, rng_chain = np.random.default_rng(5), np.random.default_rng(5)
    x = np.linspace(-9.0, 9.0, 1001)
    for _ in range(100):
        spec = random_test_function(rng, purpose)
        fn = _draw_by_chain(rng_chain, purpose)
        assert repr((spec.family, spec.params)) == repr(fn)
        assert spec(x).tobytes() == _eval_by_chain(fn, x).tobytes()


@pytest.mark.parametrize("M1, M2, psi", [
    (math.nan, 1.0, [1.0, 0.0]),
    (1.0, math.nan, [1.0, 0.0]),
    (-1.0, 1.0, [1.0, 0.0]),
    (1.0, -1e-3, [1.0, 0.0]),
    (math.inf, 1.0, [1.0, 0.0]),
    (1.0, 1.0, [math.nan, 0.0]),
    (1.0, 1.0, [0.0, math.inf]),
])
def test_boundedness_rejects_bad_constants_and_psi(M1, M2, psi, measure_2d):
    # these used to return a failed check with a NaN lhs or rhs
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError):
        verify_boundedness_condition(PAIR_QUAD, M1, M2, [(ones, psi)], measure=measure_2d)


def test_boundedness_rejects_1d_measure(measure_1d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError):
        verify_boundedness_condition(PAIR_QUAD, 0.0, 1.0, [(ones, [1.0, 0.0])], measure=measure_1d)


def test_moment_bound_rejects_1d_measure(measure_1d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError):
        verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, [(ones, ones)], measure=measure_1d)


def test_moment_bound_rejects_more_than_two_particles(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    with pytest.raises(InvalidSpecError):
        verify_moment_bound(ModelConfig(N=5, d=1, U=QUAD), 1.0, 1.0 / 8.0, [(ones, ones)], measure=measure_2d)


def test_moment_bound_rejects_dimension_above_one(measure_2d):
    ones = TestFunctionSpec("polynomial_fn", {"coefficients": [1.0]})
    model = ModelConfig(N=2, d=3, U=PotentialSpec("quadratic", {"coef": 1.0}, dim=3))
    with pytest.raises(InvalidSpecError):
        verify_moment_bound(model, 1.0, 1.0 / 8.0, [(ones, ones)], measure=measure_2d)


# ---------------------------------------------------------------------------
# difference quotients into buffers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dx", [0.05, 1.0, 0.0123, 7.5])
@pytest.mark.parametrize("n", [3, 4, 361])
def test_d1_is_numpy_gradient_bit_for_bit(n, dx):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, size=n)
    out = np.full(n, np.nan)
    assert _d1(v, dx, 0, out) is out
    assert out.tobytes() == np.gradient(v, dx, edge_order=2).tobytes()
    V = rng.standard_normal((n, n + 1))
    for axis in (0, 1):
        out = np.full(V.shape, np.nan)
        _d1(V, dx, axis, out)
        assert out.tobytes() == np.gradient(V, dx, axis=axis, edge_order=2).tobytes()


@pytest.mark.parametrize("dx", [0.05, 1.125e-3, 3.0])
@pytest.mark.parametrize("n", [3, 4, 16001])
def test_d2_1d_is_the_three_point_formula_bit_for_bit(n, dx):
    v = np.random.default_rng(n).standard_normal(n)
    ref = np.empty(n)
    ref[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
    ref[0], ref[-1] = ref[1], ref[-2]
    out = np.full(n, np.nan)
    assert _d2_1d(v, dx, out) is out
    assert out.tobytes() == ref.tobytes()


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("verifier", ["moment", "boundedness"])
def test_pair_verifier_peak_memory_does_not_grow_with_the_battery(verifier, measure_2d):
    # the work arrays are allocated once per call: ten cases may not hold
    # more grid-sized temporaries at once than one case does
    rng = np.random.default_rng(3)
    if verifier == "moment":
        cases = [(random_test_function(rng), random_test_function(rng)) for _ in range(10)]
        run = lambda cases: verify_moment_bound(PAIR_QUAD, 1.0, 1.0 / 8.0, cases, measure=measure_2d)
    else:
        cases = [(random_test_function(rng), rng.uniform(-1.5, 1.5, size=2)) for _ in range(10)]
        run = lambda cases: verify_boundedness_condition(PAIR_QUAD, 1.0, 1.0, cases, measure=measure_2d)
    grid_floats = measure_2d.log_density.size
    one, ten = _peak_bytes(lambda: run(cases[:1])), _peak_bytes(lambda: run(cases))
    assert ten <= one + 0.25 * grid_floats * 8, (one / (8 * grid_floats), ten / (8 * grid_floats))


# ---------------------------------------------------------------------------
# batteries against the per-check formulas
# ---------------------------------------------------------------------------

def _grad(values, dx, axis=0):
    return np.gradient(values, dx, axis=axis, edge_order=2)


def _batteries_per_check(n_lyapunov, n_moment, n_boundedness, seed):
    """oracle_suite's three batteries as the per-check loops they replaced:
    the weights, meshgrids and Hessian fields are rebuilt for every check."""
    rng = np.random.default_rng(seed)
    out = []
    m = GridMeasure.from_potential(QUAD, halfwidth=9.0, n=16001)
    x, dx = m.axes[0], m.spacing
    for _ in range(n_lyapunov):
        S, g = _draw_by_chain(rng, "S_positive"), _draw_by_chain(rng, "g_generic")
        s, gv = _eval_by_chain(S, x), _eval_by_chain(g, x)
        d2 = np.empty_like(s)
        d2[1:-1] = (s[2:] - 2 * s[1:-1] + s[:-2]) / dx**2
        d2[0], d2[-1] = d2[1], d2[-2]
        hs = d2 + m.grad_log_density * _grad(s, dx)
        lhs = float((m.weights * (-(hs / s) * gv**2)).sum())
        rhs = float((m.weights * _grad(gv, dx) ** 2).sum())
        out.append({"name": "lyapunov_lemma", "lhs": lhs, "rhs": rhs,
                    "passed": lhs <= rhs + 1e-8 * (1 + abs(rhs)), "detail": {"spacing": dx}})

    m = GridMeasure.from_pair_model(PAIR_QUAD, halfwidth=9.0, n=361)
    x, dx = m.axes[0], m.spacing
    C_LS, tau = 1.0, 1.0 / 8.0
    for _ in range(n_moment):
        g1, g2 = _draw_by_chain(rng, "g_generic"), _draw_by_chain(rng, "g_generic")
        G = np.outer(_eval_by_chain(g1, x), _eval_by_chain(g2, x))
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        lhs = float((m.weights * ((X1 - X2) ** 2 * G**2)).sum())
        grad_sq = _grad(G, dx, axis=0) ** 2 + _grad(G, dx, axis=1) ** 2
        rhs = (2.0 * C_LS / tau) * float((m.weights * grad_sq).sum()) + (
            1 * math.log(1.0 / (1.0 - 4.0 * tau * C_LS)) / (2.0 * tau)
        ) * float((m.weights * G**2).sum())
        out.append({"name": "moment_bound", "lhs": lhs, "rhs": rhs,
                    "passed": lhs <= rhs + 1e-8 * (1 + abs(rhs)),
                    "detail": {"tau": tau, "C_LS": C_LS, "spacing": dx}})

    dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    m = GridMeasure.from_pair_model(ModelConfig(N=2, d=1, U=dw), halfwidth=9.0, n=361)
    x, dx = m.axes[0], m.spacing
    bundle = extract_constants(dw, None)
    bc = constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
    for _ in range(n_boundedness):
        phi, psi = _draw_by_chain(rng, "g_generic"), rng.uniform(-1.5, 1.5, size=2)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        w = np.zeros_like(X1)
        h11, h22, h12 = dw.d2profile(np.abs(X1)) + w / 2.0, dw.d2profile(np.abs(X2)) + w / 2.0, -w / 2.0
        hv_psi_sq = (h11 * psi[0] + h12 * psi[1]) ** 2 + (h12 * psi[0] + h22 * psi[1]) ** 2
        phi1 = np.outer(_eval_by_chain(phi, x), np.ones(x.size))
        lhs = float((m.weights * (hv_psi_sq * phi1**2)).sum())
        e_grad = float((m.weights * _grad(phi1, dx, axis=0) ** 2).sum())
        e_phi2 = float((m.weights * phi1**2).sum())
        rhs = float((psi**2).sum()) * (bc.M1 * e_grad + bc.M2 * e_phi2)
        out.append({"name": "boundedness_condition", "lhs": lhs, "rhs": rhs,
                    "passed": lhs <= rhs * (1 + 1e-8),
                    "detail": {"M1": bc.M1, "M2": bc.M2, "spacing": dx}})
    return out


@pytest.mark.parametrize("seed", [7, 12, 31415])
@pytest.mark.parametrize("sizes", [(20, 10, 10), (5, 3, 3), (0, 0, 0)])
def test_batteries_match_per_check_formulas(sizes, seed):
    # each battery builds its fields once and broadcasts 1D factors; every
    # check must stay bit for bit the per-check formula it replaced
    rep = oracle_suite(*sizes, seed=seed)
    assert repr(rep["oracle_suite"][:sum(sizes)]) == repr(_batteries_per_check(*sizes, seed))
    assert rep["n_checks"] == sum(sizes) + 4 + 3


def test_oracle_suite_builds_weights_once_per_battery(monkeypatch):
    builds = []
    weights = GridMeasure.weights
    monkeypatch.setattr(GridMeasure, "weights", property(lambda m: builds.append(m.ndim) or weights.fget(m)))
    oracle_suite()
    assert builds == [1, 2, 2]
