import math
import re

import numpy as np
import pytest

from langcert.errors import InvalidSpecError, TailCoverageError
from langcert.funcineq import (
    GridMeasure,
    kappa_bakry_emery,
    kappa_dissipativity,
    lsi_transfer,
    spectral_gap,
    ulsi_criterion,
    upi_criterion,
)
from langcert.meanfield import ModelConfig
from langcert.potentials import PotentialSpec, lipschitz_from_model


def quad(c, d=1, role="confinement"):
    return PotentialSpec("quadratic", {"coef": c}, dim=d, role=role)


def bump(a, sign="attractive"):
    return PotentialSpec("gaussian_bump", {"amplitude": a, "width": 1.0, "sign": sign}, dim=1, role="interaction")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_bakry_emery_two_quadratics():
    be = kappa_bakry_emery(quad(1.0), quad(0.5, role="interaction"))
    assert be.kappa == pytest.approx(1.0)
    assert be.c_ls == pytest.approx(1.0)


def test_bakry_emery_with_attractive_bump():
    # 1D minimization oracle: inf_r A (1 - r^2) e^{-r^2/2} = -2 A e^{-3/2}
    r = np.linspace(0, 10, 400001)
    inf_grid = (0.3 * (1 - r**2) * np.exp(-(r**2) / 2)).min()
    assert inf_grid == pytest.approx(-2 * 0.3 * math.exp(-1.5), abs=1e-9)
    be = kappa_bakry_emery(quad(1.0), bump(0.3))
    assert be.kappa == pytest.approx(1.0 + inf_grid, abs=1e-9)
    assert be.c_ls == pytest.approx(1.0 / be.kappa)


def test_bakry_emery_double_well_absent():
    dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    assert kappa_bakry_emery(dw, None) is None


def test_kappa_dissipativity_quadratic_matches_gaussian_gap():
    clip = lipschitz_from_model(quad(1.0), None)
    assert clip.value == pytest.approx(1.0, abs=1e-8)
    assert kappa_dissipativity(0.0, clip.value) == pytest.approx(1.0, abs=1e-8)


def test_kappa_dissipativity_boundary_and_infinite():
    assert kappa_dissipativity(-1.0 + 1e-12, 1.0) == pytest.approx(1e-12, rel=1e-3)
    assert kappa_dissipativity(-2.0, 1.0) is None
    assert kappa_dissipativity(0.5, math.inf) is None


def test_upi_criterion_formula():
    assert upi_criterion(5.0, 0.0, 0.0, 1.0) == pytest.approx(2.0)
    assert upi_criterion(3.0, 0.0, 2.0, 0.0) == pytest.approx(3.0)  # K = 0 -> c_u
    assert upi_criterion(1.0, 10.0, 10.0, 0.5) is None


def test_lsi_transfer_formula():
    assert lsi_transfer(1.0, 1.0, 0.0) == pytest.approx(1.0)  # gamma0 = 0
    assert lsi_transfer(1.0, 1.0, 0.5) == pytest.approx(4.0)  # rho >= 0.25
    assert lsi_transfer(1.0, 2.0, 0.5) is None  # gamma0 = 1 boundary
    with pytest.raises(InvalidSpecError):
        lsi_transfer(0.0, 1.0, 0.1)


def test_ulsi_criterion():
    assert ulsi_criterion(5.0, 0.0, 0.0, 0.0) is True
    assert ulsi_criterion(5.0, 0.0, 0.0, 1.0) is True  # 1/4 < 1
    assert ulsi_criterion(1.1, 1.0, 4.0, 1.0) is False  # e * 10 > 1
    assert ulsi_criterion(0.5, 0.0, 0.0, 1.0) is False  # c_u <= K


def test_ulsi_criterion_past_the_float_range_of_its_exponential():
    # e^{cR/4} overflows a float beyond cR/4 = 709.78; the criterion compares
    # cR/4 with log((c_u - K)/K) instead, so it fails without raising for
    # K > 0 and holds outright for K = 0
    assert ulsi_criterion(5.0, 4.0, 720.0, 1e-300) is False  # cR/4 = 720 > log(5e300) = 692
    assert ulsi_criterion(5.0, 4.0, 720.0, 1e-320) is True  # log(5e320) = 738.5
    assert ulsi_criterion(0.02807, 57.88, 53.18, 0.0) is True


# ---------------------------------------------------------------------------
# grid measure
# ---------------------------------------------------------------------------

def test_grid_measure_normalized():
    m = GridMeasure.from_potential(quad(1.0), halfwidth=9.0, n=4001)
    assert abs(m.weights.sum() - 1.0) < 1e-10
    x = m.axes[0]
    # second moment of the standard Gaussian
    assert m.expectation(x**2) == pytest.approx(1.0, abs=1e-8)


def test_grid_measure_tail_rejection():
    with pytest.raises(TailCoverageError) as exc:
        GridMeasure.from_potential(quad(1.0), halfwidth=2.0, n=801)
    assert exc.value.required_halfwidth > 2.0


@pytest.mark.parametrize("halfwidth, n, bad", [
    *((9.0, n, n) for n in (2, 1, 0, -5, 361.0, True)),
    *((h, 361, h) for h in (-9.0, 0.0, math.nan, math.inf, "9")),
])
def test_grid_measures_reject_bad_grids(halfwidth, n, bad):
    # at n <= 2 every node is a boundary node, so no halfwidth passes the
    # tail check; a negative or NaN halfwidth gave a negative or NaN spacing
    model = ModelConfig(N=2, d=1, U=quad(1.0))
    for build in (lambda: GridMeasure.from_potential(quad(1.0), halfwidth=halfwidth, n=n),
                  lambda: GridMeasure.from_pair_model(model, halfwidth=halfwidth, n=n)):
        with pytest.raises(InvalidSpecError, match=re.escape(f"got {bad!r}")):
            build()


def test_smallest_grid_is_three_nodes():
    m = GridMeasure.from_potential(quad(1.0), halfwidth=40.0, n=3)
    assert m.spacing == 40.0 and m.weights.shape == (3,)


def test_expectation_out_holds_the_weighted_product():
    m = GridMeasure.from_pair_model(ModelConfig(N=2, d=1, U=quad(1.0)), halfwidth=9.0, n=121)
    w = m.weights
    v = np.random.default_rng(2).standard_normal(w.shape)
    out = np.empty(w.shape)
    assert repr(m.expectation(v, w, out=out)) == repr(m.expectation(v, w))
    assert out.tobytes() == (w * v).tobytes()
    # in place over the values, and with a column broadcast over the grid
    in_place = v.copy()
    assert repr(m.expectation(in_place, w, out=in_place)) == repr(m.expectation(v, w))
    assert in_place.tobytes() == out.tobytes()
    col = v[:, :1]
    assert repr(m.expectation(col, w, out=out)) == repr(m.expectation(col, w))


def test_pair_measure_gaussian_moments():
    model = ModelConfig(N=2, d=1, U=quad(1.0))
    m = GridMeasure.from_pair_model(model, halfwidth=9.0, n=361)
    x = m.axes[0]
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    assert m.expectation((X1 - X2) ** 2) == pytest.approx(2.0, abs=1e-6)
    assert m.expectation(X1 * X2) == pytest.approx(0.0, abs=1e-10)


def test_pair_measure_interaction_shifts_correlation():
    model = ModelConfig(N=2, d=1, U=quad(1.0), W=quad(1.0, role="interaction"))
    m = GridMeasure.from_pair_model(model, halfwidth=9.0, n=361)
    x = m.axes[0]
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    # V = (x1^2 + x2^2)/2 + (x1 - x2)^2/4: attractive coupling, corr > 0
    cov = m.expectation(X1 * X2)
    assert cov > 0.05


def test_expectation_with_read_weights_is_bit_identical():
    # verifiers read the weights once and pass them to every expectation;
    # the measure must not keep them (each read rebuilds them)
    rng = np.random.default_rng(5)
    for m in (GridMeasure.from_potential(quad(1.0), halfwidth=9.0, n=4001),
              GridMeasure.from_pair_model(ModelConfig(N=2, d=1, U=quad(1.0)), halfwidth=9.0, n=121)):
        w = m.weights
        for _ in range(3):
            v = rng.standard_normal(m.log_density.shape)
            assert repr(m.expectation(v, w)) == repr(m.expectation(v))
        assert m.weights is not w
        assert set(vars(m)) == {"axes", "log_density", "spacing", "grad_log_density"}


@pytest.mark.parametrize("W", [None, bump(0.3), bump(0.3, sign="repulsive"), quad(0.5, role="interaction")])
@pytest.mark.parametrize("U", [quad(1.0), PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5})],
                         ids=["quadratic", "double_well"])
def test_pair_measure_from_profiles_matches_configuration_sum(U, W):
    # from_pair_model sums the 1D profile U(|x|) over both axes; it must
    # equal U evaluated on every (x1, x2) configuration byte for byte, and
    # the pair grid carries no gradient
    n = 181
    m = GridMeasure.from_pair_model(ModelConfig(N=2, d=1, U=U, W=W), halfwidth=9.0, n=n)
    x = m.axes[0]
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    logd = -U.value(np.stack([X1.ravel(), X2.ravel()], axis=-1)[..., None]).sum(axis=-1)
    if W is not None:
        w0 = float(W.profile(np.zeros(1))[0])
        logd = logd - (2 * w0 + 2 * W.profile(np.abs((X1 - X2).ravel()))) / 4.0
    assert m.log_density.tobytes() == logd.reshape(n, n).tobytes()
    assert m.grad_log_density is None


# ---------------------------------------------------------------------------
# spectral gap oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k1", [0.5, 1.0, 2.0])
def test_gap_ou_matches_curvature(k1):
    m = GridMeasure.from_potential(quad(k1), halfwidth=9.0 / math.sqrt(k1), n=2001)
    res = spectral_gap(m)
    assert res.gap == pytest.approx(k1, rel=0.02)
    assert res.richardson == pytest.approx(k1, rel=1e-4)


def test_gap_second_order_convergence():
    dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    gaps = {}
    for n in (251, 501, 1001):
        m = GridMeasure.from_potential(dw, halfwidth=8.0, n=n)
        gaps[n] = spectral_gap(m).gap
    ratio = (gaps[251] - gaps[501]) / (gaps[501] - gaps[1001])
    assert 3.0 <= ratio <= 5.0


def test_gap_double_well_self_convergence():
    dw = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
    coarse = spectral_gap(GridMeasure.from_potential(dw, halfwidth=8.0, n=1001))
    fine = spectral_gap(GridMeasure.from_potential(dw, halfwidth=8.0, n=2001))
    assert coarse.gap == pytest.approx(fine.gap, rel=0.01)


def test_gap_2d_product_gaussian():
    model = ModelConfig(N=2, d=1, U=quad(1.0))
    m = GridMeasure.from_pair_model(model, halfwidth=8.0, n=201)
    res = spectral_gap(m)
    assert res.gap == pytest.approx(1.0, rel=0.02)


def test_consistency_curvature_dissipativity_grid():
    # U quadratic(k1), W = 0: all three kappa routes agree
    k1 = 1.7
    be = kappa_bakry_emery(quad(k1), None)
    clip = lipschitz_from_model(quad(k1), None)
    k_dis = kappa_dissipativity(0.0, clip.value)
    m = GridMeasure.from_potential(quad(k1), halfwidth=8.0, n=2001)
    gap = spectral_gap(m).gap
    assert be.kappa == pytest.approx(k1)
    assert k_dis == pytest.approx(k1, abs=1e-7)
    assert gap == pytest.approx(k1, rel=0.02)


def test_kappa_dissipativity_monotonicity():
    vals_h = [kappa_dissipativity(h, 2.0) for h in (0.0, 0.1, 0.2)]
    assert vals_h[0] < vals_h[1] < vals_h[2]
    vals_c = [kappa_dissipativity(0.1, c) for c in (1.0, 2.0, 4.0)]
    assert vals_c[0] > vals_c[1] > vals_c[2]
