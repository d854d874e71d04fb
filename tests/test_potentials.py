import math

import numpy as np
import pytest
from scipy import optimize

from langcert import potentials
from langcert.errors import InvalidSpecError
from langcert.potentials import (
    ConstantsBundle,
    PotentialSpec,
    convexity_at_infinity_fit,
    extract_constants,
    lipschitz_constant,
    lipschitz_from_model,
    lyapunov_offsets,
    model_b0,
    section_sup_batch,
    _fminbound,
    _radial_grid,
    hess_op_radial,
)

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
DW = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
BUMP = PotentialSpec("gaussian_bump", {"amplitude": 1.0, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction")
COS = PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.3}, dim=1, role="interaction")

ALL_SPECS = [
    QUAD,
    DW,
    BUMP,
    COS,
    PotentialSpec("quadratic", {"coef": 2.5}, dim=3),
    PotentialSpec("quartic_double_well", {"quartic": 0.1, "well": 1.0}, dim=2),
    PotentialSpec("gaussian_bump", {"amplitude": 2.0, "width": 0.7, "sign": "repulsive"}, dim=3, role="interaction"),
    PotentialSpec("cosine", {"amplitude": 1.1, "frequency": 0.8}, dim=2, role="interaction"),
]


def fd_gradient(spec, x, h):
    g = np.empty_like(x)
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = h[a]
        g[a] = (spec.value(x + e) - spec.value(x - e)) / (2 * h[a])
    return g


def fd_hessian(spec, x, h):
    H = np.empty((x.size, x.size))
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = h[a]
        H[:, a] = (spec.gradient(x + e) - spec.gradient(x - e)) / (2 * h[a])
    return H


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_all_specs_cover_every_family():
    # a new family table entry must join the FD and bound tests below
    assert {s.family for s in ALL_SPECS} == set(potentials.FAMILIES)


def test_eval_quadratic_at_origin():
    x = np.zeros(1)
    assert QUAD.value(x) == 0.0
    assert np.all(QUAD.gradient(x) == 0.0)
    assert np.allclose(QUAD.hessian(x), np.eye(1))


def test_eval_quadratic_identity_hessian_3d():
    spec = PotentialSpec("quadratic", {"coef": 1.0}, dim=3)
    assert np.allclose(spec.hessian(np.array([0.3, -1.2, 0.5])), np.eye(3), atol=1e-14)


def test_eval_attractive_bump_origin():
    # W(x) = -exp(-x^2/2): value -1, gradient 0, second derivative +1
    x = np.zeros(1)
    assert BUMP.value(x) == pytest.approx(-1.0, abs=1e-15)
    assert BUMP.gradient(x) == pytest.approx(0.0, abs=1e-15)
    assert BUMP.hessian(x)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_eval_double_well_minimum():
    # U = x^4/4 - x^2/2 at x = 1: (-1/4, 0, 2)
    x = np.ones(1)
    assert DW.value(x) == pytest.approx(-0.25, abs=1e-15)
    assert DW.gradient(x)[0] == pytest.approx(0.0, abs=1e-14)
    assert DW.hessian(x)[0, 0] == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}_d{s.dim}")
def test_fd_gradient_hessian_match(spec):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4, 4, size=(1000, spec.dim)) * spec.char_length()
    worst = 0.0
    for x in pts:
        h = 1e-5 * (1 + np.abs(x))
        ref_g, ref_h = spec.gradient(x), spec.hessian(x)
        scale_g = max(1.0, np.abs(ref_g).max())
        scale_h = max(1.0, np.abs(ref_h).max())
        worst = max(worst, np.abs(fd_gradient(spec, x, h) - ref_g).max() / scale_g)
        worst = max(worst, np.abs(fd_hessian(spec, x, h) - ref_h).max() / scale_h)
    assert worst < 1e-6


@pytest.mark.parametrize("spec", [BUMP, COS,
                                  PotentialSpec("quadratic", {"coef": 0.4}, dim=2, role="interaction")],
                         ids=lambda s: s.family)
def test_interaction_evenness(spec):
    rng = np.random.default_rng(11)
    x = rng.uniform(-5, 5, size=(200, spec.dim))
    assert np.abs(spec.value(x) - spec.value(-x)).max() < 1e-12


def test_hessian_symmetric():
    rng = np.random.default_rng(3)
    for spec in ALL_SPECS:
        x = rng.uniform(-3, 3, size=(50, spec.dim))
        H = spec.hessian(x)
        assert np.abs(H - np.swapaxes(H, -1, -2)).max() == 0.0


def test_confinement_integrable_tail():
    # quadrature tail of exp(-U) beyond the box is < 1e-10 of the total
    for spec in (QUAD, DW):
        x = np.linspace(0, 60, 60001)
        w = np.exp(-spec.profile(x))
        total = np.trapezoid(w, x)
        tail = np.trapezoid(w[x >= 12.0], x[x >= 12.0])
        assert tail < 1e-10 * total


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpecError):
        PotentialSpec("quadratic", {"coef": -1.0}, dim=1)
    with pytest.raises(InvalidSpecError):
        PotentialSpec("gaussian_bump", {"amplitude": 1.0, "width": 1.0, "sign": "attractive"}, dim=1)
    with pytest.raises(InvalidSpecError):
        PotentialSpec("quadratic", {"coef": 1.0, "bogus": 2}, dim=1)
    with pytest.raises(InvalidSpecError):
        PotentialSpec("quadratic", {"coef": 1.0}, dim=0)


def test_json_round_trip():
    w = PotentialSpec.from_json(BUMP.to_json(), role="interaction")
    assert w == BUMP


# ---------------------------------------------------------------------------
# extract_constants
# ---------------------------------------------------------------------------

def test_constants_gaussian_bump():
    bundle = extract_constants(QUAD, BUMP)
    # 1D maximization oracle for K and K': sup |(1-r^2)| e^{-r^2/2} = 1 at 0,
    # sup r e^{-r^2/2} = e^{-1/2} at r = 1
    r = np.linspace(0, 10, 200001)
    k_grid = np.abs((1 - r**2) * np.exp(-(r**2) / 2)).max()
    kp_grid = (r * np.exp(-(r**2) / 2)).max()
    assert bundle.K == pytest.approx(k_grid, abs=1e-9)
    assert bundle.K_prime == pytest.approx(kp_grid, abs=1e-9)
    assert bundle.K == pytest.approx(1.0)
    assert bundle.K_prime == pytest.approx(math.exp(-0.5))


def test_constants_quadratic_interaction_unbounded_gradient():
    w = PotentialSpec("quadratic", {"coef": 0.7}, dim=1, role="interaction")
    bundle = extract_constants(QUAD, w)
    assert bundle.K == pytest.approx(0.7)
    assert math.isinf(bundle.K_prime)


def test_constants_quadratic_confinement_pair():
    bundle = extract_constants(PotentialSpec("quadratic", {"coef": 1.7}, dim=1), None)
    assert bundle.K1 == 0.0
    assert bundle.K2 == pytest.approx(1.7)


@pytest.mark.parametrize("spec", [BUMP, COS,
                                  PotentialSpec("gaussian_bump", {"amplitude": 2.0, "width": 0.7, "sign": "repulsive"}, dim=2, role="interaction")],
                         ids=lambda s: f"{s.family}{s.dim}")
def test_hessian_and_gradient_bounds_hold(spec):
    rng = np.random.default_rng(5)
    K, Kp = spec.hess_op_sup(), spec.grad_sup()
    x = rng.uniform(-8, 8, size=(1000, spec.dim)) * spec.char_length()
    op = np.abs(np.linalg.eigvalsh(spec.hessian(x))).max(axis=-1)
    assert np.all(op <= K + 1e-9)
    gn = np.sqrt((spec.gradient(x) ** 2).sum(axis=-1))
    assert np.all(gn <= Kp + 1e-9)


def test_lyapunov_condition_holds_on_random_points():
    for spec in (QUAD, DW, PotentialSpec("quartic_double_well", {"quartic": 0.1, "well": 1.0}, dim=2)):
        bundle = extract_constants(spec, None)
        rng = np.random.default_rng(17)
        x = rng.uniform(-30, 30, size=(1000, spec.dim))
        op = np.abs(np.linalg.eigvalsh(spec.hessian(x))).max(axis=-1)
        gn = np.sqrt((spec.gradient(x) ** 2).sum(axis=-1))
        assert np.all(op <= bundle.K1 * gn + bundle.K2 + 1e-9)


def test_lyapunov_offset_covers_far_stationary_point():
    # for tiny K1 the binding radius of the quartic sits near 2/K1; the
    # search box must still catch it
    k1 = 2.0**-6
    k2 = lyapunov_offsets(DW, [k1])[0]
    r = np.geomspace(1e-3, 1e4, 400001)
    brute = (np.abs(DW.d2profile(r)) - k1 * np.abs(DW.dprofile(r))).max()
    assert k2 >= brute - 1e-6 * max(1, abs(brute))


def _lyapunov_offset_scalar(spec, k1):
    """The per-K1 search that lyapunov_offsets replaced: grid maximum plus a
    scalar bounded-Brent polish of the cells around the three best nodes."""
    char = spec.char_length()
    r_box = max(50.0 * char, 8.0 / k1) if k1 > 0 else 50.0 * char
    grid = _radial_grid(r_box, 2001, r_lin=50.0 * char)

    def defect(r):
        r = np.asarray(r, dtype=float)
        return hess_op_radial(spec, r) - k1 * np.abs(spec.dprofile(r))

    vals = defect(grid)
    best = float(vals.max())
    for i in np.argsort(vals)[::-1][:3]:
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        if hi > lo:
            res = optimize.minimize_scalar(lambda r: -float(defect(r)), bounds=(lo, hi), method="bounded")
            best = max(best, float(-res.fun))
    return max(best, 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS[:6], ids=lambda s: f"{s.family}-d{s.dim}")
def test_lyapunov_offsets_batch_matches_scalar_search(spec):
    k1s = [0.0] + [2.0**e for e in range(-20, 11)]
    assert lyapunov_offsets(spec, k1s) == [_lyapunov_offset_scalar(spec, k1) for k1 in k1s]


def test_bundle_validation():
    with pytest.raises(InvalidSpecError):
        ConstantsBundle(K=-1.0, K_prime=0.0, K1=0.0, K2=0.0, d=1)
    with pytest.raises(InvalidSpecError):
        ConstantsBundle(K=0.0, K_prime=0.0, K1=0.0, K2=0.0, d=1, kappa=-2.0)


# ---------------------------------------------------------------------------
# dissipativity rate
# ---------------------------------------------------------------------------

def test_b0_quadratic_exact():
    rs = np.array([0.1, 1.0, 4.0])
    assert model_b0(QUAD, None)(rs) == pytest.approx(-rs, abs=1e-12)


def test_b0_mean_value_bound_with_bump():
    # U quadratic(k1), |hess W| <= K  =>  b0(r) <= -(k1 - K) r
    w = PotentialSpec("gaussian_bump", {"amplitude": 0.3, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction")
    rs = np.array([0.25, 1.0, 3.0])
    for r, b0 in zip(rs, model_b0(QUAD, w)(rs)):
        assert b0 <= -(1.0 - 0.3) * r + 1e-9
        # and the section search is consistent with a brute pair scan
        t = np.linspace(-12, 12, 40001)
        brute = (-(w.psi(np.abs(t + r)) * (t + r) - w.psi(np.abs(t)) * t)).max()
        assert b0 == pytest.approx(-r + brute, rel=1e-6, abs=1e-9)


def test_b0_small_r_continuity():
    vals = model_b0(DW, BUMP)(np.array([1e-3, 1e-5]))
    assert abs(vals[0]) < 5e-3
    assert abs(vals[1]) < 5e-5


def test_b0_2d_section_matches_random_pair_scan():
    spec = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=2)
    r = 1.5
    b0 = model_b0(spec, None)(r)[0]
    rng = np.random.default_rng(23)
    y = rng.uniform(-6, 6, size=(200000, 2))
    e = rng.standard_normal((200000, 2))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    x = y + r * e
    vals = -((spec.gradient(x) - spec.gradient(y)) * e).sum(axis=1)
    assert b0 >= vals.max() - 1e-6
    assert b0 <= vals.max() + 0.05  # section optimum is attainable


# ---------------------------------------------------------------------------
# lipschitz constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_clip_linear_drift_closed_form(a):
    # (1/4) Int exp(-a s^2/8) s ds = 1/a
    res = lipschitz_constant(lambda s: -a * np.asarray(s))
    assert res.converged and res.finite
    assert res.value == pytest.approx(1.0 / a, abs=1e-8)


def test_clip_positive_drift_diverges():
    res = lipschitz_constant(lambda s: np.ones_like(np.asarray(s, dtype=float)))
    assert math.isinf(res.value)


def test_clip_from_model_quadratic():
    res = lipschitz_from_model(QUAD, None)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    w = PotentialSpec("quadratic", {"coef": 0.5}, dim=1, role="interaction")
    res2 = lipschitz_from_model(QUAD, w)
    assert res2.value == pytest.approx(1.0 / 1.5, abs=1e-8)


def _section_sup_scalar(spec, r, span, n=1601):
    """The per-radius d = 1 section search that section_sup_batch replaced:
    grid maximum plus one scalar bounded-Brent polish of its cell."""
    alpha = np.linspace(-r / 2 - span, -r / 2 + span, n)

    def f(al):
        al = np.asarray(al, dtype=float)
        return -(spec.psi(np.abs(al + r)) * (al + r) - spec.psi(np.abs(al)) * al)

    vals = f(alpha)
    i = int(np.argmax(vals))
    res = optimize.minimize_scalar(lambda a: -float(f(a)), bounds=(alpha[max(i - 1, 0)], alpha[min(i + 1, n - 1)]),
                                   method="bounded")
    return max(float(vals.max()), float(-res.fun))


def test_model_b0_vectorized_matches_pointwise():
    b0 = model_b0(DW, BUMP)
    # r = 0 is clamped to 1e-9; beyond 4 char_length = 4 the span is 2r
    rs = np.array([0.0, 0.5, 1.0, 2.0, 6.0, 11.0])
    vec = b0(rs)
    for i, r in enumerate(rs):
        rr = max(float(r), 1e-9)
        assert vec[i] == b0(r)[0]
        assert vec[i] == sum(_section_sup_scalar(s, rr, max(8.0 * s.char_length(), 2.0 * rr)) for s in (DW, BUMP))


@pytest.mark.parametrize(
    "spec",
    [DW,
     PotentialSpec("gaussian_bump", {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction"),
     PotentialSpec("gaussian_bump", {"amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, dim=1, role="interaction"),
     PotentialSpec("cosine", {"amplitude": 0.05, "frequency": 1.0}, dim=1, role="interaction")],
    ids=["double_well", "attractive_bump", "repulsive_bump", "cosine"],
)
def test_b0_widened_box_never_wins(spec):
    # model_b0 searches -r/2 +- max(8 char_length, 2r) only; at the first-pass
    # c_lip nodes of the certify models a 1.5x wider box must not beat it
    rs = np.linspace(0.0, 16.0, 4097)
    part = model_b0(spec, None)(rs)
    rr = np.maximum(rs, 1e-9)
    wide = section_sup_batch(spec, rr, 1.5 * np.maximum(8.0 * spec.char_length(), 2.0 * rr), n=801)
    assert np.all(wide <= part + 1e-9 * (1 + np.abs(part)))


@pytest.mark.parametrize("spec", [DW, BUMP, COS], ids=["double_well", "bump", "cosine"])
def test_section_sup_batch_matches_scalar_search(spec):
    # 150 rows at n = 801 span two row blocks
    rs = np.linspace(0.01, 12.0, 150)
    spans = np.maximum(8.0 * spec.char_length(), 2.0 * rs)
    got = section_sup_batch(spec, rs, spans, n=801)
    assert got.tolist() == [_section_sup_scalar(spec, r, sp, n=801) for r, sp in zip(rs, spans)]


def test_fminbound_matches_scipy_bounded_bit_for_bit(monkeypatch):
    # each case has rows that stop at different iterations; the first row of
    # every case takes a parabolic step that lands within tol2 of a bound
    cases = [
        (np.cos, [0.0, 2.0, -1.0, 3.0], [6.0, 4.0, 1.0, 3.5]),
        (lambda x: (x - 0.3) ** 2, [0.0, 0.3, 1.0, -2.0], [1.0, 0.5, 2.0, 0.3]),
        (lambda x: np.exp(x) - 2 * x, [0.0, -1.0, 0.9, 2.0], [3.0, 0.5, 1.0, 5.0]),
        (lambda x: x**4 - x**2, [-2.0, 0.1, -0.01, 0.5], [2.0, 2.0, 0.01, 0.8]),
    ]
    for f, lo, hi in cases:
        x, fx = _fminbound(f, np.array(lo), np.array(hi))
        refs = [optimize.minimize_scalar(lambda t: float(f(np.asarray(t))), bounds=(a, b), method="bounded")
                for a, b in zip(lo, hi)]
        assert len({r.nfev for r in refs}) > 1
        assert list(zip(x.tolist(), fx.tolist())) == [(r.x, r.fun) for r in refs]
    # the evaluation cap stops a row where scipy's maxiter does
    monkeypatch.setattr(potentials, "_MAXFUN", 4)
    x, fx = _fminbound(np.cos, np.array([0.0]), np.array([6.0]))
    ref = optimize.minimize_scalar(lambda t: float(np.cos(np.asarray(t))), bounds=(0.0, 6.0), method="bounded",
                                   options={"maxiter": 4})
    assert ref.nfev == 4 and (x[0], fx[0]) == (ref.x, ref.fun)


@pytest.mark.parametrize(
    "U, W, c_lip",
    [
        (DW, PotentialSpec("gaussian_bump", {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, dim=1,
                           role="interaction"), 1.7384368093737297),
        (QUAD, PotentialSpec("gaussian_bump", {"amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, dim=1,
                             role="interaction"), 1.052736289047171),
        (DW, None, 1.730234433708212),
        (DW, PotentialSpec("cosine", {"amplitude": 0.05, "frequency": 1.0}, dim=1, role="interaction"),
         1.787962608773992),
    ],
    ids=["double_well_small_bump", "quadratic_repulsive_bump", "double_well", "double_well_cosine"],
)
def test_clip_pinned_for_nonlinear_models(U, W, c_lip):
    res = lipschitz_from_model(U, W)
    assert res.converged
    assert res.value == pytest.approx(c_lip, rel=1e-12)


# ---------------------------------------------------------------------------
# convexity at infinity
# ---------------------------------------------------------------------------

def test_convexity_quadratic_trivial():
    fit = convexity_at_infinity_fit(PotentialSpec("quadratic", {"coef": 2.0}, dim=1), None)
    assert (fit.c_u, fit.c, fit.radius) == (2.0, 0.0, 0.0)


def test_convexity_double_well_feasible_on_random_pairs():
    fit = convexity_at_infinity_fit(DW, None)
    assert fit is not None
    assert fit.c_u > 0
    rng = np.random.default_rng(41)
    x = rng.uniform(-20, 20, size=(10000, 1))
    y = rng.uniform(-20, 20, size=(10000, 1))
    diff = x - y
    sep = np.abs(diff)[:, 0]
    ok = sep > 1e-9
    lhs = ((DW.gradient(x) - DW.gradient(y)) * diff).sum(axis=1)[ok]
    rhs = fit.c_u * sep[ok] ** 2 - fit.c * sep[ok] * (sep[ok] <= fit.radius)
    assert np.all(lhs >= rhs - 1e-7 * (1 + np.abs(rhs)))
    # c_u bounded by the curvature infimum beyond the returned radius
    r_check = np.linspace(fit.radius, 40, 4001)
    assert fit.c_u <= DW.d2profile(r_check).min() + 1e-9


def test_convexity_rejects_bounded_families():
    with pytest.raises(InvalidSpecError):
        convexity_at_infinity_fit(BUMP, None)


def test_constants_cosine_interaction_all_finite():
    w = PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.3}, dim=1, role="interaction")
    bundle = extract_constants(QUAD, w)
    assert bundle.K == pytest.approx(0.7 * 1.3**2)
    assert bundle.K_prime == pytest.approx(0.7 * 1.3)
    assert math.isfinite(bundle.K_prime)
