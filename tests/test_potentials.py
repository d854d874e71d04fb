import math
import re

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
)

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
DW = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
BUMP = PotentialSpec("gaussian_bump", {"amplitude": 1.0, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction")
COS = PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.3}, dim=1, role="interaction")
# the interactions of the certify models in perfbench/run.py
SMALL_BUMP = PotentialSpec("gaussian_bump", {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, dim=1,
                           role="interaction")
REPULSIVE_BUMP = PotentialSpec("gaussian_bump", {"amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, dim=1,
                               role="interaction")
SMALL_COS = PotentialSpec("cosine", {"amplitude": 0.05, "frequency": 1.0}, dim=1, role="interaction")

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


# psi in r, each family's closed form written out independently of the table
PSI_IN_R = {
    "quadratic": lambda p, r: np.full_like(r, p["coef"]),
    "quartic_double_well": lambda p, r: 4 * p["quartic"] * r**2 - 2 * p["well"],
    "gaussian_bump": lambda p, r: (-(-1.0 if p["sign"] == "attractive" else 1.0) * p["amplitude"]
                                   / p["width"] ** 2 * np.exp(-(r**2) / (2 * p["width"] ** 2))),
    "cosine": lambda p, r: -p["amplitude"] * p["frequency"] ** 2 * np.sinc(p["frequency"] * r / np.pi),
}


@pytest.mark.parametrize("spec", ALL_SPECS + [
    PotentialSpec("gaussian_bump", {"amplitude": 0.3, "width": 1.7, "sign": "attractive"}, dim=2, role="interaction"),
], ids=lambda s: f"{s.family}_d{s.dim}_{s.params.get('sign', '')}")
def test_psi_sq_and_psi_agree_bit_for_bit(spec):
    r = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 4001), np.linspace(0.0, 1e3, 4001)])
    s = r**2
    assert spec.psi(r).tobytes() == PSI_IN_R[spec.family](spec.params, r).tobytes()
    if spec.family == "cosine":  # a sinc in r: psi_sq goes through sqrt
        assert spec.psi_sq(s).tobytes() == spec.psi(np.sqrt(s)).tobytes()
    else:  # written in s: psi in r derives from it
        assert spec.psi(r).tobytes() == spec.psi_sq(s).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", potentials.FAMILIES)
def test_psi_sq_into_out_matches_a_fresh_array(family, d):
    # the pair force passes its r^2 slab as out; any other buffer works too
    params = next(s.params for s in ALL_SPECS if s.family == family)
    spec = PotentialSpec(family, params, dim=d, role="interaction")
    s = np.square(np.random.default_rng(d).standard_normal((7, 5, 5)) * 3.0)
    s[0] = 0.0
    want = spec.psi_sq(s)
    buf = np.full_like(s, np.nan)
    assert spec.psi_sq(s, out=buf) is buf and buf.tobytes() == want.tobytes()
    assert spec.psi_sq(s, out=s) is s and s.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.dim == 1] + [REPULSIVE_BUMP],
                         ids=lambda s: f"{s.family}_{s.params.get('sign', '')}")
def test_gradient_d1_skips_the_square_root_byte_for_byte(spec):
    # the d = 1 gradient takes psi_sq(x^2); the old path took psi(sqrt(x^2)).
    # Below |x| ~ 1.5e-154 x^2 is subnormal or 0, so sqrt(x^2) is not |x|
    rng = np.random.default_rng(13)
    tiny = 10.0 ** rng.uniform(-175, -150, 20000)
    x = np.concatenate([[0.0, -0.0, 1e-150, -1e-150, 1e6, -1e6, 1e-160, -1e-170, 5e-324],
                        tiny * rng.choice([-1.0, 1.0], tiny.size),
                        rng.standard_normal(20000) * 10.0 ** rng.uniform(-6, 6, 20000)])[:, None]
    old = spec.psi(np.sqrt((x**2).sum(axis=-1)))[..., None] * x
    assert spec.gradient(x).tobytes() == old.tobytes()
    # a single point, as the oracle's scalar checks pass it
    assert spec.gradient(-2.5).tobytes() == (spec.psi(np.sqrt(6.25)) * np.array([-2.5])).tobytes()


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
    # a number param takes a real, never a bool or a string; sign takes a string
    for params in ({"coef": True}, {"coef": "1.0"}):
        with pytest.raises(InvalidSpecError, match="param coef must be a number"):
            PotentialSpec("quadratic", params, dim=1)
    with pytest.raises(InvalidSpecError, match="out of range"):
        PotentialSpec("gaussian_bump", {"amplitude": 1.0, "width": 1.0, "sign": 1}, role="interaction")
    # dim is an integer >= 1, never truncated: 2.7 used to read as 2, true as 1
    for dim in (1.5, 2.0, 2.7, True, "2", 0):
        with pytest.raises(InvalidSpecError, match="^dim must be an integer >= 1, got "):
            PotentialSpec("quadratic", {"coef": 1.0}, dim=dim)
    assert PotentialSpec("quadratic", {"coef": 1.0}, dim=np.int64(2)).dim == 2


@pytest.mark.parametrize("family, params, name, value", [
    ("quadratic", {"coef": math.inf}, "coef", math.inf),
    ("quartic_double_well", {"quartic": math.inf, "well": 0.5}, "quartic", math.inf),
    ("gaussian_bump", {"amplitude": math.inf, "width": 1.0, "sign": "attractive"}, "amplitude", math.inf),
    ("cosine", {"amplitude": 1.0, "frequency": math.inf}, "frequency", math.inf),
    ("cosine", {"amplitude": math.inf, "frequency": 1.0}, "amplitude", math.inf),
    ("cosine", {"amplitude": math.nan, "frequency": 1.0}, "amplitude", math.nan),
    ("cosine", {"amplitude": -math.inf, "frequency": 1.0}, "amplitude", -math.inf),
])
def test_non_finite_params_rejected(family, params, name, value):
    # each was accepted, and an infinite W then failed with "no feasible
    # Lyapunov pair found", which blames U
    with pytest.raises(InvalidSpecError, match=f"^param {name}={value!r} out of range$"):
        PotentialSpec(family, params, role="interaction")


def test_huge_int_param_is_out_of_float_range():
    with pytest.raises(InvalidSpecError, match="are out of float range"):
        PotentialSpec("quadratic", {"coef": 10**400})


@pytest.mark.parametrize("params", [5, None, [("coef", 1.0)]], ids=repr)
def test_non_dict_params_rejected(params):
    # 5 and None raised a bare TypeError
    with pytest.raises(InvalidSpecError, match=f"^quadratic params must be a dict, got {re.escape(repr(params))}$"):
        PotentialSpec("quadratic", params)


def test_json_round_trip():
    w = PotentialSpec(**BUMP.to_json(), role="interaction")
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


# (family, params, hess_op_sup, grad_sup, is_zero) as the per-family closed
# forms gave them before hess_op_sup and is_zero came from hess_eig_bounds
BOUND_PINS = [
    ("quadratic", {"coef": 0}, 0, 0.0, True),
    ("quadratic", {"coef": 0.0}, 0.0, 0.0, True),
    ("quadratic", {"coef": 0.5}, 0.5, math.inf, False),
    ("quadratic", {"coef": 2.0}, 2.0, math.inf, False),
    ("quartic_double_well", {"quartic": 0.25, "well": 0.5}, math.inf, math.inf, False),
    ("quartic_double_well", {"quartic": 1.0, "well": 0.0}, math.inf, math.inf, False),
    ("gaussian_bump", {"amplitude": 0.0, "width": 0.5, "sign": "attractive"}, 0.0, 0.0, True),
    ("gaussian_bump", {"amplitude": 0.0, "width": 0.5, "sign": "repulsive"}, 0.0, 0.0, True),
    ("gaussian_bump", {"amplitude": 0.0, "width": 2.0, "sign": "attractive"}, 0.0, 0.0, True),
    ("gaussian_bump", {"amplitude": 0.0, "width": 2.0, "sign": "repulsive"}, 0.0, 0.0, True),
    ("gaussian_bump", {"amplitude": 0.02, "width": 0.5, "sign": "attractive"}, 0.08, 0.024261226388505336, False),
    ("gaussian_bump", {"amplitude": 0.02, "width": 0.5, "sign": "repulsive"}, 0.08, 0.024261226388505336, False),
    ("gaussian_bump", {"amplitude": 0.02, "width": 2.0, "sign": "attractive"}, 0.005, 0.006065306597126334, False),
    ("gaussian_bump", {"amplitude": 0.02, "width": 2.0, "sign": "repulsive"}, 0.005, 0.006065306597126334, False),
    ("gaussian_bump", {"amplitude": 1.1, "width": 0.5, "sign": "attractive"}, 4.4, 1.3343674513677937, False),
    ("gaussian_bump", {"amplitude": 1.1, "width": 0.5, "sign": "repulsive"}, 4.4, 1.3343674513677937, False),
    ("gaussian_bump", {"amplitude": 1.1, "width": 2.0, "sign": "attractive"}, 0.275, 0.3335918628419484, False),
    ("gaussian_bump", {"amplitude": 1.1, "width": 2.0, "sign": "repulsive"}, 0.275, 0.3335918628419484, False),
    ("cosine", {"amplitude": 0.0, "frequency": 1.0}, 0.0, 0.0, True),
    ("cosine", {"amplitude": 0.0, "frequency": -1.8}, 0.0, 0.0, True),
    ("cosine", {"amplitude": 0.05, "frequency": 1.0}, 0.05, 0.05, False),
    ("cosine", {"amplitude": 0.05, "frequency": -1.8}, 0.16200000000000003, 0.09000000000000001, False),
    ("cosine", {"amplitude": -0.7, "frequency": 1.0}, 0.7, 0.7, False),
    ("cosine", {"amplitude": -0.7, "frequency": -1.8}, 2.268, 1.26, False),
]


@pytest.mark.parametrize("family, params, hess, grad, zero", BOUND_PINS)
def test_bounds_pinned_for_each_family(family, params, hess, grad, zero):
    spec = PotentialSpec(family, params, role="interaction")
    assert repr(spec.hess_op_sup()) == repr(hess)  # the same bytes and type (coef: 0 stays an int)
    assert repr(spec.grad_sup()) == repr(grad)
    assert spec.is_zero() is zero
    assert spec.hess_op_sup() == max(abs(b) for b in spec.hess_eig_bounds())


LYAPUNOV_SPECS = (QUAD, DW, PotentialSpec("quartic_double_well", {"quartic": 0.1, "well": 1.0}, dim=2))


def check_lyapunov_condition(spec, bundle):
    """The Lyapunov condition |hess U|_op <= K1 |grad U| + K2 of ``bundle``'s
    pair, sampled on 1000 random points of [-30, 30]^d."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-30, 30, size=(1000, spec.dim))
    op = np.abs(np.linalg.eigvalsh(spec.hessian(x))).max(axis=-1)
    gn = np.sqrt((spec.gradient(x) ** 2).sum(axis=-1))
    assert np.all(op <= bundle.K1 * gn + bundle.K2 + 1e-9), f"Lyapunov condition fails for {spec.family}"


def test_lyapunov_condition_holds_on_random_points():
    for spec in LYAPUNOV_SPECS:
        bundle = extract_constants(spec, None)
        k2 = lyapunov_offsets(spec, [bundle.K1])[0]  # exact, then an outward margin
        assert bundle.K2 == (k2 if spec.linear else k2 * (1 + 1e-9) + 1e-12)
        assert bundle.provenance["K2"] == "analytic"
        check_lyapunov_condition(spec, bundle)


def test_lyapunov_offset_covers_far_stationary_point():
    # for tiny K1 the binding radius of the quartic sits near 2/K1; the
    # search box must still catch it
    k1 = 2.0**-6
    k2 = lyapunov_offsets(DW, [k1])[0]
    r = np.geomspace(1e-3, 1e4, 400001)
    brute = (np.abs(DW.d2profile(r)) - k1 * np.abs(DW.dprofile(r))).max()
    assert k2 >= brute - 1e-6 * max(1, abs(brute))


def _lyapunov_offset_scan(spec, k1):
    """sup_r |hess P|_op - k1 |grad P| on a dense radial grid reaching r = 1e8
    (the binding radius sits near 2/k1), plus the piece end where g' = 0."""
    a2, a4 = spec.poly()
    r = np.concatenate([[0.0, math.sqrt(max(-a2 / (2 * a4), 0.0)) if a4 else 0.0],
                        np.linspace(0.0, 10.0, 100001), np.geomspace(1e-6, 1e8, 400001)])
    h = np.abs(spec.d2profile(r))
    if spec.dim > 1:
        h = np.maximum(h, np.abs(spec.psi(r)))
    return float((h - k1 * np.abs(spec.dprofile(r))).max())


@pytest.mark.parametrize("spec", [
    QUAD, DW, ALL_SPECS[4], ALL_SPECS[5],
    pytest.param(PotentialSpec("quartic_double_well", {"quartic": 0.3, "well": 0.0}, dim=1),
                 id="quartic_double_well-d1-well0"),
], ids=lambda s: f"{s.family}-d{s.dim}")
def test_lyapunov_offsets_batch_matches_scalar_search(spec):
    # the closed-form candidate list against a dense scan, for every K1 that
    # extract_constants tries (K1 = 0 only where the Hessian is bounded)
    k1s = [0.0] + [2.0**e for e in range(-20, 11)]
    for k1, k2 in zip(k1s, lyapunov_offsets(spec, k1s)):
        if k1 == 0.0 and not spec.linear:
            assert k2 == math.inf  # the defect grows like r^2
            continue
        scan = max(_lyapunov_offset_scan(spec, k1), 0.0)
        assert scan <= k2 * (1 + 1e-12) + 1e-12
        assert k2 <= scan + 1e-6 * (1 + scan)


@pytest.mark.parametrize("spec", [BUMP, COS], ids=lambda s: s.family)
def test_lyapunov_offsets_reject_bounded_families(spec):
    with pytest.raises(InvalidSpecError):
        lyapunov_offsets(spec, [1.0])


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
        # and the closed form is consistent with a brute pair scan
        t = np.linspace(-12, 12, 40001)
        brute = (-(w.psi(np.abs(t + r)) * (t + r) - w.psi(np.abs(t)) * t)).max()
        assert b0 == pytest.approx(-r + brute, rel=1e-6, abs=1e-9)


def test_b0_polynomial_section_closed_form():
    sympy = pytest.importorskip("sympy")
    y, r, a2, a4 = sympy.symbols("y r a2 a4", real=True)
    dg = lambda x: 2 * a2 * x + 4 * a4 * x**3  # g'(x) of g = a2 x^2 + a4 x^4, odd in d = 1
    objective = -(dg(y + r) - dg(y))  # the d = 1 section objective, x = y + r
    assert sympy.solve(sympy.diff(objective, y), y) == [-r / 2]
    assert sympy.simplify(sympy.diff(objective, y, 2) + 24 * a4 * r) == 0  # a maximum for a4 r > 0
    closed = -(2 * a2 * r + a4 * r**3)
    assert sympy.simplify(objective.subs(y, -r / 2) - closed) == 0
    rs = np.array([1e-3, 0.5, 1.0, 2.0, 7.5])
    for spec in (QUAD, DW, ALL_SPECS[5]):  # the closed form holds in every d
        A2, A4 = spec.poly()
        want = sympy.lambdify(r, closed.subs({a2: A2, a4: A4}))(rs)
        assert model_b0(spec, None)(rs) == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_polynomial_specs_never_reach_section_search(monkeypatch):
    # the bounded path, the family's section_sup, in every d
    seen = []
    section_sup = PotentialSpec.section_sup

    def recording(spec, r):
        seen.append(spec)
        return section_sup(spec, r)

    monkeypatch.setattr(PotentialSpec, "section_sup", recording)
    for U in (QUAD, DW, ALL_SPECS[5]):
        W = PotentialSpec(SMALL_BUMP.family, SMALL_BUMP.params, dim=U.dim, role="interaction")
        lipschitz_from_model(U, W)
        extract_constants(U, W)
        convexity_at_infinity_fit(U, W)
    assert seen and all(s.bounded for s in seen) and {s.dim for s in seen} == {1, 2}


def test_bump_section_factorizes_off_the_line():
    # y = alpha e + beta n, x = y + r e: the section objective is the d = 1 one
    # times exp(-beta^2 / 2 w^2), so beta = 0 attains its supremum in every d
    sympy = pytest.importorskip("sympy")
    al, be, r, t, x1, x2, amp = sympy.symbols("alpha beta r t x1 x2 amp", real=True)
    w = sympy.symbols("w", positive=True)
    P = amp * sympy.exp(-(x1**2 + x2**2) / (2 * w**2))  # amp < 0 for an attractive bump
    dP = sympy.diff(P, x1)  # <e, grad P> with e the first axis
    G = sympy.diff(amp * sympy.exp(-t**2 / (2 * w**2)), t)  # the d = 1 P'
    objective = -(dP.subs({x1: al + r, x2: be}) - dP.subs({x1: al, x2: be}))
    line = G.subs(t, al) - G.subs(t, al + r)
    assert sympy.simplify(objective - sympy.exp(-be**2 / (2 * w**2)) * line) == 0


@pytest.mark.parametrize("spec", [BUMP, SMALL_BUMP, REPULSIVE_BUMP, PotentialSpec(
    "gaussian_bump", {"amplitude": 2.0, "width": 0.7, "sign": "repulsive"}, dim=1, role="interaction")],
    ids=["bump", "small_bump", "repulsive_bump", "narrow_repulsive_bump"])
def test_bump_section_sup_is_the_d1_form_in_every_dim(spec):
    rs = np.concatenate([[1e-9], np.linspace(0.01, 40.0, 499)])
    want = spec.section_sup(rs).tobytes()
    for dim in (2, 3):
        assert PotentialSpec(spec.family, spec.params, dim=dim, role="interaction").section_sup(rs).tobytes() == want


def _plane_scan(spec, r):
    """The section objective -<e, grad P(x) - grad P(y)> on a grid of the plane
    y = alpha e + beta n, x = y + r e: alpha in -r/2 +- span, beta in [0, span],
    span = max(8 char_length, 2 r); its largest value."""
    span = max(8.0 * spec.char_length(), 2.0 * r)
    A, B = np.meshgrid(np.linspace(-r / 2 - span, -r / 2 + span, 1601), np.linspace(0.0, span, 401), indexing="ij")
    return float((-(spec.psi(np.hypot(A + r, B)) * (A + r) - spec.psi(np.hypot(A, B)) * A)).max())


@pytest.mark.parametrize("amp, freq", [(0.7, 1.3), (-0.7, 2.3), (1.1, -0.8), (0.05, 1.0)])
def test_cosine_section_sup_above_line_and_plane_in_higher_dims(amp, freq):
    # d >= 2 takes the envelope min(max(-lambda_min, 0) r, 2 K') from the
    # table's bounds: never below the d = 1 form (in float too) or a plane scan
    line = PotentialSpec("cosine", {"amplitude": amp, "frequency": freq}, dim=1, role="interaction")
    rs = np.concatenate([np.geomspace(1e-300, 1.0, 2001), np.linspace(1.0, 100.0, 9901)])
    for dim in (2, 3):
        spec = PotentialSpec(line.family, line.params, dim=dim, role="interaction")
        env = np.minimum(max(-spec.hess_eig_bounds()[0], 0.0) * rs, 2 * spec.grad_sup())
        got = spec.section_sup(rs)
        assert got == pytest.approx(env, rel=1e-15, abs=0.0)
        assert np.all(got >= line.section_sup(rs))
    for r in (0.5, 2.0, 5.0, 9.0):  # the plane holds every pair in any d >= 2
        scan = _plane_scan(spec, r)
        assert scan <= spec.section_sup(np.array([r]))[0]
        if (amp, freq, r) == (0.7, 1.3, 5.0):  # off the line the supremum is higher
            assert scan > line.section_sup(np.array([r]))[0] + 0.8


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

def check_clip_closed_form(a):
    """c_lip of the linear drift -a s against its closed form
    (1/4) Int exp(-a s^2/8) s ds = 1/a."""
    res = potentials.lipschitz_constant(lambda s: -a * np.asarray(s))
    assert res.converged and math.isfinite(res.value)
    assert res.value == pytest.approx(1.0 / a, abs=1e-8), f"c_lip {res.value!r} is not the closed form 1/{a}"


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_clip_linear_drift_closed_form(a):
    check_clip_closed_form(a)


def test_clip_positive_drift_diverges():
    res = lipschitz_constant(lambda s: np.ones_like(np.asarray(s, dtype=float)))
    assert math.isinf(res.value)


def test_clip_from_model_quadratic():
    res = lipschitz_from_model(QUAD, None)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    w = PotentialSpec("quadratic", {"coef": 0.5}, dim=1, role="interaction")
    res2 = lipschitz_from_model(QUAD, w)
    assert res2.value == pytest.approx(1.0 / 1.5, abs=1e-8)


def test_model_b0_vectorized_matches_pointwise():
    b0 = model_b0(DW, BUMP)
    a2, a4 = DW.poly()
    # r = 0 is clamped to 1e-9
    rs = np.array([0.0, 0.5, 1.0, 2.0, 6.0, 11.0])
    vec = b0(rs)
    for i, r in enumerate(rs):
        rr = np.array([max(float(r), 1e-9)])
        assert vec[i] == b0(r)[0]
        assert vec[i] == (-(2 * a2 * rr + a4 * rr**3) + BUMP.section_sup(rr))[0]


def _section_line(spec, alpha, r):
    """The d = 1 section objective G(alpha) - G(alpha + r), G = P', through psi
    as the search that the closed forms replaced evaluated it."""
    x = alpha + r
    return -(spec.psi(np.abs(x)) * x - spec.psi(np.abs(alpha)) * alpha)


def _section_line_rounding(spec, alpha, r):
    """A bound on the rounding error of ``_section_line``: G(y) carries the
    rounding of its argument, |y G'(y)| u, and of its own value, |G(y)| u,
    with u = 2^-53; the factor 4 covers the few roundings of each term."""
    def term(y):
        return np.abs(spec.dprofile(np.abs(y))) + np.abs(y * spec.d2profile(np.abs(y)))

    return 4 * 2.0**-53 * (term(alpha) + term(alpha + r))


@pytest.mark.parametrize(
    "spec",
    [DW,
     PotentialSpec("gaussian_bump", {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction"),
     PotentialSpec("gaussian_bump", {"amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, dim=1, role="interaction"),
     PotentialSpec("cosine", {"amplitude": 0.05, "frequency": 1.0}, dim=1, role="interaction")],
    ids=["double_well", "attractive_bump", "repulsive_bump", "cosine"],
)
def test_b0_widened_box_never_wins(spec):
    # the closed forms are suprema over the whole line: at the first-pass c_lip
    # nodes of the certify models a grid over 1.5x the old search box
    # -r/2 +- max(8 char_length, 2r) must not beat them
    rs = np.linspace(0.0, 16.0, 4097)
    part = model_b0(spec, None)(rs)
    rr = np.maximum(rs, 1e-9)
    span = 1.5 * np.maximum(8.0 * spec.char_length(), 2.0 * rr)
    for blk in np.array_split(np.arange(rs.size), 16):
        alpha = np.linspace(-rr[blk] / 2 - span[blk], -rr[blk] / 2 + span[blk], 801, axis=1)
        wide = _section_line(spec, alpha, rr[blk, None]).max(axis=1)
        assert np.all(wide <= part[blk] + 1e-9 * (1 + np.abs(part[blk])))


def _section_sup_scalar(spec, r, span, n=1601):
    """The d = 1 section search the closed forms replaced, as a scalar: grid
    maximum plus one bounded-Brent polish of its cell."""
    alpha = np.linspace(-r / 2 - span, -r / 2 + span, n)
    vals = _section_line(spec, alpha, r)
    i = int(np.argmax(vals))
    res = optimize.minimize_scalar(lambda a: -float(_section_line(spec, a, r)),
                                   bounds=(alpha[max(i - 1, 0)], alpha[min(i + 1, n - 1)]), method="bounded")
    return max(float(vals.max()), float(-res.fun))


@pytest.mark.parametrize("spec", [DW, SMALL_BUMP, SMALL_COS, REPULSIVE_BUMP],
                         ids=["double_well", "bump", "cosine", "repulsive_bump"])
def test_section_sup_batch_matches_scalar_search(spec):
    # the d = 1 closed forms against the search they replaced; every row is
    # its own problem, so the batch equals the rows one by one
    rs = np.linspace(0.01, 12.0, 150)
    got = model_b0(spec, None)(rs)
    assert got.tolist() == [model_b0(spec, None)(r)[0] for r in rs]
    old = np.array([_section_sup_scalar(spec, r, max(8.0 * spec.char_length(), 2.0 * r), n=801) for r in rs])
    assert np.all(np.abs(got - old) <= 1e-12 * (1 + np.abs(old)))


@pytest.mark.parametrize("spec", [BUMP, COS, REPULSIVE_BUMP], ids=["bump", "cosine", "repulsive_bump"])
def test_section_polish_not_below_brute_scan(spec):
    # a fine float scan of the section line never beats the closed form by
    # more than the objective's own rounding error (the sinc of the cosine
    # overshoots the exact value by up to 4.8e-15 at r = 0.01), and it comes
    # within the scan's step of it
    for r in (0.01, 1.0, 3.0, 6.0, 12.0):
        span = max(8.0 * spec.char_length(), 2.0 * r)
        got = spec.section_sup(np.array([r]))[0]
        alpha = np.linspace(-r / 2 - span, -r / 2 + span, 2_000_001)
        vals = _section_line(spec, alpha, r)
        assert np.all(vals <= got + _section_line_rounding(spec, alpha, r))
        assert got - vals.max() <= 1e-9
        old = _section_sup_scalar(spec, r, span, n=801)
        assert got >= old - 1e-12 * (1 + abs(old))


# sympy and mpmath references for the d = 1 section suprema of the bounded
# families; rho = r / width for the bump
RHOS = [1e-9, 1e-3, 0.3, math.sqrt(3) - 1, 1.0, 2.0, 3.0, 2 * math.sqrt(3) - 1e-9, 2 * math.sqrt(3) + 1e-9,
        2 * math.sqrt(3) + 1e-3, 4.0, 5.0, 8.0, 40.0, 1e3]
UNIT_BUMPS = {sign: PotentialSpec("gaussian_bump", {"amplitude": 1.0, "width": 1.0, "sign": sign}, dim=1,
                                  role="interaction") for sign in ("attractive", "repulsive")}


def test_cosine_section_sup_closed_form():
    sympy = pytest.importorskip("sympy")
    y, al, r, A, f = sympy.symbols("y alpha r A f", real=True)
    G = sympy.diff(A * sympy.cos(f * y), y)  # W = A cos(f y) is even, so W' is G on the whole line
    objective = G.subs(y, al) - G.subs(y, al + r)
    form = 2 * A * f * sympy.cos(f * al + f * r / 2) * sympy.sin(f * r / 2)
    assert sympy.simplify(sympy.expand_trig(objective - form)) == 0
    # the cosine factor reaches +-1 within any period of alpha, so the sup is
    # |2 A f sin(f r / 2)|, whatever the signs of A and f
    rs = np.concatenate([[1e-9], np.linspace(0.01, 40.0, 997)])
    for amp, freq in ((0.05, 1.0), (0.7, 1.3), (-0.7, 2.3), (1.1, -0.8)):
        spec = PotentialSpec("cosine", {"amplitude": amp, "frequency": freq}, dim=1, role="interaction")
        want = sympy.lambdify(r, sympy.Abs(2 * A * f * sympy.sin(f * r / 2)).subs({A: amp, f: freq}))(rs)
        assert spec.section_sup(rs) == pytest.approx(want, rel=4e-16, abs=1e-300)


def _mp_section_sup(sign, rho):
    """sup of h(u) - h(u + rho) (attractive) or h(s) + h(rho - s) (repulsive),
    h(t) = t exp(-t^2/2), at 50 digits: a scan of [max(-rho/2, -6), 6] (the
    mirror and the tails of h cover the rest of the line) with each local
    maximum polished by a root of the derivative, and for the repulsive bump
    the centre s = rho/2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        rho = mp.mpf(rho)
        h = lambda t: t * mp.exp(-t * t / 2)
        q = lambda t: (1 - t * t) * mp.exp(-t * t / 2)
        if sign == "attractive":
            f, df = (lambda u: h(u) - h(u + rho)), (lambda u: q(u) - q(u + rho))
            best = mp.mpf(0)
        else:
            f, df = (lambda s: h(s) + h(rho - s)), (lambda s: q(s) - q(rho - s))
            best = 2 * h(rho / 2)
        lo, hi = max(-rho / 2, mp.mpf(-6)), mp.mpf(6)
        xs = [lo + (hi - lo) * k / 2400 for k in range(2401)]
        vals = [f(x) for x in xs]
        for k in range(1, 2400):
            best = max(best, vals[k])
            if vals[k] >= vals[k - 1] and vals[k] >= vals[k + 1]:
                best = max(best, f(mp.findroot(df, (xs[k - 1], xs[k + 1]), solver="anderson")))
        return best


@pytest.mark.parametrize("sign", ["attractive", "repulsive"])
def test_bump_section_sup_matches_mpmath(sign):
    got = UNIT_BUMPS[sign].section_sup(np.array(RHOS))
    for rho, value in zip(RHOS, got):
        assert abs(value - float(_mp_section_sup(sign, rho))) <= 4 * 2.0**-52, rho


@pytest.mark.parametrize("sign", ["attractive", "repulsive"])
def test_bump_section_roots_converge_in_valid_brackets(sign, monkeypatch):
    mp = pytest.importorskip("mpmath")
    calls = []
    bisect = potentials._bisect

    def recording(f, lo, hi, args=()):
        res = bisect(f, lo, hi, args)
        calls.append((f, lo, hi, args, res))
        return res

    monkeypatch.setattr(potentials, "_bisect", recording)
    rhos = np.array(RHOS)
    UNIT_BUMPS[sign].section_sup(rhos)
    assert len(calls) == 1  # every radius in one call
    f, lo, hi, args, (lo_end, hi_end) = calls[0]
    assert np.all((lo <= lo_end) & (lo_end <= hi_end) & (hi_end <= hi))
    assert np.all(hi_end - lo_end <= np.spacing(lo_end))  # the halvings end on adjacent floats
    # the ends straddle the root: in float (+inf at 1, where q vanishes) and exactly
    f_lo, f_hi = f(lo, *args), f(hi, *args)
    assert np.all((f_lo >= 0) & (f_hi <= 0) & (f_lo > f_hi))
    assert np.all((f(lo_end, *args) >= 0) & (f(hi_end, *args) <= 0))
    with mp.workdps(50):
        q = lambda t: (1 - t * t) * mp.exp(-t * t / 2)
        for a, b, rho in zip(lo, hi, args[0]):
            a, b, rho = mp.mpf(a), mp.mpf(b), mp.mpf(rho)
            if sign == "attractive":
                assert q(a) - q(a + rho) > 0 > q(b) - q(b + rho)
            else:
                assert q(a) - q(rho - a) > 0 > q(b) - q(rho - b)
    if sign == "repulsive":  # only rho > 2 sqrt 3 has off-centre critical points
        assert args[0].tolist() == [rho for rho in RHOS if rho > 2 * math.sqrt(3)]


@pytest.mark.parametrize("n, s_max", [(4097, 16.0), (8193, 32.0), (16385, 64.0)])
def test_cumulative_simpson_matches_scipy_bit_for_bit(n, s_max):
    from scipy.integrate import cumulative_simpson

    s, h = np.linspace(0.0, s_max, n, retstep=True)
    for y in (np.exp(-s), s * np.cos(3 * s), 1 / (1 + s * s), model_b0(DW, SMALL_BUMP)(s), model_b0(QUAD, None)(s)):
        assert potentials._cumulative_simpson(y, h).tobytes() == cumulative_simpson(y, x=s, initial=0.0).tobytes()


@pytest.mark.parametrize("sign", ["attractive", "repulsive"])
def test_bump_section_sup_depends_on_amplitude_over_width_and_r_over_width(sign):
    rs = np.concatenate([[1e-9], np.linspace(0.01, 40.0, 499)])
    unit = UNIT_BUMPS[sign]
    for a, w in ((0.02, 1.0), (0.3, 0.4), (2.0, 1.7), (5.0, 1e-3), (1e-3, 30.0)):
        spec = PotentialSpec("gaussian_bump", {"amplitude": a, "width": w, "sign": sign}, dim=1, role="interaction")
        assert spec.section_sup(rs).tobytes() == (a / w * unit.section_sup(rs / w)).tobytes()


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


def test_clip_readme_model_is_the_same_in_every_dim():
    # the README model: double well plus an attractive bump, both exact in
    # every d, so c_lip in d = 2 and 3 is the d = 1 value byte for byte
    want = lipschitz_from_model(DW, SMALL_BUMP)
    for dim in (2, 3):
        U = PotentialSpec(DW.family, DW.params, dim=dim)
        W = PotentialSpec(SMALL_BUMP.family, SMALL_BUMP.params, dim=dim, role="interaction")
        assert lipschitz_from_model(U, W) == want


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


@pytest.mark.xfail(strict=True, reason=(
    "the 400-node modulus grid (step 0.03) misses r = R/sqrt(3) = 1.524, where c needs 2 q R^3 / (3 sqrt 3); "
    "the exact c raises kappa's input and lowers every certified lambda, so it waits for the re-pin of "
    "perfbench/reference.json"))
def test_convexity_triple_holds_at_worst_pair():
    # README model: for g = q r^4 - w r^2, <grad U(x) - grad U(y), x - y> at
    # separation r is smallest for y = -x, and (c_u - m(r)) r peaks at R/sqrt(3)
    fit = convexity_at_infinity_fit(DW, SMALL_BUMP)
    r = fit.radius / math.sqrt(3)
    x, y = np.array([r / 2]), np.array([-r / 2])
    lhs = float(((DW.gradient(x) - DW.gradient(y)) * (x - y)).sum())
    assert lhs >= fit.c_u * r**2 - fit.c * r


def test_convexity_rejects_bounded_families():
    with pytest.raises(InvalidSpecError):
        convexity_at_infinity_fit(BUMP, None)


def test_constants_cosine_interaction_all_finite():
    w = PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.3}, dim=1, role="interaction")
    bundle = extract_constants(QUAD, w)
    assert bundle.K == pytest.approx(0.7 * 1.3**2)
    assert bundle.K_prime == pytest.approx(0.7 * 1.3)
    assert math.isfinite(bundle.K_prime)
