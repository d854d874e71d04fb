import dataclasses
import itertools
import math

import numpy as np
import pytest

from langcert.certifier import (
    CASE1_ALPHA,
    CASE1_BETA,
    CASE1_GAMMA,
    PAPER_SET,
    REFINED_SET,
    assemble_constants,
    build_Tprime,
    certify,
    coercivity_holds,
    constants_bounded_grad,
    constants_lsi,
    default_coefficients,
    improved_coefficients,
    norm_equivalence,
    rate_lambda,
    scaled_coefficients,
    verify_coercivity,
)
from langcert import certifier, funcineq
from langcert.errors import InvalidSpecError, MissingConstantError
from langcert.potentials import ConstantsBundle, PotentialSpec

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
DW = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)


def small_bump(a=0.02):
    return PotentialSpec("gaussian_bump", {"amplitude": a, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction")


# ---------------------------------------------------------------------------
# boundedness constants
# ---------------------------------------------------------------------------

def test_constants_bounded_grad_formula():
    bc = constants_bounded_grad(K=0.0, K_prime=1.0, K1=1.0, K2=1.0, d=1)
    assert bc.C1 == pytest.approx(50.0)
    assert bc.C2 == pytest.approx(4.0 + 6.25 + 12.5)


def test_constants_bounded_grad_zero_slope():
    bc = constants_bounded_grad(K=0.3, K_prime=2.0, K1=0.0, K2=1.5, d=4)
    assert bc.C1 == 0.0
    assert bc.C2 == pytest.approx(4 * 1.5**2)


def test_constants_bounded_grad_dimension_scaling():
    c2_d1 = constants_bounded_grad(0.0, 1.0, 1.0, 0.0, d=1).C2
    c2_d2 = constants_bounded_grad(0.0, 1.0, 1.0, 0.0, d=2).C2
    # the d^2 term quadruples, the K' term stays
    assert c2_d2 - 25.0 / 2 == pytest.approx(4 * (c2_d1 - 25.0 / 2))


def test_constants_bounded_grad_rejects_infinite_kprime():
    with pytest.raises(MissingConstantError):
        constants_bounded_grad(K=1.0, K_prime=math.inf, K1=1.0, K2=1.0, d=1)


@pytest.mark.parametrize("mode", ["thm3", "thm4"])
@pytest.mark.parametrize("big", [{"K1": 1e100}, {"K2": 1e160}, {"K_prime": 1e154}, {"K": 1e154}],
                         ids=lambda big: next(iter(big)))
def test_overflowing_constants_raise_invalid_spec(mode, big):
    # K1**4 overflows in float ** (OverflowError); 25 K'^2 and 2 K^2 overflow in * (inf)
    bundle = ConstantsBundle(**{"K": 0.0, "K_prime": 0.0, "K1": 1.0, "K2": 1.0, "d": 1, **big},
                             kappa=1.0, C_LS=1.0)
    if mode == "thm4" and "K_prime" in big:
        assert certify(bundle, mode=mode).lam > 0  # K' does not enter thm4
        return
    name = next(iter(big)).replace("_prime", "'")
    with pytest.raises(InvalidSpecError, match=rf"^C1 or C2 is not finite: .*\b{name} = "):
        certify(bundle, mode=mode)


def test_route_checks_keep_certify_messages_and_order():
    # K' is checked before kappa, and C_LS before anything in thm4
    no_kp = ConstantsBundle(K=0.0, K_prime=math.inf, K1=1e100, K2=1.0, d=1)
    with pytest.raises(MissingConstantError, match="provide C_LS and use mode thm4") as exc:
        certify(no_kp, mode="thm3")
    assert exc.value.constant == "K_prime"
    with pytest.raises(MissingConstantError, match="supply one") as exc:
        certify(no_kp, mode="thm4")
    assert exc.value.constant == "C_LS"
    with pytest.raises(MissingConstantError) as exc:
        certify(ConstantsBundle(K=0.0, K_prime=0.0, K1=1.0, K2=1.0, d=1), mode="thm3")
    assert exc.value.constant == "kappa"


def test_constants_lsi_formula():
    bc = constants_lsi(K=1.0, K1=1.0, K2=0.0, C_LS=1.0, d=1)
    assert bc.C1 == pytest.approx(250.0)
    assert bc.C2 == pytest.approx(6.25 + 50 * math.log(2))


def test_constants_lsi_no_interaction_reduces():
    a = constants_lsi(K=0.0, K1=1.3, K2=0.7, C_LS=5.0, d=2)
    b = constants_bounded_grad(K=0.0, K_prime=0.0, K1=1.3, K2=0.7, d=2)
    assert a.C1 == pytest.approx(b.C1)
    assert a.C2 == pytest.approx(b.C2)


def test_m_and_split_identities():
    bc = constants_bounded_grad(K=0.4, K_prime=1.0, K1=0.5, K2=2.0, d=1)
    assert bc.M == max(2 * bc.C1, 2 * bc.C2 + 2 * 0.4**2)
    assert bc.M1 == 2 * bc.C1
    assert bc.M2 == 2 * bc.C2 + 2 * 0.4**2


# ---------------------------------------------------------------------------
# coefficients and matrices
# ---------------------------------------------------------------------------

def test_default_coefficients_at_one():
    c = default_coefficients(1.0)
    assert (c.a, c.b, c.c, c.lambda0) == (1 / 25, 1 / 200, 1 / 800, 1 / 440)


def test_default_coefficients_at_ten():
    # plain formula arithmetic: 1/(25*10), 1/(200*10^2), 1/(800*10^3), 1/(440*10^2)
    c = default_coefficients(10.0)
    assert c.a == pytest.approx(0.004)
    assert c.b == pytest.approx(5e-5)
    assert c.c == pytest.approx(1.25e-6)
    assert c.lambda0 == pytest.approx(1 / 44000)


def test_default_coefficients_clamped_below_one():
    assert default_coefficients(0.5) == default_coefficients(1.0)


def test_T_entry_value():
    c = default_coefficients(1.0)
    T = build_Tprime(c.a, c.b, c.c, 1.0, 1.0)
    assert T[0, 0] == pytest.approx(1 + 1 / 25 - 1 / 200)
    assert np.allclose(T, T.T)


def test_T_no_mixed_term_loses_coercivity():
    # b = c = 0: no dissipation in the position direction
    T = build_Tprime(1.0, 0.0, 0.0, 1.0, 1.0)
    assert verify_coercivity(T, 1e-3) < -1e-12
    assert not coercivity_holds(T, 1e-3)


def test_paper_default_choice_is_coercive():
    c = default_coefficients(1.0)
    T = build_Tprime(c.a, c.b, c.c, 1.0, 1.0)
    assert coercivity_holds(T, c.lambda0)


def test_Tprime_equals_T_when_M1_eq_M2():
    # at M1 = M2 = M, T' is the paper's single-constant matrix T, byte for byte
    c = default_coefficients(4.0)
    a, b, cc, s = c.a, c.b, c.c, math.sqrt(4.0)
    T = np.array([
        [1.0 + a - b * s, 0.0, -(a + b + cc * s) / 2.0, -b * s / 2.0],
        [0.0, a, 0.0, -b],
        [-(a + b + cc * s) / 2.0, 0.0, b, -cc * s / 2.0],
        [-b * s / 2.0, -b, -cc * s / 2.0, cc],
    ])
    assert build_Tprime(a, b, cc, 4.0, 4.0).tobytes() == T.tobytes()


def test_coercivity_rejects_nonsymmetric():
    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(InvalidSpecError):
        verify_coercivity(bad, 0.0)
    with pytest.raises(InvalidSpecError):
        coercivity_holds(bad, 0.0)


def test_coercivity_rejects_a_nearly_symmetric_matrix():
    # within np.allclose's 1e-5 relative tolerance of its transpose, so it
    # used to pass the check, and the LDL^T read T[2, 0] = 1 - 4e-6 + 1.5e-11
    # and certified it; its symmetric part has the (0, 2) minor -1.5e-11
    T = np.eye(4)
    T[0, 2], T[2, 0] = 1 + 4e-6, 1 - 4e-6 + 1.5e-11
    S = (T + T.T) / 2
    assert S[0, 0] * S[2, 2] - S[0, 2] ** 2 < -1e-11
    for check in (coercivity_holds, verify_coercivity):
        with pytest.raises(InvalidSpecError, match="exactly symmetric 4x4"):
            check(T, 0.0)


def test_zero_matrix_witness():
    assert verify_coercivity(np.zeros((4, 4)), 0.0) == 0.0
    assert coercivity_holds(np.zeros((4, 4)), 0.0)


def test_exact_decision_zero_pivots_and_margin():
    # PSD is not PD: a zero pivot passes with a zero row and fails otherwise,
    # however small the row; the float witness cannot tell the two apart
    assert coercivity_holds(np.diag([1.0, 0.0, 2.0, 0.0]), 0.0)
    T = np.zeros((4, 4))
    T[1, 3] = T[3, 1] = 1e-300
    assert verify_coercivity(T, 0.0) >= -1e-12
    assert not coercivity_holds(T, 0.0)
    # the margin is relative to the diagonal: a positive definite S whose
    # least eigenvalue is 2^-50 of its diagonal is refused, 2^-40 passes
    for gap, verdict in ((2.0**-50, False), (2.0**-40, True)):
        T = np.eye(4)
        T[0, 1] = T[1, 0] = 1.0 - gap
        assert coercivity_holds(T, 0.0) is verdict


def test_inflated_lambda0_rejected():
    # the float witness of S sits inside an absolute -1e-12 tolerance, but S
    # is not PSD; the split certificate of the README model stays accepted
    coeffs = improved_coefficients(1000.0, 1e4)
    assert coeffs.variant == "split_case2"
    T = build_Tprime(coeffs.a, coeffs.b, coeffs.c, 1000.0, 1e4)
    assert coercivity_holds(T, coeffs.lambda0)
    assert -1e-12 <= verify_coercivity(T, 64 * coeffs.lambda0) < 0
    assert not coercivity_holds(T, 64 * coeffs.lambda0)
    cert = certify(assemble_constants(DW, small_bump()), use_split=True)
    assert cert.variant == "split_case2"
    assert 0 < cert.psd_witness < 1e-11
    assert cert.psd_exact and cert.certified


def test_rejected_split_set_falls_back_to_single(monkeypatch):
    # at 64 lambda0 the README model's split set fails the exact decision on
    # T'(100, 218.9); certify then reports the single set, with one note
    formula = certifier.improved_coefficients

    def inflated(M1, M2):
        split = formula(M1, M2)
        return dataclasses.replace(split, lambda0=64 * split.lambda0)

    monkeypatch.setattr(certifier, "improved_coefficients", inflated)
    bundle = assemble_constants(DW, small_bump())
    cert = certify(bundle, use_split=True)
    assert (cert.variant, cert.psd_exact, cert.certified) == ("single", True, True)
    assert len(cert.notes) == 1 and "split_case2" in cert.notes[0]
    single = certify(bundle).to_json()
    assert {**cert.to_json(), "notes": []} == single


# ---------------------------------------------------------------------------
# rate and norm equivalence
# ---------------------------------------------------------------------------

def test_rate_lambda_paper_value():
    lam = rate_lambda(1 / 440, 1 / 25, 1 / 800, 1.0)
    assert lam == pytest.approx((1 / 440) * (25 / 27), abs=1e-15)


def test_rate_lambda_large_kappa_branch():
    c = default_coefficients(1.0)
    lam = rate_lambda(c.lambda0, c.a, c.c, 1e12)
    assert lam == pytest.approx(c.lambda0 / (2 * c.a + 1), rel=1e-9)


def test_rate_lambda_zero_coeffs():
    assert rate_lambda(2.0, 0.0, 0.0, 0.5) == pytest.approx(1.0)
    assert rate_lambda(2.0, 0.0, 0.0, 3.0) == pytest.approx(2.0)


def test_rate_lambda_monotonicity():
    c = default_coefficients(1.0)
    lams = [rate_lambda(c.lambda0, c.a, c.c, k) for k in (0.1, 0.5, 1.0, 10.0)]
    assert all(x <= y + 1e-18 for x, y in zip(lams, lams[1:]))
    lams_a = [rate_lambda(c.lambda0, a, c.c, 1.0) for a in (0.01, 0.1, 1.0)]
    assert lams_a[0] >= lams_a[1] >= lams_a[2]
    lams_c = [rate_lambda(c.lambda0, c.a, cc, 1.0) for cc in (0.001, 0.1, 10.0)]
    assert lams_c[0] >= lams_c[1] >= lams_c[2]


def test_norm_equivalence_default_coeffs():
    c1, c2, C0 = norm_equivalence(1 / 25, 1 / 200, 1 / 800)
    Q = np.array([[1 / 25, 1 / 200], [1 / 200, 1 / 800]])
    eigs = np.linalg.eigvalsh(Q)
    assert c1 == pytest.approx(math.sqrt(eigs[0]))
    assert c2 == 1.0
    assert C0 == pytest.approx(1.0 / math.sqrt(eigs[0]))
    assert eigs[0] == pytest.approx(6.16e-4, rel=2e-3)
    assert C0 == pytest.approx(40.3, rel=2e-3)


def test_norm_equivalence_diagonal():
    c1, c2, C0 = norm_equivalence(0.25, 0.0, 0.04)
    assert c1 == pytest.approx(0.2)
    assert c2 == 1.0
    c1, c2, C0 = norm_equivalence(1.0, 0.0, 1.0)
    assert C0 == pytest.approx(1.0)


def test_norm_equivalence_degenerate_rejected():
    with pytest.raises(InvalidSpecError):
        norm_equivalence(0.1, 0.2, 0.1)


# ---------------------------------------------------------------------------
# split-route coefficients
# ---------------------------------------------------------------------------

def test_case1_exact_rational_identities():
    assert 3864**2 == 576 * 25921
    num = lambda f: f * 25921  # back to integer numerators
    assert num(CASE1_BETA) == pytest.approx(576)
    assert CASE1_BETA == pytest.approx((CASE1_ALPHA + CASE1_BETA + CASE1_GAMMA) ** 2 * 1.0, abs=1e-18)
    assert CASE1_ALPHA * CASE1_GAMMA == pytest.approx(2 * CASE1_BETA**2, abs=1e-18)
    assert CASE1_GAMMA == pytest.approx(3 * CASE1_BETA / 8, abs=1e-18)


def test_improved_case1_psd_and_lambda0():
    for M2 in (10.0, 1e2, 1e4, 1e6):
        coeffs = improved_coefficients(1.0, M2)
        assert coeffs.variant == "split_case1"
        M = max(1.0, M2)
        assert coeffs.lambda0 == pytest.approx(144.0 / (25921.0 * math.sqrt(M)))
        assert coercivity_holds(build_Tprime(coeffs.a, coeffs.b, coeffs.c, 1.0, M2), coeffs.lambda0)


def test_improved_case1_scaling_slope():
    M2s = np.array([1e2, 1e4, 1e6])
    lams = []
    for M2 in M2s:
        coeffs = improved_coefficients(1.0, M2)
        lams.append(rate_lambda(coeffs.lambda0, coeffs.a, coeffs.c, 1.0))
    slope = np.polyfit(np.log(M2s), np.log(lams), 1)[0]
    assert -0.55 <= slope <= -0.45


def test_improved_beats_default_for_small_M1():
    for M2 in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        coeffs = improved_coefficients(1.0, M2)
        lam_split = rate_lambda(coeffs.lambda0, coeffs.a, coeffs.c, 1.0)
        d = default_coefficients(max(1.0, 1.0, M2))
        lam_single = rate_lambda(d.lambda0, d.a, d.c, 1.0)
        assert lam_split >= lam_single


def test_improved_case2_verified():
    for M1, M2 in ((2.0, 1e2), (1.5, 1e4), (10.0, 1e6)):
        coeffs = improved_coefficients(M1, M2)
        assert coeffs.variant == "split_case2"
        assert coercivity_holds(build_Tprime(coeffs.a, coeffs.b, coeffs.c, M1, M2), coeffs.lambda0)


def test_split_set_out_of_float_range_names_M1_and_M2():
    # (16 M1^2/3 + ...)^2 overflows at M1 = 1e100; the single set is never built
    bundle = ConstantsBundle(K=0.0, K_prime=0.0, K1=1e49, K2=1.0, d=1, kappa=1.0)
    with pytest.raises(InvalidSpecError, match=r"\(overflow, or b\^2 >= ac\): M1 = \S+, M2 = \S+ too large"):
        certify(bundle, use_split=True)


def test_improved_rejects_bad_input():
    with pytest.raises(InvalidSpecError):
        improved_coefficients(-1.0, 1.0)


# ---------------------------------------------------------------------------
# certify pipeline
# ---------------------------------------------------------------------------

def test_certify_quadratic_plus_small_bump_thm3():
    bundle = assemble_constants(QUAD, small_bump(0.1))
    cert = certify(bundle, mode="thm3")
    assert cert.certified
    assert cert.lam > 0
    assert cert.psd_exact
    assert cert.b**2 < cert.a * cert.c
    assert cert.lam <= cert.lambda0


@pytest.mark.parametrize("W", [small_bump(0.0), PotentialSpec("quadratic", {"coef": 0.0}, role="interaction"),
                               PotentialSpec("cosine", {"amplitude": 0.0, "frequency": 1.0}, role="interaction")],
                         ids=lambda W: W.family)
@pytest.mark.parametrize("U", [QUAD, DW], ids=["quadratic", "double_well"])
def test_force_free_interaction_assembles_as_none(U, W):
    got, want = assemble_constants(U, W), assemble_constants(U, None)
    for key, value in vars(want).items():
        assert repr(getattr(got, key)) == repr(value), key


@pytest.mark.parametrize("key", ["kappa", "cls", "rho_marginal"])
def test_assemble_constants_rejects_bools(key):
    # True used to be stored as the constant, graded user-supplied
    with pytest.raises(InvalidSpecError, match=f"^{key} must be a number, got True$"):
        assemble_constants(QUAD, None, **{key: True})


def test_certify_quadratic_interaction_needs_thm4():
    w = PotentialSpec("quadratic", {"coef": 0.1}, dim=1, role="interaction")
    bundle = assemble_constants(QUAD, w)
    with pytest.raises(MissingConstantError):
        certify(bundle, mode="thm3")
    cert = certify(bundle, mode="thm4")
    assert cert.certified
    assert cert.mode == "thm4"
    # C_LS came from Bakry-Emery curvature: kappa = 1 - 0 = 1
    assert bundle.C_LS == pytest.approx(1.0)
    assert cert.lam > 0


def test_certify_missing_everything_structured_failure():
    bundle = ConstantsBundle(K=1.0, K_prime=math.inf, K1=1.0, K2=1.0, d=1)
    with pytest.raises(MissingConstantError) as exc:
        certify(bundle, mode="thm4")
    assert exc.value.constant == "C_LS"
    assert "provide" in exc.value.remedy or "supply" in exc.value.remedy


def test_certificate_independent_of_N():
    # certificates are pure functions of the scalar bundle; N never enters
    bundle = assemble_constants(DW, small_bump())
    cert_a = certify(bundle, mode="thm3")
    cert_b = certify(bundle, mode="thm3")
    assert cert_a.to_json() == cert_b.to_json()
    import inspect
    for fn in (certify, constants_bounded_grad, constants_lsi, default_coefficients,
               improved_coefficients, build_Tprime, rate_lambda, norm_equivalence):
        assert "N" not in inspect.signature(fn).parameters


def test_certify_double_well_small_bump_criterion_route():
    bundle = assemble_constants(DW, small_bump())
    assert bundle.kappa is not None and bundle.kappa > 0
    assert bundle.provenance["kappa"] == "criterion-derived"
    cert = certify(bundle, mode="thm3")
    assert cert.certified
    assert cert.lam > 0


def test_certify_split_mode():
    # the double-well bundle lands in case 2 (M1 = 100 K1^2 > 1); the split
    # construction must still verify coercivity and certify
    bundle = assemble_constants(DW, small_bump())
    cert = certify(bundle, mode="thm3", use_split=True)
    assert cert.variant == "split_case2"
    assert cert.certified
    assert cert.psd_exact
    # the M1 <= 1 <= M2 improvement guarantee is exercised on explicit
    # constants in test_improved_beats_default_for_small_M1


def test_refined_channel_reported_alongside():
    bundle = assemble_constants(QUAD, small_bump(0.1))
    cert = certify(bundle, mode="thm3", refine=True)
    assert cert.refined is not None
    assert cert.refined["lambda"] >= cert.lam  # refinement only improves
    assert cert.refined["C0"] <= cert.C0
    # the paper-literal values stay untouched
    base = certify(bundle, mode="thm3", refine=False)
    assert cert.a == base.a and cert.lam == base.lam


def test_provenance_gates_certified_flag():
    bundle = assemble_constants(QUAD, small_bump(0.1))
    bundle.provenance["kappa"] = "numeric-estimate"
    cert = certify(bundle, mode="thm3")
    assert not cert.certified
    assert any("provenance" in n for n in cert.notes)


def test_refine_keeps_validity():
    # the refined block is REFINED_SET at max(1, M) on T(M, M), for the single
    # and the split route alike, and passes the exact check at every scale
    bundle = assemble_constants(DW, small_bump())
    bc = constants_bounded_grad(bundle.K, bundle.K_prime, bundle.K1, bundle.K2, bundle.d)
    ref = scaled_coefficients(bc.M, REFINED_SET, "refined")
    for use_split in (False, True):
        cert = certify(bundle, mode="thm3", use_split=use_split, refine=True)
        assert (cert.refined["a"], cert.refined["b"], cert.refined["c"], cert.refined["lambda0"]) == (
            ref.a, ref.b, ref.c, ref.lambda0)
    for M in (0.5, 1.0, 4.0, 10.0, 218.9, 1e3, 1e6, 1e9, 1e12):
        ref = scaled_coefficients(M, REFINED_SET, "refined")
        M = max(1.0, M)
        assert coercivity_holds(build_Tprime(ref.a, ref.b, ref.c, M, M), ref.lambda0)
        assert ref.b**2 < ref.a * ref.c
        assert ref.lambda0 > default_coefficients(M).lambda0


def test_thm4_uses_kappa_only_when_its_grade_certifies():
    # thm4 takes max(kappa, 1/C_LS); a numeric kappa = 50, which thm3
    # refuses, may not raise it
    prov = dict.fromkeys(("K", "K_prime", "K1", "K2", "C_LS"), "analytic")
    inputs = dict(K=0.0, K_prime=0.0, K1=1.0, K2=1.0, d=1, kappa=50.0, C_LS=1.0)
    weak = ConstantsBundle(**inputs, provenance={**prov, "kappa": "numeric-estimate"})
    assert not certify(weak, mode="thm3").certified
    cert = certify(weak, mode="thm4")
    assert (cert.kappa, cert.certified, cert.notes) == (1.0, True, [])
    strong = certify(ConstantsBundle(**inputs, provenance={**prov, "kappa": "analytic"}), mode="thm4")
    assert (strong.kappa, strong.certified) == (50.0, True)


@pytest.mark.parametrize("denominators", [PAPER_SET, REFINED_SET], ids=["literal", "refined"])
def test_scaled_sets_psd_for_all_M(denominators):
    # With t = sqrt(M) = 1 + u, D = Diag(t^3, t, t^2, t^3) makes D S D a
    # polynomial matrix in u with the principal minors of S up to a factor
    # t^(2k) > 0.  Non-negative coefficients in u prove each minor >= 0 for
    # every M >= 1, hence S >= 0; b^2 < ac holds since (1/db)^2 < 1/(da dc).
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    t = 1 + u
    da, db, dc, dl = (sympy.Integer(v) for v in denominators)
    a, b, c, lam0 = 1 / (da * t**2), 1 / (db * t**4), 1 / (dc * t**6), 1 / (dl * t**4)
    S = sympy.Matrix([
        [1 + a - b * t - lam0, 0, -(a + b + c * t) / 2, -b * t / 2],
        [0, a, 0, -b],
        [-(a + b + c * t) / 2, 0, b - lam0, -c * t / 2],
        [-b * t / 2, -b, -c * t / 2, c],
    ])
    powers = (3, 1, 2, 3)
    A = sympy.Matrix(4, 4, lambda i, j: sympy.cancel(S[i, j] * t ** (powers[i] + powers[j])))
    for k in range(1, 5):
        for idx in itertools.combinations(range(4), k):
            minor = sympy.Poly(A.extract(list(idx), list(idx)).det(method="berkowitz"), u)
            assert all(coef >= 0 for coef in minor.all_coeffs()), idx
    assert db**2 > da * dc


# ---------------------------------------------------------------------------
# route lists of assemble_constants
# ---------------------------------------------------------------------------

# a shallow double well: e^{-cR/4} underflows, so the criterion slack is 0
FLAT_DW = PotentialSpec("quartic_double_well", {"quartic": 0.001, "well": 1.4}, dim=1)


def quad_w(coef):
    return PotentialSpec("quadratic", {"coef": coef}, dim=1, role="interaction")


# case -> (constant, U, W, user inputs, the (value, grade) its route list
# picks).  The two criterion-transfer picks certify where the transfer on
# the numeric c_lip, which comes first, gives 1.0733398147657787 and
# 3.3333333333333335 graded numeric-estimate.
ROUTE_PICKS = {
    "kappa-user": ("kappa", DW, small_bump(), {"kappa": 0.7}, "(0.7, 'user-supplied')"),
    "kappa-bakry-emery": ("kappa", QUAD, small_bump(0.1), {}, "(0.955373967970314, 'analytic')"),
    "kappa-criterion": ("kappa", DW, small_bump(), {}, "(0.18454220545890987, 'criterion-derived')"),
    "kappa-dissipativity": ("kappa", FLAT_DW, None, {}, "(5.59962477965414e-215, 'numeric-estimate')"),
    "kappa-none": ("kappa", DW, quad_w(0.5), {}, "(None, None)"),
    "cls-user": ("C_LS", DW, small_bump(), {"cls": 2.5}, "(2.5, 'user-supplied')"),
    "cls-bakry-emery": ("C_LS", QUAD, small_bump(0.1), {}, "(1.0467105379943455, 'analytic')"),
    "cls-transfer-c_lip": ("C_LS", DW, quad_w(0.5), {"rho_marginal": 1.0}, "(6.314010180635608, 'numeric-estimate')"),
    "cls-transfer-criterion": ("C_LS", DW, small_bump(), {"rho_marginal": 1.0},
                               "(1.205119459452339, 'criterion-derived')"),
    "cls-transfer-criterion-K0": ("C_LS", DW, None, {"rho_marginal": 0.3}, "(3.3333333333333335, 'criterion-derived')"),
    "cls-none": ("C_LS", DW, small_bump(), {}, "(None, None)"),
}


@pytest.mark.parametrize("case", ROUTE_PICKS)
def test_route_lists_pick_first_certifying_route(case):
    key, U, W, user, want = ROUTE_PICKS[case]
    bundle = assemble_constants(U, W, **user)
    assert repr((getattr(bundle, key), bundle.provenance.get(key))) == want


def test_user_kappa_stops_the_walk_before_the_criterion(monkeypatch):
    calls = []
    for name in ("kappa_bakry_emery", "upi_criterion", "kappa_dissipativity", "lsi_transfer", "ulsi_criterion"):
        fn = getattr(funcineq, name)
        monkeypatch.setattr(funcineq, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    assemble_constants(DW, small_bump())
    assert calls == ["kappa_bakry_emery", "upi_criterion"]
    calls.clear()
    assert assemble_constants(DW, small_bump(), kappa=0.7).kappa == 0.7
    assert calls == ["kappa_bakry_emery"]
    # the transfer on c_lip does not certify, so the walk goes on to the criterion
    calls.clear()
    assemble_constants(DW, small_bump(), kappa=0.7, rho_marginal=1.0)
    assert calls == ["kappa_bakry_emery", "lsi_transfer", "ulsi_criterion", "lsi_transfer"]


@pytest.mark.parametrize("W", [None, small_bump(), PotentialSpec("cosine", {"amplitude": 0.05, "frequency": 1.0},
                                                                  dim=1, role="interaction"), quad_w(0.05)],
                         ids=lambda W: W and W.family)
@pytest.mark.parametrize("U", [DW, PotentialSpec("quartic_double_well", {"quartic": 1.0, "well": 0.2}, dim=1)],
                         ids=["shallow", "steep"])
def test_c_lip_never_exceeds_the_criterion_bound(U, W):
    # b0(r) <= -(c_u - K) r + c 1{r <= R}, so the transfer on c_lip goes
    # first in _cls_routes without losing to the bound e^{cR/4}/(c_u - K)
    b = assemble_constants(U, W)
    assert b.c_u > b.K
    assert b.c_lip <= math.exp(b.c * b.R_conv / 4.0) / (b.c_u - b.K)
