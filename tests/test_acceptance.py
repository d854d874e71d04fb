"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; the suite is self-contained and finishes on a laptop in a few
minutes (criterion 8 dominates).
"""

import json
import math

import numpy as np

from langcert.certifier import (
    build_Tprime,
    certify,
    coercivity_holds,
    default_coefficients,
    improved_coefficients,
    rate_lambda,
    verify_coercivity,
)
from langcert.cli import main as cli_main
from langcert.funcineq import GridMeasure, kappa_dissipativity, spectral_gap
from langcert.meanfield import ModelConfig, force_batch, hessian_blocks, total_potential
from langcert.oracle import fd_derivative_suite, oracle_suite
from langcert.potentials import PotentialSpec, lipschitz_constant, model_b0
from langcert.simulator import IntegratorConfig, InitSpec, fit_decay, n_sweep, run

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
DW = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1)
BUMP_SMALL = PotentialSpec(
    "gaussian_bump", {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, dim=1, role="interaction"
)


def report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS - {detail}")


def test_criterion_01_paper_literal_coefficients():
    c = default_coefficients(1.0)
    assert (c.a, c.b, c.c, c.lambda0) == (1 / 25, 1 / 200, 1 / 800, 1 / 440)
    T = build_Tprime(c.a, c.b, c.c, 1.0, 1.0)
    assert coercivity_holds(T, c.lambda0)
    witness = verify_coercivity(T, c.lambda0)
    report(1, f"(a,b,c,lambda0) exact at M=1; S is PSD in exact arithmetic (min eig {witness:.3e})")


def test_criterion_02_rate_formula():
    lam = rate_lambda(1 / 440, 1 / 25, 1 / 800, kappa=1.0)
    assert abs(lam - (1 / 440) * (25 / 27)) <= 1e-12
    report(2, f"lambda = {lam:.12e} = (1/440)(25/27) to 1e-12")


def test_criterion_03_interaction_hessian_bound():
    w = PotentialSpec("gaussian_bump", {"amplitude": 2.0, "width": 1.0, "sign": "attractive"},
                      dim=1, role="interaction")
    rng = np.random.default_rng(2024)
    n_checked = 0
    worst = -math.inf
    for d in (1, 2, 3):
        wd = PotentialSpec("gaussian_bump", {"amplitude": 2.0, "width": 1.0, "sign": "attractive"},
                           dim=d, role="interaction")
        ud = PotentialSpec("quadratic", {"coef": 1.0}, dim=d)
        for N in range(2, 17):
            model = ModelConfig(N=N, d=d, U=ud, W=wd)
            for _ in range(25):
                x = rng.standard_normal((N, d)) * rng.uniform(0.3, 3.0)
                op = float(np.abs(np.linalg.eigvalsh(hessian_blocks(model, x).H_W)).max())
                worst = max(worst, op)
                assert op <= 2.0 + 1e-8
                n_checked += 1
    assert n_checked >= 1000
    # d = 1 quadratic special case: eigenvalues exactly {0, 1}
    for N in (2, 7, 16):
        model = ModelConfig(N=N, d=1, U=QUAD, W=PotentialSpec("quadratic", {"coef": 1.0}, dim=1, role="interaction"))
        x = rng.standard_normal((N, 1))
        eigs = np.sort(np.linalg.eigvalsh(hessian_blocks(model, x).H_W))
        assert np.allclose(eigs, [0.0] + [1.0] * (N - 1), atol=1e-12)
    report(3, f"|H_W|_op <= K + 1e-8 on {n_checked} configs (worst {worst:.6f} vs K = 2); "
              "quadratic d=1 spectrum exactly {0, 1}")


def test_criterion_04_split_route_rationals():
    assert 3864**2 == 576 * 25921
    alpha, beta, gamma = 3072, 576, 216  # numerators over 25921
    assert (alpha + beta + gamma) ** 2 == beta * 25921
    assert alpha * gamma == 2 * beta**2
    assert 8 * gamma == 3 * beta
    report(4, "3864^2 = 576 * 25921, alpha*gamma = 2 beta^2, gamma = 3 beta / 8 (exact integers)")


def test_criterion_05_split_route_scaling():
    M2s = np.array([1e2, 1e4, 1e6])
    lams_split, lams_single = [], []
    for M2 in M2s:
        coeffs = improved_coefficients(1.0, float(M2))
        assert coeffs.variant == "split_case1"
        assert coercivity_holds(build_Tprime(coeffs.a, coeffs.b, coeffs.c, 1.0, float(M2)), coeffs.lambda0)
        lams_split.append(rate_lambda(coeffs.lambda0, coeffs.a, coeffs.c, 1.0))
        dflt = default_coefficients(max(1.0, float(M2)))
        lams_single.append(rate_lambda(dflt.lambda0, dflt.a, dflt.c, 1.0))
    slope = float(np.polyfit(np.log(M2s), np.log(lams_split), 1)[0])
    assert -0.55 <= slope <= -0.45
    assert all(s >= g for s, g in zip(lams_split, lams_single))
    report(5, f"log-log slope {slope:.4f} in [-0.55, -0.45]; lambda_split >= lambda_single on the grid")


def test_criterion_06_spectral_gap_oracle_vs_certified_route():
    details = []
    for k1 in (0.5, 1.0, 2.0):
        u = PotentialSpec("quadratic", {"coef": k1}, dim=1)
        m = GridMeasure.from_potential(u, halfwidth=9.0 / math.sqrt(k1), n=2001)
        gap = spectral_gap(m).gap
        assert abs(gap - k1) <= 0.02 * k1
        # certified route: b0 exact, c_lip by quadrature, kappa = 1/c_lip
        clip = lipschitz_constant(model_b0(u, None))
        assert abs(clip.value - 1.0 / k1) <= 1e-8
        kappa = kappa_dissipativity(clip.value)
        assert abs(kappa - k1) <= 1e-7
        assert abs(kappa - gap) <= 0.02 * k1
        details.append(f"k1={k1}: gap={gap:.5f}, c_lip={clip.value:.10f}")
    report(6, "; ".join(details))


def test_criterion_07_simulator_calibration():
    model = ModelConfig(N=2, d=1, U=QUAD)  # product of independent unit-curvature particles
    res = run(
        model,
        IntegratorConfig("baoab", 1e-3),
        replicas=10**4,
        horizon=10.0,
        master_seed=3,
        observables=("mean_position",),
        stride=10,
        keep_replica_series=("mean_position",),
    )
    fit = fit_decay(res.times, res.per_replica["mean_position"], 0.0, "mean_position")
    assert fit is not None
    assert 0.425 <= fit.lambda_hat <= 0.575
    x = res.final_state.positions.ravel()
    v = res.final_state.velocities.ravel()
    n = x.size
    band_var = 3.0 * math.sqrt(2.0 / n)
    band_cov = 3.0 / math.sqrt(n)
    assert abs(x.var() - 1.0) <= band_var
    assert abs(v.var() - 1.0) <= band_var
    assert abs(float(np.cov(x, v)[0, 1])) <= band_cov
    report(7, f"envelope rate {fit.lambda_hat:.4f} in [0.425, 0.575]; "
              f"var(x)={x.var():.4f}, var(v)={v.var():.4f}, cov={float(np.cov(x, v)[0, 1]):.4f} "
              f"within 3-sigma bands ({band_var:.4f}/{band_cov:.4f})")


def test_criterion_08_n_uniformity(tmp_path):
    # certificate through the CLI (exit 0 iff certified)
    cfg = tmp_path / "certify.json"
    cfg.write_text(json.dumps({
        "model": {"N": 2, "d": 1, "U": DW.to_json(), "W": BUMP_SMALL.to_json()},
    }))
    out = tmp_path / "out"
    assert cli_main(["certify", "--config", str(cfg), "--out", str(out), "--paper-literal"]) == 0
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    assert cert["certified"] is True
    lam_cert = cert["lambda"]
    assert lam_cert > 0

    table = n_sweep(
        DW,
        BUMP_SMALL,
        d=1,
        Ns=[2, 8, 32],
        integrator=IntegratorConfig("baoab", 0.01),
        replicas=2000,
        horizon=20.0,
        master_seed=77,
        observable="mean_position",
        equilibrium=0.0,  # exact by the x -> -x symmetry of V
        stride=5,
        init=InitSpec(position_offset=1.0, position_spread=math.sqrt(0.5)),
    )
    assert all(fit is not None for _, fit in table)
    rates = [fit.lambda_hat for _, fit in table]
    spread = (max(rates) - min(rates)) / float(np.mean(rates))
    assert spread <= 0.25
    assert all(lam_cert <= fit.ci_high for _, fit in table)
    report(8, f"rates {[round(r, 4) for r in rates]} spread {spread:.3f} <= 0.25; "
              f"certified lambda {lam_cert:.3e} below every ci_high")


def test_criterion_09_oracle_suite():
    rep = oracle_suite(n_lyapunov=20, n_moment=10, n_boundedness=10, seed=31415)
    names = [c["name"] for c in rep["oracle_suite"]]
    assert names.count("lyapunov_lemma") == 20
    assert names.count("moment_bound") == 10
    assert names.count("boundedness_condition") == 10
    assert rep["all_passed"]
    report(9, f"{rep['n_checks']} oracle checks passed "
              "(20 Lyapunov-lemma, 10 moment-bound at tau=1/(8 C_LS), 10 boundedness)")


def test_criterion_10_derivative_hygiene():
    checks = fd_derivative_suite([
        PotentialSpec("quadratic", {"coef": 1.3}, dim=2),
        PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=3),
        PotentialSpec("gaussian_bump", {"amplitude": 1.1, "width": 0.9, "sign": "attractive"},
                      dim=2, role="interaction"),
        PotentialSpec("gaussian_bump", {"amplitude": 0.8, "width": 1.3, "sign": "repulsive"},
                      dim=1, role="interaction"),
        PotentialSpec("cosine", {"amplitude": 0.7, "frequency": 1.8}, dim=2, role="interaction"),
    ])
    assert all(c.passed for c in checks)
    worst_pot = max(c.lhs for c in checks)
    # force vs central differences of the total potential
    model = ModelConfig(N=3, d=2,
                        U=PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=2),
                        W=PotentialSpec("gaussian_bump", {"amplitude": 0.9, "width": 1.1, "sign": "attractive"},
                                        dim=2, role="interaction"))
    rng = np.random.default_rng(55)
    worst_force = 0.0
    for _ in range(20):
        x = rng.standard_normal((3, 2)) * 1.5
        f = force_batch(model, x)
        fd = np.empty_like(x)
        for i in range(3):
            for a in range(2):
                h = 1e-6 * (1 + abs(x[i, a]))
                xp, xm = x.copy(), x.copy()
                xp[i, a] += h
                xm[i, a] -= h
                fd[i, a] = -(total_potential(model, xp) - total_potential(model, xm)) / (2 * h)
        worst_force = max(worst_force, float(np.abs(f - fd).max() / max(1.0, np.abs(f).max())))
    assert worst_force < 1e-6
    report(10, f"FD hygiene: worst potential-derivative rel err {worst_pot:.2e}, "
               f"worst force rel err {worst_force:.2e} (< 1e-6)")


def test_criterion_11_reproducibility(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "model": {"N": 3, "d": 1, "U": DW.to_json(), "W": BUMP_SMALL.to_json()},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 64,
        "horizon": 2.0,
        "stride": 5,
        "observables": ["mean_position", "kinetic_energy", "pair_distance_second_moment"],
        "fit": {"observable": "mean_position", "equilibrium": 0.0},
    }))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "model_template": {"d": 1, "U": QUAD.to_json(), "W": None},
        "Ns": [2, 4],
        "integrator": {"scheme": "euler_maruyama", "dt": 0.01},
        "replicas": 64,
        "horizon": 4.0,
        "stride": 5,
    }))
    cert_cfg = tmp_path / "cert.json"
    cert_cfg.write_text(json.dumps({"model": {"N": 4, "d": 1, "U": QUAD.to_json(),
                                              "W": BUMP_SMALL.to_json()}}))
    blobs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_main(["simulate", "--config", str(sim_cfg), "--out", str(out), "--seed", "7"]) == 0
        assert cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(out), "--seed", "7"]) == 0
        assert cli_main(["certify", "--config", str(cert_cfg), "--out", str(out), "--seed", "7"]) == 0
        assert cli_main(["oracle", "--out", str(out), "--seed", "7"]) == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert blobs[0].keys() == blobs[1].keys()
    diff = [n for n in blobs[0] if blobs[0][n] != blobs[1][n]]
    assert not diff, f"outputs differ: {diff}"
    report(11, f"bit-identical outputs across repeated runs: {sorted(blobs[0])}")
