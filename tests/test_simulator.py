import math

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from langcert import simulator
from langcert.errors import InvalidSpecError, ResourceCapError
from langcert.meanfield import ModelConfig
from langcert.potentials import PotentialSpec
from langcert.simulator import (
    NoiseStreams,
    IntegratorConfig,
    InitSpec,
    OBSERVABLES,
    fit_decay,
    initial_state,
    n_sweep,
    run,
    _DOMAIN_DYNAMICS,
    _SLAB_WORDS,
    _advance_block,
    _fit_lambda,
    _forward_env,
    _oscillation_spacing,
    _running_env,
    _stream_key,
)

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
MODEL = ModelConfig(N=2, d=1, U=QUAD)
OMEGA = math.sqrt(3) / 2  # oscillation frequency of the unit-curvature kinetic mean


def exact_mean(t, x0, v0):
    # d/dt (mx, mv) = (mv, -mx - mv): damped oscillation from (x0, v0)
    return np.exp(-t / 2) * (x0 * np.cos(OMEGA * t) + ((v0 + x0 / 2) / OMEGA) * np.sin(OMEGA * t))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_integrator_validation():
    with pytest.raises(InvalidSpecError):
        IntegratorConfig("rk4", 0.01)
    with pytest.raises(InvalidSpecError):
        IntegratorConfig("baoab", 0.2)  # stability guard dt <= 0.1


def test_run_caps_and_validation():
    with pytest.raises(ResourceCapError):
        run(MODEL, IntegratorConfig("baoab", 1e-3), 1, 2e6, 0)
    with pytest.raises(InvalidSpecError):
        run(MODEL, IntegratorConfig("baoab", 1e-2), 1, 1.0, 0, observables=())
    with pytest.raises(InvalidSpecError):
        run(MODEL, IntegratorConfig("baoab", 1e-2), 1, 1.0, 0, observables=("bogus",))


# ---------------------------------------------------------------------------
# noise streams
# ---------------------------------------------------------------------------

def test_streams_independent_of_run_shape():
    # the stream of (replica 5, label 3) does not care which other replicas
    # or particles are present
    a = NoiseStreams(9, [5], [3], 2).normals(4)
    b = NoiseStreams(9, [0, 5, 7], [0, 3, 9], 2).normals(4)
    assert np.array_equal(a[0, :, 0, :], b[1, :, 1, :])


def test_streams_chunked_consumption_is_exact():
    a = NoiseStreams(4, [0, 1], [0], 1)
    whole = a.normals(10)
    b = NoiseStreams(4, [0, 1], [0], 1)
    parts = np.concatenate([b.normals(3), b.normals(7)], axis=1)
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("R, N, d, n_steps, per_slab", [
    (5, 2, 1, 7, 5),        # every replica in one slab
    (7, 3, 2, 1000, 2),     # the last slab is short
    (2, 3, 2, 3000, 1),     # N * n_steps * d > _SLAB_WORDS
])
def test_streams_slab_conversion_matches_per_stream(R, N, d, n_steps, per_slab):
    assert min(R, max(1, _SLAB_WORDS // (N * n_steps * d))) == per_slab
    def reference_block(gens):
        # the per-stream conversion: one uint64 word -> one normal
        out = np.empty((R, n_steps, N, d))
        for i, row in enumerate(gens):
            for j, g in enumerate(row):
                words = g.random_raw(n_steps * d)
                u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
                out[i, :, j, :] = ndtri(u).reshape(n_steps, d)
        return out

    seed, replicas, labels = 13, list(range(3, 3 + R)), [0, 5, 2][:N]
    gens = [[Philox(key=_stream_key(seed, _DOMAIN_DYNAMICS, r, lab)) for lab in labels] for r in replicas]
    streams = NoiseStreams(seed, replicas, labels, d)
    for _ in range(2):  # the second block continues every stream
        got = streams.normals(n_steps)
        assert got.tobytes() == reference_block(gens).tobytes()


def test_initial_state_reproducible_and_offset():
    st = initial_state(MODEL, 64, 123, InitSpec(position_offset=2.0, position_spread=0.5))
    st2 = initial_state(MODEL, 64, 123, InitSpec(position_offset=2.0, position_spread=0.5))
    assert np.array_equal(st.positions, st2.positions)
    assert np.array_equal(st.velocities, st2.velocities)
    assert st.positions[..., 0].mean() == pytest.approx(2.0, abs=0.3)
    assert st.velocities.std() == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_zero_force_zero_noise_fixed_point():
    model = ModelConfig(N=2, d=1, U=PotentialSpec("quadratic", {"coef": 0.0}, dim=1))
    for scheme in ("euler_maruyama", "baoab"):
        st = initial_state(model, 3, 7, InitSpec(position_offset=1.0, position_spread=0.2))
        x, v = _advance_block(model, IntegratorConfig(scheme, 0.05), st.positions,
                              np.zeros_like(st.velocities), np.zeros((3, 1, 2, 1)))
        assert np.array_equal(x, st.positions)
        assert np.all(v == 0.0)


def test_run_zero_horizon_initial_observables_only():
    res = run(MODEL, IntegratorConfig("baoab", 0.01), 1, 0.0, 0, observables=("mean_position",))
    assert res.times.shape == (1,)
    assert res.times[0] == 0.0


def test_determinism_same_seed_bit_identical():
    kw = dict(observables=("mean_position", "kinetic_energy"), stride=10)
    r1 = run(MODEL, IntegratorConfig("baoab", 0.01), 16, 1.0, 42, **kw)
    r2 = run(MODEL, IntegratorConfig("baoab", 0.01), 16, 1.0, 42, **kw)
    for name in kw["observables"]:
        assert np.array_equal(r1.means[name], r2.means[name])
    assert np.array_equal(r1.final_state.positions, r2.final_state.positions)


def test_trajectories_chunk_invariant():
    kw = dict(observables=("mean_position",), stride=10)
    r1 = run(MODEL, IntegratorConfig("baoab", 0.01), 10, 0.5, 42, **kw)
    r2 = run(MODEL, IntegratorConfig("baoab", 0.01), 10, 0.5, 42, replica_chunk=3, time_block=7, **kw)
    assert np.array_equal(r1.final_state.positions, r2.final_state.positions)
    assert np.array_equal(r1.final_state.velocities, r2.final_state.velocities)


def test_exchangeability_label_permutation():
    model = ModelConfig(N=3, d=1, U=QUAD)
    perm = [2, 0, 1]
    kw = dict(observables=("mean_position",), stride=50)
    rA = run(model, IntegratorConfig("baoab", 0.01), 4, 0.5, 5, **kw)
    rB = run(model, IntegratorConfig("baoab", 0.01), 4, 0.5, 5, labels=perm, **kw)
    assert np.array_equal(rB.final_state.positions, rA.final_state.positions[:, perm, :])
    assert np.array_equal(rB.final_state.velocities, rA.final_state.velocities[:, perm, :])


def test_exchangeability_with_interaction():
    w = PotentialSpec("gaussian_bump", {"amplitude": 0.5, "width": 1.0, "sign": "attractive"},
                      dim=1, role="interaction")
    model = ModelConfig(N=3, d=1, U=QUAD, W=w)
    perm = [2, 0, 1]
    kw = dict(observables=("mean_position",), stride=50)
    rA = run(model, IntegratorConfig("baoab", 0.01), 4, 0.5, 5, **kw)
    rB = run(model, IntegratorConfig("baoab", 0.01), 4, 0.5, 5, labels=perm, **kw)
    # permutation reassociates the pairwise force sum; equality is exact up
    # to that reassociation (bitwise for these sizes)
    assert np.allclose(rB.final_state.positions, rA.final_state.positions[:, perm, :], atol=1e-12)


# ---------------------------------------------------------------------------
# statistical behavior
# ---------------------------------------------------------------------------

def test_ensemble_mean_follows_linear_ode():
    R = 4000
    res = run(MODEL, IntegratorConfig("baoab", 1e-2), R, 6.0, 7,
              observables=("mean_position", "mean_velocity"), stride=20)
    st0 = initial_state(MODEL, R, 7)
    x0, v0 = st0.positions.mean(), st0.velocities.mean()
    ref = exact_mean(res.times, x0, v0)
    # MC error of the ensemble mean is ~1/sqrt(R); allow 5 sigma uniformly
    assert np.abs(res.means["mean_position"] - ref).max() < 5.0 / math.sqrt(R)


def test_o_step_preserves_gaussian_velocities():
    # zero confinement: the only velocity dynamics is the exact OU step
    model = ModelConfig(N=2, d=1, U=PotentialSpec("quadratic", {"coef": 0.0}, dim=1))
    res = run(model, IntegratorConfig("baoab", 0.05), 4000, 2.0, 3,
              observables=("kinetic_energy",), stride=40)
    v = res.final_state.velocities.ravel()
    n = v.size
    assert v.mean() == pytest.approx(0.0, abs=4 / math.sqrt(n))
    assert v.var() == pytest.approx(1.0, abs=4 * math.sqrt(2.0 / n))


def test_stationary_covariance_identity():
    R = 4000
    res = run(MODEL, IntegratorConfig("baoab", 1e-2), R, 10.0, 11,
              observables=("kinetic_energy",), stride=100)
    x = res.final_state.positions.ravel()
    v = res.final_state.velocities.ravel()
    n = x.size
    band = 3 * math.sqrt(2.0 / n)
    assert x.var() == pytest.approx(1.0, abs=band)
    assert v.var() == pytest.approx(1.0, abs=band)
    assert np.cov(x, v)[0, 1] == pytest.approx(0.0, abs=3 / math.sqrt(n))


def test_kinetic_energy_equilibrium_value():
    model = ModelConfig(N=3, d=2, U=PotentialSpec("quadratic", {"coef": 1.0}, dim=2))
    res = run(model, IntegratorConfig("baoab", 1e-2), 2000, 8.0, 13,
              observables=("kinetic_energy",), stride=100)
    # d/2 per particle at equilibrium
    assert res.means["kinetic_energy"][-1] == pytest.approx(1.0, abs=0.05)


def test_baoab_weak_second_order_on_mean_map():
    # noise-free mean propagation is exactly the scheme's weak mean map for
    # this linear model; BAOAB halving ratio ~4, Euler-Maruyama ~2
    init = InitSpec(position_offset=2.0, position_spread=0.0)
    st0 = initial_state(MODEL, 1, 0, init)
    ref = exact_mean(4.0, st0.positions.mean(), st0.velocities.mean())
    ratios = {}
    for scheme in ("baoab", "euler_maruyama"):
        errs = []
        for dt in (0.08, 0.04, 0.02):
            noise = np.zeros((1, int(round(4.0 / dt)), 2, 1))
            x, _ = _advance_block(MODEL, IntegratorConfig(scheme, dt), st0.positions, st0.velocities, noise)
            errs.append(abs(x[..., 0].mean() - ref))
        ratios[scheme] = (errs[0] / errs[1], errs[1] / errs[2])
    assert all(3.0 <= r <= 5.0 for r in ratios["baoab"])
    assert all(1.6 <= r <= 2.6 for r in ratios["euler_maruyama"])


def test_mc_error_halves_with_double_replicas():
    groups = 32
    se = {}
    for R in (128, 256):
        finals = []
        for g in range(groups):
            res = run(MODEL, IntegratorConfig("baoab", 0.01), R, 1.0, 1000 + g + 10000 * R,
                      observables=("mean_position",), stride=100)
            finals.append(res.means["mean_position"][-1])
        se[R] = np.std(finals, ddof=1)
    ratio = se[256] / se[128]
    assert 1 / math.sqrt(2) * 0.8 <= ratio <= 1 / math.sqrt(2) * 1.2


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_pair_distance_observable_values():
    x = np.array([[[0.0], [2.0]]])  # one replica, two particles at distance 2
    v = np.zeros_like(x)
    model = ModelConfig(N=2, d=1, U=QUAD)
    assert OBSERVABLES["pair_distance_second_moment"](model, x, v)[0] == pytest.approx(4.0)
    x_same = np.full((1, 5, 1), 0.3)
    model5 = ModelConfig(N=5, d=1, U=QUAD)
    assert OBSERVABLES["pair_distance_second_moment"](model5, x_same, np.zeros_like(x_same))[0] == 0.0


def test_confinement_energy_observable():
    model = ModelConfig(N=2, d=1, U=QUAD)
    x = np.array([[[1.0], [-1.0]]])
    assert OBSERVABLES["confinement_energy"](model, x, np.zeros_like(x))[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def test_envelopes_match_reference_loops():
    def running(s, h):
        n = s.size
        return np.array([np.abs(s[max(0, k - h):min(n, k + h + 1)]).max() for k in range(n)])

    def forward(s, w):
        n = s.size
        return np.array([np.abs(s[k:min(n, k + w + 1)]).max() for k in range(n)])

    rng = np.random.default_rng(8)
    for n in range(1, 11):
        s = rng.normal(size=n) * np.exp(-np.arange(n))
        for w in (1, 2, 7, 50, n, n + 3):
            assert running(s, w).tobytes() == _running_env(s, w).tobytes()
            assert forward(s, w).tobytes() == _forward_env(s, w).tobytes()
    s = rng.normal(size=400)
    for w in (1, 2, 7, 50):
        assert running(s, w).tobytes() == _running_env(s, w).tobytes()
        assert forward(s, w).tobytes() == _forward_env(s, w).tobytes()


def _two_gather_fit(t, per, equilibrium, window, fit_lambda):
    # fit_decay with the bootstrap that gathers each resample twice
    R = per.shape[0]
    sigma = np.sqrt(per.var(axis=0) / R) + 1e-300
    lam, r2, n_pts, window = fit_lambda(t, per.mean(axis=0) - equilibrium, sigma, window=window)
    rng = np.random.default_rng(777)
    boots = []
    for _ in range(200):
        pick = rng.integers(0, R, size=R)
        bmean = per[pick].mean(axis=0)
        bvar = per[pick].var(axis=0)
        bfit = fit_lambda(t, bmean - equilibrium, np.sqrt(bvar / R) + 1e-300, window=window)
        if bfit is not None:
            boots.append(bfit[0])
    lo, hi = np.percentile(boots, [2.5, 97.5]) if len(boots) >= 20 else (lam, lam)
    return {"lambda_hat": lam, "ci_low": float(min(lo, lam)), "ci_high": float(max(hi, lam)),
            "r_squared": r2, "window": [window[0], window[1]], "observable_id": "x",
            "n_points": n_pts}


@pytest.mark.parametrize("kind, window", [("osc", None), ("mono", None), ("mono", (1.0, 4.0))])
def test_fit_decay_bootstrap_matches_two_gather_reference(kind, window, monkeypatch):
    def recording(calls):
        def fit_lambda(t, s, sigma, **kwargs):
            calls.append(s.tobytes() + sigma.tobytes())
            return _fit_lambda(t, s, sigma, **kwargs)
        return fit_lambda

    rng = np.random.default_rng(11)
    t = np.arange(0, 10.0, 0.02)
    if kind == "osc":
        base = (4 / math.sqrt(3)) * np.exp(-t / 2) * np.cos(OMEGA * t - math.pi / 6)
    else:
        base = 2 * np.exp(-0.7 * t)
    per = base[None, :] + rng.normal(0, 0.2, size=(300, t.size))
    sigma = np.sqrt(per.var(axis=0) / 300) + 1e-300
    # the oscillating series takes the running envelope, the monotone one the forward one
    assert (_oscillation_spacing(t, per.mean(axis=0), sigma) is not None) == (kind == "osc")
    got, want = [], []
    monkeypatch.setattr(simulator, "_fit_lambda", recording(got))
    fit = fit_decay(t, per, 0.0, "x", window=window)
    reference = _two_gather_fit(t, per, 0.0, window, recording(want))
    assert fit is not None
    assert len(got) == 201 and got == want  # every resample's signal and noise floor
    assert repr(fit.to_json()) == repr(reference)


def test_fit_decay_synthetic_exponential():
    rng = np.random.default_rng(0)
    t = np.arange(0, 10.0, 0.01)
    R = 400
    per = np.exp(-0.5 * t)[None, :] + rng.normal(0, 1e-4 * math.sqrt(R), size=(R, t.size))
    fit = fit_decay(t, per, 0.0, "synthetic")
    assert fit is not None
    assert fit.lambda_hat == pytest.approx(0.5, abs=0.02)
    assert fit.ci_low <= fit.lambda_hat <= fit.ci_high
    assert fit.r_squared > 0.99


def test_fit_decay_constant_series_absent():
    t = np.arange(0, 5.0, 0.01)
    per = np.full((64, t.size), 0.7)
    assert fit_decay(t, per, 0.7, "const") is None  # zero signal
    assert fit_decay(t, per, 0.0, "const") is None  # never decays


def test_fit_decay_oscillatory_envelope_rate():
    # the kinetic quadratic model's mean decays with envelope rate 1/2
    rng = np.random.default_rng(3)
    t = np.arange(0, 10.0, 0.01)
    R = 10000
    base = (4 / math.sqrt(3)) * np.exp(-t / 2) * np.cos(OMEGA * t - math.pi / 6)
    per = base[None, :] + rng.normal(0, 1.0, size=(R, t.size))
    fit = fit_decay(t, per, 0.0, "osc")
    assert fit is not None
    assert 0.425 <= fit.lambda_hat <= 0.575


def test_fit_decay_window_override():
    rng = np.random.default_rng(5)
    t = np.arange(0, 10.0, 0.01)
    per = 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 0.05, size=(256, t.size))
    fit = fit_decay(t, per, 0.0, "x", window=(1.0, 4.0))
    assert fit is not None
    assert fit.window[0] >= 1.0 - 1e-9 and fit.window[1] <= 4.0 + 1e-9
    assert fit.lambda_hat == pytest.approx(0.7, abs=0.1)


# ---------------------------------------------------------------------------
# n_sweep
# ---------------------------------------------------------------------------

def test_n_sweep_no_interaction_rates_agree():
    fits = n_sweep(QUAD, None, d=1, Ns=[2, 4], integrator=IntegratorConfig("baoab", 0.01),
                   replicas=600, horizon=8.0, master_seed=21, observable="mean_position",
                   equilibrium_value=0.0, stride=5)
    rates = [f.lambda_hat for _, f in fits]
    assert all(f is not None for _, f in fits)
    # identical law across N; fitted windows are harmonized, CIs overlap
    lo = max(f.ci_low for _, f in fits)
    hi = min(f.ci_high for _, f in fits)
    assert lo <= hi


def test_n_sweep_validation():
    with pytest.raises(InvalidSpecError):
        n_sweep(QUAD, None, 1, [4, 2], IntegratorConfig("baoab", 0.01), 4, 1.0, 0)
