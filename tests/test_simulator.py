import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from langcert import meanfield, simulator
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
    _DOMAIN_INIT_POS,
    _DOMAIN_INIT_VEL,
    _SLAB_WORDS,
    _advance_block,
    _fit_lambda,
    _philox_words,
    _forward_env,
    _oscillation_spacing,
    _init_normals,
    _running_env,
    _stream_keys,
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
    # a repeated name used to add each record twice (the mean read double)
    with pytest.raises(InvalidSpecError, match="^observables must be distinct"):
        run(MODEL, IntegratorConfig("baoab", 1e-2), 1, 1.0, 0, observables=("mean_position", "mean_position"))


@pytest.mark.parametrize("horizon", [-1.0, -1e-9, math.inf, math.nan])
def test_run_rejects_negative_or_nonfinite_horizon(horizon):
    with pytest.raises(InvalidSpecError, match="^horizon must be finite and >= 0, got "):
        run(MODEL, IntegratorConfig("baoab", 1e-2), 1, horizon, 0)


def test_run_stops_at_first_nonfinite_block(monkeypatch):
    # a quartic started at offset 20 with dt = 0.1 overflows within ten steps;
    # run stops after the first block of 256 instead of integrating to 1000
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _advance_block(*args, **kwargs)

    monkeypatch.setattr(simulator, "_advance_block", counting)
    model = ModelConfig(N=2, d=1, U=PotentialSpec("quartic_double_well",
                                                  {"quartic": 0.25, "well": 0.5}, dim=1))
    with np.errstate(all="ignore"), pytest.raises(ResourceCapError) as exc:
        run(model, IntegratorConfig("baoab", 0.1), 4, 100.0, 0, init=InitSpec(position_offset=20.0))
    assert str(exc.value) == "non-finite state in steps 1-256 of replicas 0-3 (reduce dt)"
    assert len(calls) == 1


def test_run_names_nonfinite_steps_and_replicas(monkeypatch):
    # chunks of 3 replicas, blocks of 7 steps: the third block of the second
    # chunk turns non-finite, so the error names steps 15-21 of replicas 3-5
    calls = []

    def poisoned(model, integrator, x, v, noise, callback=None):
        calls.append(x.shape[0])
        x, v = _advance_block(model, integrator, x, v, noise, callback)
        if len(calls) == 3 + 3:  # three blocks of chunk 0, then the third of chunk 1
            x = x.copy()
            x[1, 0, 0] = np.nan
        return x, v

    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 3)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 7)
    monkeypatch.setattr(simulator, "_advance_block", poisoned)
    with pytest.raises(ResourceCapError, match=r"^non-finite state in steps 15-21 of replicas 3-5 "):
        run(MODEL, IntegratorConfig("baoab", 0.01), 8, 0.21, 0)
    assert calls == [3, 3, 3, 3, 3, 3]


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
    gens = [[Philox(key=k) for k in row] for row in _stream_keys(seed, _DOMAIN_DYNAMICS, replicas, labels)]
    streams = NoiseStreams(seed, replicas, labels, d)
    for _ in range(2):  # the second block continues every stream
        got = streams.normals(n_steps)
        assert got.tobytes() == reference_block(gens).tobytes()


def test_normals_of_zero_steps_are_empty_and_advance_nothing():
    streams = NoiseStreams(4, [0, 1, 2], [0, 5], 2)
    empty = streams.normals(0)
    assert empty.shape == (3, 0, 2, 2)
    assert streams.normals(3).tobytes() == NoiseStreams(4, [0, 1, 2], [0, 5], 2).normals(3).tobytes()


def test_normals_reject_negative_steps():
    streams = NoiseStreams(4, [0, 1], [0], 1)
    with pytest.raises(InvalidSpecError, match="n_steps must be >= 0"):
        streams.normals(-1)
    assert streams.normals(2).tobytes() == NoiseStreams(4, [0, 1], [0], 1).normals(2).tobytes()


@pytest.mark.parametrize("replicas, labels", [([], [0, 1]), ([0, 1], [])])
def test_streams_reject_an_empty_replica_or_label_list(replicas, labels):
    with pytest.raises(InvalidSpecError, match="at least one replica and one label"):
        NoiseStreams(4, replicas, labels, 1)


@pytest.mark.parametrize("workers", [0, 2])
def test_normals_of_one_step_are_contiguous(workers):
    # the block is stored step-major, so the integrator reads each step's
    # normals as one contiguous run, with or without a pool
    streams = NoiseStreams(5, range(7), [0, 3, 1], 2)
    with ThreadPoolExecutor(workers) if workers else nullcontext() as pool:
        for n_steps in (6, 1):
            block = streams.normals(n_steps, pool)
            assert block.shape == (7, n_steps, 3, 2)
            assert all(block[:, k].flags.c_contiguous for k in range(n_steps))


def philox_reference(keys, n_words):
    return np.array([Philox(key=k).random_raw(n_words) for k in keys], dtype=np.uint64).reshape(-1, n_words)


@pytest.mark.parametrize("n_words", range(1, 10))
def test_philox_words_match_numpy(n_words):
    # up to three blocks of four words; the largest seed, replica and label
    # in every value of the two domain bits, and random full-width keys
    keys = [_stream_keys(2**64 - 1, domain, [0, 2**31 - 1], [0, 2**31 - 1]).reshape(-1, 2) for domain in range(4)]
    keys.append(np.random.default_rng(n_words).integers(0, 2**64, size=(16, 2), dtype=np.uint64))
    keys = np.concatenate(keys)
    assert _philox_words(keys, n_words).tobytes() == philox_reference(keys, n_words).tobytes()


def test_philox_words_span_several_slabs():
    # one full slab of _SLAB_WORDS keys and a short second one
    keys = _stream_keys(31, _DOMAIN_INIT_VEL, range(_SLAB_WORDS // 4 + 2), range(4)).reshape(-1, 2)
    assert keys.shape[0] == _SLAB_WORDS + 8
    assert _philox_words(keys, 5).tobytes() == philox_reference(keys, 5).tobytes()


def test_stream_keys_match_scalar_layout():
    seed, replicas, labels = 2**64 + 17, [0, 9, 2**31 - 1], [4, 2**31 - 1]
    keys = _stream_keys(seed, _DOMAIN_INIT_VEL, replicas, labels)
    assert keys.shape == (3, 2, 2) and keys.dtype == np.uint64
    for i, r in enumerate(replicas):
        for j, lab in enumerate(labels):
            assert keys[i, j].tolist() == [17, (_DOMAIN_INIT_VEL << 62) | (r << 31) | lab]


@pytest.mark.parametrize("replicas, labels", [([2**31], [0]), ([0], [-1]), ([0, 1], [0, 2**31])])
def test_stream_keys_reject_more_than_31_bits(replicas, labels):
    with pytest.raises(InvalidSpecError, match="31 bits"):
        _stream_keys(1, _DOMAIN_DYNAMICS, replicas, labels)


@pytest.mark.parametrize("R, N, d", [(7, 3, 2), (250, 32, 1)])
@pytest.mark.parametrize("domain", [_DOMAIN_INIT_POS, _DOMAIN_INIT_VEL])
def test_init_normals_match_per_stream(R, N, d, domain):
    # the per-stream draw: a fresh Philox per (replica, label) and d words
    seed, replicas, labels = 21, list(range(4, 4 + R)), list(range(N))[::-1]
    ref = np.empty((R, N, d))
    for i, r in enumerate(replicas):
        for j, lab in enumerate(labels):
            key = np.array([seed, (domain << 62) | (r << 31) | lab], dtype=np.uint64)
            words = Philox(key=key).random_raw(d)
            ref[i, j] = ndtri((words >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54)
    assert _init_normals(seed, domain, replicas, labels, d).tobytes() == ref.tobytes()


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


def test_trajectories_chunk_invariant(monkeypatch):
    kw = dict(observables=("mean_position",), stride=10)
    r1 = run(MODEL, IntegratorConfig("baoab", 0.01), 10, 0.5, 42, **kw)
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 3)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 7)
    r2 = run(MODEL, IntegratorConfig("baoab", 0.01), 10, 0.5, 42, **kw)
    assert np.array_equal(r1.final_state.positions, r2.final_state.positions)
    assert np.array_equal(r1.final_state.velocities, r2.final_state.velocities)


# ---------------------------------------------------------------------------
# replica slabs on threads
# ---------------------------------------------------------------------------

def _bump(d, amplitude=0.5):
    return PotentialSpec("gaussian_bump", {"amplitude": amplitude, "width": 1.0, "sign": "attractive"},
                         dim=d, role="interaction")


def _double_well(d):
    return PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=d)


def _record_pools(monkeypatch) -> list:
    """Swap the simulator's thread pool for one that records its worker count."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("model, scheme", [
    (ModelConfig(N=5, d=1, U=_double_well(1), W=_bump(1)), "baoab"),
    (ModelConfig(N=4, d=2, U=_double_well(2), W=_bump(2)), "euler_maruyama"),
])
def test_outputs_do_not_depend_on_thread_count(model, scheme, monkeypatch):
    # a grain of one pair entry splits every chunk into one slab per thread,
    # but never into more slabs than replicas: chunks of 7, 7 and 3
    # replicas, slabs of 3+4, 2+2+3 (and 1+1+1) or 1+2+2+2 (and 1+1+1)
    sizes = _record_pools(monkeypatch)
    monkeypatch.setattr(meanfield, "_PAIR_SLAB", 1)
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 7)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 10)
    names = tuple(OBSERVABLES)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the slab threads as finely as possible
    try:
        for threads in (1, 2, 3, 4):
            monkeypatch.setattr(simulator, "_THREADS", threads)
            res = run(model, IntegratorConfig(scheme, 0.01), 17, 0.5, 3,
                      observables=names, stride=3, keep_replica_series=names)
            got[threads] = [res.times.tobytes(), res.final_state.positions.tobytes(),
                            res.final_state.velocities.tobytes()]
            for name in names:
                got[threads] += [res.means[name].tobytes(), res.variances[name].tobytes(),
                                 res.per_replica[name].tobytes()]
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [2, 2, 2, 3, 3, 3, 4, 4, 3]
    assert got[2] == got[1] and got[3] == got[1] and got[4] == got[1]


@pytest.mark.parametrize("W", [None, _bump(1)], ids=["no-interaction", "bump"])
def test_run_bytes_do_not_depend_on_threads_at_the_real_grain(W, monkeypatch):
    # 100 replicas of N = 32 hold three whole slabs of pair work: with the
    # bump the chunk splits into 2 and 3 slabs; without an interaction it
    # advances on this thread and only its noise converts on the pool
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 8)
    model = ModelConfig(N=32, d=1, U=_double_well(1), W=W)
    names = ("mean_position", "kinetic_energy")
    got = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        assert simulator._slab_count(model, 100) == (1 if W is None else min(threads, 3))
        res = run(model, IntegratorConfig("baoab", 0.01), 100, 0.3, 5,
                  observables=names, stride=2, keep_replica_series=names)
        got.append([res.final_state.positions.tobytes(), res.final_state.velocities.tobytes()]
                   + [a[name].tobytes() for name in names for a in (res.means, res.variances, res.per_replica)])
    assert got[1] == got[0] and got[2] == got[0]


def test_slab_count_never_exceeds_the_chunk(monkeypatch):
    # at the real grain one replica of N = 256 holds two slabs of pair work,
    # and a lone replica (here the last chunk of 3) still runs unsplit
    model = ModelConfig(N=256, d=1, U=QUAD, W=_bump(1))
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 2)
    got = []
    for threads in (1, 16):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        assert simulator._slab_count(model, 1) == 1
        res = run(model, IntegratorConfig("baoab", 0.01), 3, 0.02, 0)
        got.append([res.means["mean_position"].tobytes(), res.final_state.positions.tobytes()])
    assert got[1] == got[0]


def test_split_names_the_same_nonfinite_block(monkeypatch):
    # NaN noise for replica 4 in its third block of 7 steps: every thread
    # count names steps 15-21 of chunk 3-5, and the last chunk never starts
    created = []

    class Poisoned(NoiseStreams):
        def __init__(self, seed, replicas, labels, d):
            super().__init__(seed, replicas, labels, d)
            self.replicas, self.blocks = list(replicas), 0
            created.extend(self.replicas)

        def normals(self, n_steps, pool=None):
            out = super().normals(n_steps, pool)
            self.blocks += 1
            if self.blocks == 3 and 4 in self.replicas:
                out[self.replicas.index(4), 0, 0, 0] = np.nan
            return out

    sizes = _record_pools(monkeypatch)
    monkeypatch.setattr(simulator, "NoiseStreams", Poisoned)
    monkeypatch.setattr(meanfield, "_PAIR_SLAB", 1)
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 3)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 7)
    model = ModelConfig(N=3, d=1, U=QUAD, W=_bump(1))
    for threads in (1, 2, 3):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        created.clear()
        with pytest.raises(ResourceCapError, match=r"^non-finite state in steps 15-21 of replicas 3-5 "):
            run(model, IntegratorConfig("baoab", 0.01), 8, 0.21, 0)
        assert sorted(created) == list(range(6))
    assert sizes == [2, 2, 3, 3]


def test_split_keeps_the_callers_errstate(monkeypatch):
    # the slabs run in copies of the caller's context, so an overflow raises
    # under np.errstate(over="raise") on any thread as it does inline
    monkeypatch.setattr(meanfield, "_PAIR_SLAB", 1)
    model = ModelConfig(N=2, d=1, U=_double_well(1), W=_bump(1))
    for threads in (1, 2):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run(model, IntegratorConfig("baoab", 0.1), 4, 100.0, 0, init=InitSpec(position_offset=20.0))


def test_light_chunk_advances_on_the_calling_thread(monkeypatch):
    # without a pair force the whole chunk of 8 replicas advances on this
    # thread, and only its noise converts on the pool of 4
    sizes = _record_pools(monkeypatch)
    blocks = []

    def recording(model, integrator, x, v, noise, callback=None):
        blocks.append((threading.get_ident(), x.shape[0]))
        return _advance_block(model, integrator, x, v, noise, callback)

    monkeypatch.setattr(simulator, "_advance_block", recording)
    monkeypatch.setattr(meanfield, "_PAIR_SLAB", 1)
    monkeypatch.setattr(simulator, "_THREADS", 4)
    for W in (None, _bump(1, amplitude=0.0)):
        run(ModelConfig(N=3, d=1, U=QUAD, W=W), IntegratorConfig("baoab", 0.01), 8, 0.1, 0)
    assert sizes == [4, 4]
    assert blocks == [(threading.get_ident(), 8)] * 2
    # the same settings split a model with a pair force across the workers
    blocks.clear()
    run(ModelConfig(N=3, d=1, U=QUAD, W=_bump(1)), IntegratorConfig("baoab", 0.01), 8, 0.1, 0)
    assert sizes == [4, 4, 4]
    assert sorted(n for _, n in blocks) == [2, 2, 2, 2]
    assert threading.get_ident() not in {t for t, _ in blocks}


@pytest.mark.parametrize("R", [1, 2, 3, 7])
def test_pooled_normals_match_plain(R, monkeypatch):
    # a pool splits the block into min(workers, R) replica ranges; a slab of
    # two replicas per pass makes a range span several conversion slabs
    monkeypatch.setattr(simulator, "_SLAB_WORDS", 2 * 3 * 5 * 2)
    plain = NoiseStreams(5, range(R), [0, 4, 1], 2)
    want = [plain.normals(5).tobytes(), plain.normals(5).tobytes()]
    submits = []

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            submits.append(1)
            return super().submit(fn, *args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the ranges as finely as possible
    try:
        for workers in (1, 2, 3, 4):
            streams = NoiseStreams(5, range(R), [0, 4, 1], 2)
            submits.clear()
            with Pool(workers) as pool:
                assert [streams.normals(5, pool).tobytes(), streams.normals(5, pool).tobytes()] == want
            assert len(submits) == 2 * min(workers, R)  # one range per worker, none empty
    finally:
        sys.setswitchinterval(interval)


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
    want = []
    reference = _two_gather_fit(t, per, 0.0, window, recording(want))
    for threads in (1, 2, 3, 4):
        # the moments build on threads, the refits follow in resample order
        got = []
        monkeypatch.setattr(simulator, "_THREADS", threads)
        monkeypatch.setattr(simulator, "_fit_lambda", recording(got))
        fit = fit_decay(t, per, 0.0, "x", window=window)
        assert fit is not None
        assert len(got) == 201 and got == want  # every resample's signal and noise floor
        assert repr(fit.to_json()) == repr(reference)


@pytest.mark.parametrize("R", [2, 127, 128, 129, 2000])
def test_resample_moments_match_the_full_gather(R):
    # values over many magnitudes, so every change of summation order shows
    rng = np.random.default_rng(R)
    for width in (2, 3, 8, 9, 17, 401, 1001):
        per = rng.normal(size=(R, width)) * 10.0 ** rng.integers(-8, 9, size=(R, 1))
        idx = rng.integers(0, R, size=R)
        bmean, bvar = simulator._resample_moments(per, idx)
        b = per[idx]
        assert bmean.tobytes() == b.mean(axis=0).tobytes()
        assert bvar.tobytes() == b.var(axis=0).tobytes()


_FIT_BY_THREADS = """
import numpy as np
from langcert import simulator
rng = np.random.default_rng(4)
t = np.arange(0, 10.0, 0.02)
per = 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 0.2, size=(300, t.size))
for threads in (1, 2, 3, 4):
    simulator._THREADS = threads
    print(repr(simulator.fit_decay(t, per, 0.0, "x").to_json()))
"""


def test_fit_decay_independent_of_threads_and_blas_threads():
    # BLAS threads are fixed when numpy loads, so each setting gets its own process
    outs = []
    for blas in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        env["PYTHONPATH"] = os.pathsep.join([str(Path(simulator.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", _FIT_BY_THREADS], env=env,
                              capture_output=True, text=True, check=True)
        outs += proc.stdout.splitlines()
    assert len(outs) == 8 and len(set(outs)) == 1


def test_bootstrap_keeps_the_callers_errstate(monkeypatch):
    # the resample moments build on worker threads in copies of the
    # caller's context, so they see its np.errstate as they would inline
    seen = []
    original = simulator._resample_moments

    def resample_moments(per_replica, idx):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return original(per_replica, idx)

    rng = np.random.default_rng(2)
    t = np.arange(0, 10.0, 0.02)
    per = 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 0.2, size=(64, t.size))
    monkeypatch.setattr(simulator, "_resample_moments", resample_moments)
    monkeypatch.setattr(simulator, "_THREADS", 2)
    with np.errstate(over="raise"):
        fit_decay(t, per, 0.0, "x")
    assert [over for _, over in seen] == ["raise"] * 200
    assert threading.get_ident() not in {thread for thread, _ in seen}


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
