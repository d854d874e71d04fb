import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from langcert import simulator
from langcert.errors import InvalidSpecError, LangcertError, MissingConstantError, ResourceCapError
from langcert.meanfield import ModelConfig
from langcert.potentials import PotentialSpec
from langcert.simulator import (
    NoiseStreams,
    IntegratorConfig,
    InitSpec,
    OBSERVABLES,
    fit_decay,
    n_sweep,
    run,
    _SLAB_WORDS,
    _advance_block,
    _fit_lambda,
    _oscillation_spacing,
    _stream_keys,
    _window_max,
)

QUAD = PotentialSpec("quadratic", {"coef": 1.0}, dim=1)
MODEL = ModelConfig(N=2, d=1, U=QUAD)
OMEGA = math.sqrt(3) / 2  # oscillation frequency of the unit-curvature kinetic mean


@pytest.fixture(autouse=True)
def no_worker_outlives_the_test():
    # run joins every slab worker it forks, on every exit path
    yield
    assert multiprocessing.active_children() == []


def initial_state(model, replicas, seed, init=None, labels=None):
    # the state run starts from: what a zero horizon leaves
    return run(model, IntegratorConfig(), replicas, 0.0, seed, init, labels=labels).final_state


def stream_initial_state(replicas, labels, d, seed, init):
    # the first two steps of every (replica, label) stream, scaled and
    # offset as ``init`` says: positions from step 0, velocities from step 1
    z = NoiseStreams(seed, range(replicas), labels, d).normals(2)
    pos = z[:, 0] * init.position_spread
    pos[..., 0] += init.position_offset
    return pos, z[:, 1]


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


@pytest.mark.parametrize("kwargs, name", [
    ({"position_offset": math.nan}, "position_offset"),
    ({"position_offset": -math.inf}, "position_offset"),
    ({"position_spread": math.inf}, "position_spread"),
    ({"position_offset": 2.0, "position_spread": math.nan}, "position_spread"),
])
def test_init_spec_rejects_non_finite_fields(kwargs, name):
    # a non-finite start used to end in the run's non-finite-state error,
    # which asks for a smaller dt
    with pytest.raises(InvalidSpecError, match=f"^{name} must be finite, got "):
        InitSpec(**kwargs)


@pytest.mark.parametrize("name", ["position_offset", "position_spread"])
def test_init_spec_rejects_bools(name):
    # True used to be read as 1.0
    with pytest.raises(InvalidSpecError, match=f"^{name} must be a number, got True$"):
        InitSpec(**{name: True})


@pytest.mark.parametrize("name, value", [("replicas", 2.5), ("replicas", True), ("stride", True), ("stride", 2.0),
                                         ("replicas", 0), ("stride", 0)])
def test_run_rejects_counts_that_are_not_integers(name, value):
    # a float used to end in a bare TypeError, and stride=True ran as stride 1
    with pytest.raises(InvalidSpecError, match=re.escape(f"{name} must be an integer >= 1, got {value!r}")):
        run(MODEL, IntegratorConfig("baoab", 1e-2), horizon=0.1, master_seed=0, **{"replicas": 1, name: value})


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
    gens = [[Philox(key=k) for k in row] for row in _stream_keys(seed, replicas, labels)]
    streams = NoiseStreams(seed, replicas, labels, d)
    for _ in range(2):  # the second block continues every stream
        got = streams.normals(n_steps)
        assert got.tobytes() == reference_block(gens).tobytes()


class _FixedWords:
    """A stand-in for a stream's Philox generator that hands out given words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, n):
        out, self.words = self.words[:n], self.words[n:]
        return out


def _old_normals(words):
    # the conversion before the top word was capped
    k = np.asarray(words, dtype=np.uint64) >> np.uint64(11)
    return ndtri(k.astype(np.float64) * 2.0**-53 + 2.0**-54)


def test_top_noise_words_stay_finite():
    # a word whose top 53 bits are all ones mapped to u = 1 and a normal of
    # +inf; it now takes the normal of the word below, and every other word
    # keeps its bytes
    top = [2**64 - 1, (2**53 - 1) << 11]
    near = [(2**53 - 2) << 11, ((2**53 - 2) << 11) | 0x7FF, (2**53 - 3) << 11, (2**52) << 11,
            2**63, 0, 2**11 - 1, 2**11]
    streams = NoiseStreams(3, [0], [0], 1)
    streams._gens = [[_FixedWords(top + near)]]
    got = streams.normals(len(top) + len(near))[0, :, 0, 0]
    assert np.isinf(_old_normals(top)).all()
    assert np.isfinite(got).all()
    assert got[:2].tobytes() == _old_normals(near[:1] * 2).tobytes()
    assert got[2:].tobytes() == _old_normals(near).tobytes()
    # a seeded block of every stream, converted the old way
    seed, replicas, labels = 8, [0, 4, 9], [1, 0]
    gens = [[Philox(key=k) for k in row] for row in _stream_keys(seed, replicas, labels)]
    want = np.stack([np.stack([_old_normals(g.random_raw(300 * 2)).reshape(300, 2) for g in row], axis=1)
                     for row in gens])
    assert NoiseStreams(seed, replicas, labels, 2).normals(300).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("drawn", [0, 2])
def test_normals_of_one_step_are_contiguous(drawn):
    # the block is stored step-major, so the integrator reads each step's
    # normals as one contiguous run, also after the two steps of the
    # initial state have been drawn
    streams = NoiseStreams(5, range(7), [0, 3, 1], 2)
    streams.normals(drawn)
    for n_steps in (6, 1):
        block = streams.normals(n_steps)
        assert block.shape == (7, n_steps, 3, 2)
        assert all(block[:, k].flags.c_contiguous for k in range(n_steps))


def test_stream_keys_match_scalar_layout():
    seed, replicas, labels = 2**64 - 1, [0, 9, 2**31 - 1], [4, 2**31 - 1]
    keys = _stream_keys(seed, replicas, labels)
    assert keys.shape == (3, 2, 2) and keys.dtype == np.uint64
    for i, r in enumerate(replicas):
        for j, lab in enumerate(labels):
            assert keys[i, j].tolist() == [seed, (r << 31) | lab]


BAD_SEEDS = [2**64, -1, True, 1.5]
SEED_MESSAGE = r"^master_seed must be an integer in \[0, 2\*\*64\), got "


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_seeds_outside_the_key_word_are_rejected(seed):
    # no seed outside the 64-bit key word may alias one inside it (2**64 as 0, -1 as 2**64 - 1)
    with pytest.raises(InvalidSpecError, match=SEED_MESSAGE):
        _stream_keys(seed, [0], [0])
    with pytest.raises(InvalidSpecError, match=SEED_MESSAGE):
        NoiseStreams(seed, [0], [0], 1)
    with pytest.raises(InvalidSpecError, match=SEED_MESSAGE):
        run(MODEL, IntegratorConfig("baoab", 1e-2), 1, 0.1, seed)


@pytest.mark.parametrize("replicas, labels", [([2**31], [0]), ([0], [-1]), ([0, 1], [0, 2**31])])
def test_stream_keys_reject_more_than_31_bits(replicas, labels):
    with pytest.raises(InvalidSpecError, match="31 bits"):
        _stream_keys(1, replicas, labels)


@pytest.mark.parametrize("R, N, d", [(7, 3, 2), (250, 32, 1)])
def test_initial_state_is_the_first_two_steps_of_each_stream(R, N, d):
    init = InitSpec(position_offset=1.5, position_spread=0.25)
    labels = list(range(N))[::-1]
    st = initial_state(ModelConfig(N=N, d=d, U=PotentialSpec("quadratic", {"coef": 1.0}, dim=d)),
                       R, 21, init, labels=labels)
    pos, vel = stream_initial_state(R, labels, d, 21, init)
    assert st.positions.tobytes() == pos.tobytes()
    assert st.velocities.tobytes() == vel.tobytes()


def test_initial_state_of_a_particle_does_not_depend_on_N_or_labels():
    # replica r, label i starts in one state at N = 2 and N = 8, and a
    # permutation of the labels permutes the particles
    st2 = initial_state(ModelConfig(N=2, d=2, U=_double_well(2)), 5, 9)
    st8 = initial_state(ModelConfig(N=8, d=2, U=_double_well(2)), 5, 9)
    perm = [7, 1, 0, 5, 2, 6, 3, 4]
    stp = initial_state(ModelConfig(N=8, d=2, U=_double_well(2)), 5, 9, labels=perm)
    for a, b in ((st2.positions, st8.positions), (st2.velocities, st8.velocities)):
        assert a.tobytes() == b[:, :2].tobytes()
    for a, b in ((stp.positions, st8.positions), (stp.velocities, st8.velocities)):
        assert a.tobytes() == b[:, perm].tobytes()


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3], [0, 0, 1]], ids=["short", "long", "repeated"])
def test_run_and_initial_state_need_N_distinct_labels(labels):
    # a short list died in run on a numpy broadcast; a repeated label gave
    # two particles one stream
    model = ModelConfig(N=3, d=1, U=QUAD)
    message = re.escape(f"labels must be 3 distinct particle labels, got {labels}")
    for horizon in (0.1, 0.0):
        with pytest.raises(InvalidSpecError, match=message):
            run(model, IntegratorConfig("baoab", 0.01), 4, horizon, 5, labels=labels)


def test_run_reports_its_step_count():
    # 0.3 / 0.1 is 2.9999999999999996: run rounds it to 3 steps, once
    res = run(MODEL, IntegratorConfig("baoab", 0.1), 2, 0.3, 1)
    assert res.n_steps == 3 and res.times.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_starts_from_initial_state(threads, monkeypatch):
    # every replica slab draws its own initial state: a zero horizon leaves
    # the first two steps of each stream, whatever the chunks and slabs
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 0)
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 4)
    monkeypatch.setattr(simulator, "_THREADS", threads)
    model = ModelConfig(N=3, d=2, U=_double_well(2), W=_bump(2))
    init = InitSpec(position_offset=-1.0, position_spread=2.0)
    pos, vel = stream_initial_state(11, [2, 0, 1], 2, 4, init)
    res = run(model, IntegratorConfig("baoab", 0.01), 11, 0.0, 4, init=init, labels=[2, 0, 1])
    assert res.final_state.positions.tobytes() == pos.tobytes()
    assert res.final_state.velocities.tobytes() == vel.tobytes()
    assert sizes == ([] if threads == 1 else [threads] * 3)


def test_dynamics_streams_do_not_depend_on_init():
    # without a force the velocities do not see the positions, so two
    # initial position laws give the same velocity trajectories
    model = ModelConfig(N=2, d=1, U=PotentialSpec("quadratic", {"coef": 0.0}, dim=1))
    names = ("mean_velocity", "kinetic_energy")
    got = []
    for init in (InitSpec(), InitSpec(position_offset=-3.0, position_spread=0.1)):
        res = run(model, IntegratorConfig("baoab", 0.05), 6, 2.0, 8, init=init,
                  observables=names, keep_replica_series=names)
        got.append([res.final_state.velocities.tobytes()] + [res.per_replica[n].tobytes() for n in names])
    assert got[0] == got[1]


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
# replica slabs in worker processes
# ---------------------------------------------------------------------------

def _bump(d, amplitude=0.5):
    return PotentialSpec("gaussian_bump", {"amplitude": amplitude, "width": 1.0, "sign": "attractive"},
                         dim=d, role="interaction")


def _double_well(d):
    return PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=d)


def _record_splits(monkeypatch) -> list:
    """Record the worker count of every job that forks its parts."""
    sizes = []
    original = simulator._forked

    def forked(job, parts, what):
        sizes.append(len(parts))
        return original(job, parts, what)

    monkeypatch.setattr(simulator, "_forked", forked)
    return sizes


def _record_blocks(monkeypatch, path):
    """Make ``_advance_block`` append its process id and replica count to
    ``path``, from whichever process advances the block; returns a reader."""
    def recording(model, integrator, x, v, noise, callback=None):
        with open(path, "a") as f:
            f.write(f"{os.getpid()} {x.shape[0]}\n")
        return _advance_block(model, integrator, x, v, noise, callback)

    monkeypatch.setattr(simulator, "_advance_block", recording)

    def read():
        lines = path.read_text().split() if path.exists() else []
        path.unlink(missing_ok=True)
        return [(int(pid), int(n)) for pid, n in zip(lines[::2], lines[1::2])]

    return read


@pytest.mark.parametrize("parts, in_order", [
    ([range(0, 66), range(66, 133), range(133, 200)], False),
    ([range(0, 200, 3), range(1, 200, 3), range(2, 200, 3)], True),
], ids=["contiguous", "dealt"])
def test_forked_gathers_parts_of_any_length(parts, in_order):
    # parts of 66, 67 and 67 items, or of 67, 67 and 66 dealt in turn: every
    # item arrives once and each part's in order; dealt parts (as _split
    # makes them) arrive in element order.  Lockstep rounds raised
    # "the worker for x 0-65 exited with code 0" on the first
    def job(part):
        yield from part

    got = list(simulator._forked(job, parts, "x"))
    assert sorted(got) == list(range(200))
    for part in parts:
        assert [i for i in got if i in part] == list(part)
    assert (got == list(range(200))) == in_order


@pytest.mark.parametrize("threads", [1, 3])
def test_split_deals_items_in_turn(threads, monkeypatch):
    monkeypatch.setattr(simulator, "_THREADS", threads)
    parts = simulator._split(range(200), simulator._SPLIT_WORK)
    assert parts == [range(p, 200, threads) for p in range(threads)]
    assert simulator._split(range(200), simulator._SPLIT_WORK - 1) == [range(200)]


@pytest.mark.parametrize("model, scheme", [
    (ModelConfig(N=5, d=1, U=_double_well(1), W=_bump(1)), "baoab"),
    (ModelConfig(N=4, d=2, U=_double_well(2), W=_bump(2)), "euler_maruyama"),
])
def test_outputs_do_not_depend_on_thread_count(model, scheme, monkeypatch):
    # with no work threshold every chunk splits into one slab worker per
    # usable core (_THREADS), but never into more slabs than replicas:
    # chunks of 7, 7 and 3 replicas, replicas dealt in turn to slabs of 4+3,
    # 3+2+2 (and 1+1+1) or 2+2+2+1 (and 1+1+1); one core advances every
    # chunk in this process
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 0)
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 7)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 10)
    names = tuple(OBSERVABLES)
    got = {}
    for threads in (1, 2, 3, 4):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        res = run(model, IntegratorConfig(scheme, 0.01), 17, 0.5, 3,
                  observables=names, stride=3, keep_replica_series=names)
        assert multiprocessing.active_children() == []
        got[threads] = [res.times.tobytes(), res.final_state.positions.tobytes(),
                        res.final_state.velocities.tobytes()]
        for name in names:
            got[threads] += [res.means[name].tobytes(), res.variances[name].tobytes(),
                             res.per_replica[name].tobytes()]
    assert sizes == [2, 2, 2, 3, 3, 3, 4, 4, 3]
    assert got[2] == got[1] and got[3] == got[1] and got[4] == got[1]


@pytest.mark.parametrize("W", [None, _bump(1)], ids=["no-interaction", "bump"])
def test_run_bytes_do_not_depend_on_threads_at_the_real_grain(W, monkeypatch):
    # 100 replicas of N = 32 over 30 steps: with the bump the pair entries
    # pass the work threshold and the chunk splits into 2 and 3 workers;
    # without an interaction its 96 000 particle-steps advance in this process
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 8)
    model = ModelConfig(N=32, d=1, U=_double_well(1), W=W)
    names = ("mean_position", "kinetic_energy")
    got = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        per_step = 32 if W is None else 32**2
        assert len(simulator._split(range(100), 100 * 30 * per_step)) == (1 if W is None else threads)
        res = run(model, IntegratorConfig("baoab", 0.01), 100, 0.3, 5,
                  observables=names, stride=2, keep_replica_series=names)
        got.append([res.final_state.positions.tobytes(), res.final_state.velocities.tobytes()]
                   + [a[name].tobytes() for name in names for a in (res.means, res.variances, res.per_replica)])
    assert sizes == ([] if W is None else [2, 3])
    assert got[1] == got[0] and got[2] == got[0]


def test_slab_count_never_exceeds_the_chunk(monkeypatch):
    # one replica of N = 256 holds 65 536 pair entries per step: at 16 cores
    # a chunk of 2 over 20 steps passes the threshold and splits in 2, and a
    # lone replica (here the last chunk of 3) still runs unsplit
    sizes = _record_splits(monkeypatch)
    model = ModelConfig(N=256, d=1, U=QUAD, W=_bump(1))
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 2)
    got = []
    for threads in (1, 16):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        assert len(simulator._split(range(2), 2 * 20 * 256**2)) == min(threads, 2)
        assert simulator._split(range(5, 6), 10**6 * 256**2) == [range(5, 6)]
        res = run(model, IntegratorConfig("baoab", 0.01), 3, 0.2, 0)
        got.append([res.means["mean_position"].tobytes(), res.final_state.positions.tobytes()])
    assert sizes == [2]
    assert got[1] == got[0]


def test_split_names_the_same_nonfinite_block(monkeypatch, tmp_path):
    # NaN noise for replica 4 in its third block of 7 steps: every worker
    # count names steps 15-21 of chunk 3-5, and the last chunk never starts
    created = tmp_path / "created"

    class Poisoned(NoiseStreams):
        def __init__(self, seed, replicas, labels, d):
            super().__init__(seed, replicas, labels, d)
            self.replicas, self.blocks = list(replicas), 0
            with open(created, "a") as f:  # also from a worker process
                f.write("".join(f"{r}\n" for r in self.replicas))

        def normals(self, n_steps):
            out = super().normals(n_steps)
            self.blocks += 1
            if self.blocks == 4 and 4 in self.replicas:  # block 1 is the initial draw
                out[self.replicas.index(4), 0, 0, 0] = np.nan
            return out

    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "NoiseStreams", Poisoned)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 0)
    monkeypatch.setattr(simulator, "_REPLICA_CHUNK", 3)
    monkeypatch.setattr(simulator, "_TIME_BLOCK", 7)
    model = ModelConfig(N=3, d=1, U=QUAD, W=_bump(1))
    for threads in (1, 2, 3):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        with pytest.raises(ResourceCapError, match=r"^non-finite state in steps 15-21 of replicas 3-5 "):
            run(model, IntegratorConfig("baoab", 0.01), 8, 0.21, 0)
        assert multiprocessing.active_children() == []
        assert sorted(map(int, created.read_text().split())) == list(range(6))
        created.unlink()
    assert sizes == [2, 2, 3, 3]


def test_split_keeps_the_callers_errstate(monkeypatch):
    # fork carries the caller's np.errstate into every worker, so an
    # overflow raises FloatingPointError in a worker as it does inline, and
    # the parent raises it again
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 0)
    model = ModelConfig(N=2, d=1, U=_double_well(1), W=_bump(1))
    for threads in (1, 2):
        monkeypatch.setattr(simulator, "_THREADS", threads)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run(model, IntegratorConfig("baoab", 0.1), 4, 100.0, 0, init=InitSpec(position_offset=20.0))
        assert multiprocessing.active_children() == []
    assert sizes == [2]


def test_worker_exception_is_raised_again_with_its_type(monkeypatch):
    # an exception the parent could not rebuild from its pickle arrives as
    # a LangcertError naming its type and message
    def failing(model, integrator, x, v, noise, callback=None):
        if x.shape[0] == 4:
            raise MissingConstantError("K", "supply K")
        return _advance_block(model, integrator, x, v, noise, callback)

    monkeypatch.setattr(simulator, "_advance_block", failing)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 0)
    monkeypatch.setattr(simulator, "_THREADS", 2)
    with pytest.raises(LangcertError, match=r"^MissingConstantError: missing constant 'K': supply K$"):
        run(ModelConfig(N=2, d=1, U=QUAD), IntegratorConfig("baoab", 0.01), 7, 0.1, 0)


@pytest.mark.parametrize("stage, slab_size", [
    ("_draw_init", lambda streams, init: len(streams._gens)),
    ("_advance_block", lambda model, integrator, x, *rest, **kwargs: x.shape[0]),
], ids=["before-sending", "after-the-first-rows"])
def test_a_worker_that_exits_makes_run_raise(stage, slab_size, monkeypatch):
    # the worker for replicas 0, 2, 4, 6 exits with code 3, before sending anything
    # (while drawing its initial state) or after its first rows; run raises
    # at once instead of waiting for it, and joins the other worker
    parent = os.getpid()
    original = getattr(simulator, stage)

    def exiting(*args, **kwargs):
        if os.getpid() != parent and slab_size(*args, **kwargs) == 4:
            os._exit(3)
        return original(*args, **kwargs)

    def hung(signum, frame):
        raise TimeoutError("run waits for a worker that has exited")

    monkeypatch.setattr(simulator, stage, exiting)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 0)
    monkeypatch.setattr(simulator, "_THREADS", 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(LangcertError, match=r"^the worker for replicas 0-6 step 2 exited with code 3 "):
            run(ModelConfig(N=2, d=1, U=QUAD), IntegratorConfig("baoab", 0.01), 7, 0.1, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_light_chunk_advances_on_the_calling_thread(monkeypatch, tmp_path):
    # at a threshold of 500, 8 replicas of N = 3 over 10 steps hold 240
    # particle-steps without an interaction and advance on this thread of
    # this process; with a pair force they hold 720 pair entries and split
    # into one worker process per core
    read = _record_blocks(monkeypatch, tmp_path / "blocks")
    blocks = []
    original = simulator._advance_block

    def on_thread(*args, **kwargs):
        blocks.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, "_advance_block", on_thread)
    monkeypatch.setattr(simulator, "_SPLIT_WORK", 500)
    monkeypatch.setattr(simulator, "_THREADS", 4)
    for W in (None, _bump(1, amplitude=0.0)):
        run(ModelConfig(N=3, d=1, U=QUAD, W=W), IntegratorConfig("baoab", 0.01), 8, 0.1, 0)
    assert read() == [(os.getpid(), 8)] * 2
    assert blocks == [threading.get_ident()] * 2
    run(ModelConfig(N=3, d=1, U=QUAD, W=_bump(1)), IntegratorConfig("baoab", 0.01), 8, 0.1, 0)
    workers = read()
    assert sorted(n for _, n in workers) == [2, 2, 2, 2]
    assert len({pid for pid, _ in workers} | {os.getpid()}) == 5
    assert blocks == [threading.get_ident()] * 2  # no block ran in this process


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
            assert running(s, w).tobytes() == _window_max(s, w, w).tobytes()
            assert forward(s, w).tobytes() == _window_max(s, 0, w).tobytes()
    s = rng.normal(size=400)
    for w in (1, 2, 7, 50):
        assert running(s, w).tobytes() == _window_max(s, w, w).tobytes()
        assert forward(s, w).tobytes() == _window_max(s, 0, w).tobytes()


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
            "r_squared": r2, "window": (window[0], window[1]), "observable_id": "x",
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
        # the moments build in worker processes, the refits follow here in resample order
        got = []
        monkeypatch.setattr(simulator, "_THREADS", threads)
        monkeypatch.setattr(simulator, "_fit_lambda", recording(got))
        fit = fit_decay(t, per, 0.0, "x", window=window)
        assert fit is not None
        assert len(got) == 201 and got == want  # every resample's signal and noise floor
        assert repr(asdict(fit)) == repr(reference)


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


@pytest.mark.parametrize("R", [2, 127, 128, 129, 2000])
def test_point_moments_match_the_whole_series(R):
    # the point estimate's moments come from copies of row blocks, with the
    # bytes of ndarray.mean/var over the whole series, which stays as it was
    rng = np.random.default_rng(R + 1)
    for width in (2, 3, 8, 9, 17, 401, 1001):
        per = rng.normal(size=(R, width)) * 10.0 ** rng.integers(-8, 9, size=(R, 1))
        kept = per.copy()
        mean, var = simulator._point_moments(per)
        assert mean.tobytes() == per.mean(axis=0).tobytes()
        assert var.tobytes() == per.var(axis=0).tobytes()
        assert per.tobytes() == kept.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_fit_decay_holds_no_copy_of_the_series(threads, monkeypatch):
    # the point moments take row blocks, the index vectors are drawn one
    # at a time where they are used and each resample is refitted as its
    # moments arrive, so fit_decay's own allocations peak well below the
    # series (1.005x it with a full-size variance temporary and all 200
    # index vectors drawn up front; 0.33x inline and 0.38x on 2 workers
    # with all 200 resamples' moments gathered before the first refit)
    rng = np.random.default_rng(9)
    t = np.arange(1001) * 0.01
    per = 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 1.0, size=(2000, t.size))
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_THREADS", threads)
    tracemalloc.start()
    try:
        fit = fit_decay(t, per, 0.0, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit is not None
    assert sizes == ([2] if threads == 2 else [])
    assert peak <= 0.2 * per.nbytes


_T10 = np.arange(10) * 0.1


@pytest.mark.parametrize("per", [np.ones(10), np.ones((2, 3, 10))], ids=["1d", "3d"])
def test_fit_decay_rejects_a_series_that_is_not_2d(per):
    with pytest.raises(InvalidSpecError, match=r"^per_replica must be 2-D .*got shape \("):
        fit_decay(_T10, per)


def test_fit_decay_rejects_a_series_without_rows():
    # numpy warned "Mean of empty slice" here
    with pytest.raises(InvalidSpecError, match=r"^per_replica must be 2-D with at least one row .*\(0, 10\)"):
        fit_decay(_T10, np.ones((0, 10)))


def test_fit_decay_rejects_times_that_are_not_1d():
    with pytest.raises(InvalidSpecError, match=r"^times must be 1-D with one entry per column .*\(10\), got shape \(1, 10\)"):
        fit_decay(_T10[None, :], np.ones((4, 10)))


@pytest.mark.parametrize("n", [9, 11])
def test_fit_decay_rejects_times_that_are_not_one_per_column(n):
    # fewer raised IndexError, more fitted silently
    with pytest.raises(InvalidSpecError, match=rf"^times must be 1-D with one entry per column .*got shape \({n},\)"):
        fit_decay(np.arange(n) * 0.1, np.ones((4, 10)))


@pytest.mark.parametrize("k, value", [(3, math.nan), (0, math.inf), (9, -math.inf), (6, 0.5), (6, 0.4)])
def test_fit_decay_rejects_times_that_are_not_finite_and_increasing(k, value):
    times = _T10.copy()
    times[k] = value  # 0.5 repeats times[5], 0.4 steps back to before it
    with pytest.raises(InvalidSpecError, match="^times must be finite and strictly increasing$"):
        fit_decay(times, np.ones((4, 10)))


@pytest.mark.parametrize("values", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [1e308] * 2],
                         ids=["nan", "inf", "-inf", "inf-inf", "overflow"])
def test_fit_decay_rejects_a_non_finite_column_mean(values):
    # a NaN entry fitted silently; the others now stop before the variance
    # would subtract inf from inf, and the sum's own flags give no warning
    t, per = _decaying_series(64)
    per[17:17 + len(values), 40] = values
    with pytest.raises(InvalidSpecError, match="^per_replica column 40 has a non-finite mean"):
        fit_decay(t, per)


_FIT_BY_THREADS = """
from dataclasses import asdict
import numpy as np
from langcert import simulator
rng = np.random.default_rng(4)
t = np.arange(0, 10.0, 0.02)
per = 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 0.2, size=(300, t.size))
for threads in (1, 2, 3, 4):
    simulator._THREADS = threads
    print(repr(asdict(simulator.fit_decay(t, per, 0.0, "x"))))
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


def _decaying_series(R):
    rng = np.random.default_rng(2)
    t = np.arange(0, 10.0, 0.02)
    return t, 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 0.2, size=(R, t.size))


def test_bootstrap_keeps_the_callers_errstate(monkeypatch, tmp_path):
    # fork carries the caller's np.errstate into every worker, so the
    # resample moments see it as they would inline: 64 replicas of 500
    # records pass the work threshold and split into 2 workers of 100
    path = tmp_path / "moments"
    original = simulator._resample_moments

    def resample_moments(per_replica, idx):
        with open(path, "a") as f:  # from the worker process
            f.write(f"{os.getpid()} {np.geterr()['over']}\n")
        return original(per_replica, idx)

    t, per = _decaying_series(64)
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_resample_moments", resample_moments)
    monkeypatch.setattr(simulator, "_THREADS", 2)
    with np.errstate(over="raise"):
        fit_decay(t, per, 0.0, "x")
    seen = [line.split() for line in path.read_text().splitlines()]
    assert sizes == [2]
    assert [over for _, over in seen] == ["raise"] * 200
    assert len({pid for pid, _ in seen}) == 2 and str(os.getpid()) not in {pid for pid, _ in seen}


def test_bootstrap_worker_exception_is_raised_again_with_its_type(monkeypatch):
    # an overflow under the caller's np.errstate raises FloatingPointError in
    # a worker, and fit_decay raises it again
    parent = os.getpid()
    original = simulator._resample_moments

    def overflowing(per_replica, idx):
        if os.getpid() != parent:
            np.multiply(1e300, 1e300)
        return original(per_replica, idx)

    t, per = _decaying_series(64)
    monkeypatch.setattr(simulator, "_resample_moments", overflowing)
    monkeypatch.setattr(simulator, "_THREADS", 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        fit_decay(t, per, 0.0, "x")


def test_a_bootstrap_worker_that_exits_makes_fit_decay_raise(monkeypatch):
    # every worker exits with code 3 before sending its moments: fit_decay
    # names the first part, resamples 0, 3, ..., 198 of 200 dealt to 3
    parent = os.getpid()
    original = simulator._resample_moments

    def exiting(per_replica, idx):
        if os.getpid() != parent:
            os._exit(3)
        return original(per_replica, idx)

    t, per = _decaying_series(64)
    monkeypatch.setattr(simulator, "_resample_moments", exiting)
    monkeypatch.setattr(simulator, "_THREADS", 3)
    with pytest.raises(LangcertError, match=r"^the worker for resamples 0-198 step 3 exited with code 3 "):
        fit_decay(t, per, 0.0, "x")


def test_a_refit_that_raises_leaves_no_bootstrap_worker(monkeypatch):
    # the first refit raises while both workers are still sending moments:
    # fit_decay closes the gather, which terminates and joins them
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # the point estimate, then the first resample
            raise ArithmeticError("refit failed")
        return _fit_lambda(*args, **kwargs)

    t, per = _decaying_series(64)
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_fit_lambda", failing)
    monkeypatch.setattr(simulator, "_THREADS", 2)
    with pytest.raises(ArithmeticError, match="^refit failed$"):
        fit_decay(t, per, 0.0, "x")
    assert sizes == [2]
    assert multiprocessing.active_children() == []


def test_light_bootstrap_runs_in_the_calling_process(monkeypatch):
    # 40 replicas of 101 records (808 000 < 2**21 over 200 resamples) stay here
    sizes = _record_splits(monkeypatch)
    monkeypatch.setattr(simulator, "_THREADS", 4)
    rng = np.random.default_rng(6)
    t = np.arange(0, 10.1, 0.1)
    per = 2 * np.exp(-0.7 * t)[None, :] + rng.normal(0, 0.05, size=(40, t.size))
    assert fit_decay(t, per, 0.0, "x") is not None
    assert sizes == []


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
                   equilibrium=0.0, stride=5)
    rates = [f.lambda_hat for _, f in fits]
    assert all(f is not None for _, f in fits)
    # identical law across N; fitted windows are harmonized, CIs overlap
    lo = max(f.ci_low for _, f in fits)
    hi = min(f.ci_high for _, f in fits)
    assert lo <= hi


def test_n_sweep_validation():
    with pytest.raises(InvalidSpecError):
        n_sweep(QUAD, None, 1, [4, 2], IntegratorConfig("baoab", 0.01), 4, 1.0, 0)


@pytest.mark.parametrize("Ns, replicas", [([2, 8, 2**62], 4), ([2, 8], 2**62)])
def test_n_sweep_checks_every_count_before_any_run(monkeypatch, Ns, replicas):
    # a count past the 31-bit stream keys is rejected before the first N
    # runs and fits, not after; nothing of that size is allocated
    runs = []
    monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(InvalidSpecError, match="fit in 31 bits"):
        n_sweep(QUAD, None, 1, Ns, IntegratorConfig("baoab", 0.01), replicas, 1.0, 0)
    assert runs == []


@pytest.mark.parametrize("name, value", [("replicas", 2.5), ("stride", 1.5)])
def test_n_sweep_checks_the_counts_before_any_run(monkeypatch, name, value):
    runs = []
    monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(InvalidSpecError, match=re.escape(f"{name} must be an integer >= 1, got {value!r}")):
        n_sweep(QUAD, None, 1, [2, 8], IntegratorConfig("baoab", 0.01), horizon=1.0, master_seed=0,
                **{"replicas": 4, name: value})
    assert runs == []


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_n_sweep_checks_the_seed_before_any_run(monkeypatch, seed):
    runs = []
    monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(InvalidSpecError, match=SEED_MESSAGE):
        n_sweep(QUAD, None, 1, [2, 8], IntegratorConfig("baoab", 0.01), 4, 1.0, seed)
    assert runs == []
