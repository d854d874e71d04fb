"""Ensemble integration of the N-particle kinetic Langevin dynamics

    dx_i = v_i dt,
    dv_i = sqrt(2) dB_i - v_i dt - [grad U(x_i) + (1/N) sum_j grad W(x_i - x_j)] dt,

with friction and noise fixed to this normalization (no temperature knob:
the certificates target exactly this invariant measure).

Noise is derived counter-based from the master seed: every (replica,
particle) pair owns one Philox stream keyed by (seed, replica << 31 |
label), and consumes exactly d words per step.  Its first two steps are the
initial position and velocity, and the dynamics start at step 2.  Streams
therefore do not depend on the number of replicas or particles in the run,
which makes N-sweeps seed-comparable and particle relabeling an exact
symmetry (carry the labels along).  Uniform words map to normals through
the inverse CDF, one word per normal, so the k-th step of a stream is a
pure function of the key regardless of chunking.  A block of noise is
stored step-major, so the normals of one step are one contiguous run for
the integrator to read.

Work that reaches ``_SPLIT_WORK`` on a platform with fork is cut into
contiguous parts, one per usable core, each run in a forked worker process
(numpy's per-step dispatch and the Philox draws hold the interpreter lock,
so threads barely overlap them); lighter work runs in the calling process.
``run``'s parts are replica slabs of a chunk: each worker builds its slab's
streams, draws its initial state and sends the parent each block's
observable rows.  A replica's force does not depend on the batch it comes
in, so a slab computes exactly what the whole chunk would, and the parent
reduces the rows in replica order.  ``fit_decay``'s parts are groups of
bootstrap resamples, whose moments the workers build from index vectors
the parent draws in resample order; the refits then run in the parent in
that order.  Every output is therefore byte-identical at any worker count.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Philox

from .errors import InvalidSpecError, LangcertError, ResourceCapError
from .meanfield import ModelConfig, force_batch

__all__ = [
    "IntegratorConfig",
    "InitSpec",
    "EnsembleState",
    "DecayFit",
    "RunResult",
    "NoiseStreams",
    "OBSERVABLES",
    "initial_state",
    "run",
    "fit_decay",
    "n_sweep",
]

SCHEMES = ("euler_maruyama", "baoab")
DEFAULT_OBSERVABLES = ("mean_position",)  # what run records unless told otherwise
MAX_STEPS = 10**8
_SLAB_WORDS = 2**14  # raw Philox words converted to normals per pass
_REPLICA_CHUNK = 4096  # replicas integrated together by run
_TIME_BLOCK = 256  # steps of noise drawn per block
_BOOT_RESAMPLES = 200  # bootstrap refits of fit_decay
_BOOT_SEED = 777
_BOOT_ROWS = 128  # rows of a resample gathered at once
_ENV_FRACTION = 0.5  # fit points keep |s| >= this fraction of the envelope
# usable cores, the most worker processes a job splits into
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# work from which a job splits across worker processes.  Forking and joining
# two workers took 5-6 ms, 30 ms when they sent back 8 MB; a chunk of 2**21
# (a bump model at N = 2, 250 replicas, 2000 steps) took 0.13-0.17 s inline
# and gained nothing split, and one of 2**23 gained 20-35% on 2 cores
_SPLIT_WORK = 2**21


def _split(items: range, work: int) -> list[tuple[int, int]]:
    """``items`` cut into contiguous ``(lo, hi)`` parts of near-equal length:
    one per usable core, and at most one per item, once the job's ``work``
    reaches ``_SPLIT_WORK`` on a platform that can fork.  Otherwise one part,
    which runs in the calling process."""
    parts = min(_THREADS, len(items)) if work >= _SPLIT_WORK else 1
    if parts > 1:
        import multiprocessing  # here, so that no other command pays for its import

        parts = parts if "fork" in multiprocessing.get_all_start_methods() else 1
    edges = [items.start + len(items) * p // parts for p in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _forked(job: Callable[[int, int], Iterable], parts: Sequence[tuple[int, int]], what: str) -> Iterator[list]:
    """Run ``job(lo, hi)`` for every part, each in its own forked worker, and
    yield the list of the workers' next items, in part order, until they are
    exhausted.  A worker's exception is raised again here (as a LangcertError
    naming its type when its pickle cannot be rebuilt); a worker that exits
    early raises LangcertError naming its ``what`` and exit code.  Every worker
    is terminated and joined when the generator finishes or is closed."""
    import multiprocessing

    def work(conn, lo, hi):
        try:
            for item in job(lo, hi):
                conn.send(("item", item))
            conn.send(("done", None))
        except BaseException as exc:
            try:
                exc = pickle.loads(pickle.dumps(exc))  # the parent must be able to rebuild it
            except Exception:
                exc = LangcertError(f"{type(exc).__name__}: {exc}")
            conn.send(("error", exc))
        finally:
            conn.close()

    fork = multiprocessing.get_context("fork")
    workers = []
    try:
        for lo, hi in parts:
            conn, child_end = fork.Pipe(duplex=False)
            proc = fork.Process(target=work, args=(child_end, lo, hi), daemon=True)
            proc.start()
            # later workers must not inherit this end, so that the parent
            # reads EOF as soon as this worker exits
            child_end.close()
            workers.append((lo, hi, conn, proc))
        while True:
            got = []
            for lo, hi, conn, proc in workers:
                try:
                    kind, item = conn.recv()
                except EOFError:
                    proc.join()
                    raise LangcertError(f"the worker for {what} {lo}-{hi - 1} exited with code "
                                        f"{proc.exitcode} before sending its results") from None
                if kind == "error":
                    raise item
                got.append(item)
            if kind == "done":
                return
            yield got
    finally:
        for *_, conn, proc in workers:
            proc.terminate()  # a no-op once the worker has exited
            proc.join()
            conn.close()


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme and step size; friction 1 and noise sqrt(2) are fixed."""

    scheme: str = "baoab"
    dt: float = 1e-2

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidSpecError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.dt <= 0.1:
            raise InvalidSpecError("dt must be in (0, 0.1]")


@dataclass(frozen=True)
class InitSpec:
    """Initial ensemble: displaced Gaussian positions, equilibrium velocities.

    Positions are standard normal scaled by ``position_spread`` and offset by
    ``position_offset`` in the first coordinate; velocities are drawn from
    the stationary Gaussian.  The offset keeps the initial distance to
    equilibrium macroscopic.
    """

    position_offset: float = 2.0
    position_spread: float = 1.0


@dataclass
class EnsembleState:
    positions: np.ndarray  # (R, N, d)
    velocities: np.ndarray  # (R, N, d)


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    ci_low: float
    ci_high: float
    r_squared: float
    window: tuple[float, float]
    observable_id: str
    n_points: int


# ---------------------------------------------------------------------------
# counter-based noise streams
# ---------------------------------------------------------------------------

def _stream_keys(master_seed: int, replicas: Sequence[int], labels: Sequence[int]) -> np.ndarray:
    """Philox keys (seed, replica << 31 | label) of every (replica, label)
    stream, shape (R, N, 2) uint64."""
    if not all(0 <= v < 2**31 for v in (*replicas, *labels)):
        raise InvalidSpecError("replica and particle label must fit in 31 bits")
    keys = np.empty((len(replicas), len(labels), 2), dtype=np.uint64)
    keys[..., 0] = np.uint64(master_seed & (2**64 - 1))
    rep = np.array(replicas, dtype=np.uint64)[:, None] << np.uint64(31)
    keys[..., 1] = rep | np.array(labels, dtype=np.uint64)
    return keys


class NoiseStreams:
    """Per-(replica, particle) Philox streams consumed in step order.

    ``normals(n_steps)`` returns a block of shape (R, n_steps, N, d) and
    advances every stream by n_steps * d words; successive calls continue
    where the previous block ended, so chunked generation is exact.  The
    block is the transposed view of a step-major (n_steps, R, N, d) array,
    so ``block[:, k]`` is C-contiguous.  Each stream's words go to its own
    entries of the block, so how the replicas are shared among slabs does
    not change a byte.
    """

    def __init__(self, master_seed: int, replicas: Sequence[int], labels: Sequence[int], d: int):
        if not len(replicas) or not len(labels):
            raise InvalidSpecError("noise streams need at least one replica and one label")
        # scipy loads with the first streams, so ``certify`` never loads it
        from scipy.special import ndtri

        self._ndtri = ndtri
        self.d = d
        keys = _stream_keys(master_seed, replicas, labels)
        self._gens = [[Philox(key=k) for k in row] for row in keys]

    def normals(self, n_steps: int) -> np.ndarray:
        if n_steps < 0:
            raise InvalidSpecError(f"n_steps must be >= 0, got {n_steps}")
        R, N = len(self._gens), len(self._gens[0])
        words = n_steps * self.d
        out = np.empty((n_steps, R, N, self.d))
        if words == 0:
            return out.transpose(1, 0, 2, 3)
        slab = max(1, _SLAB_WORDS // (N * words))
        # the raw words of a slab of replicas go to one reused buffer, stream
        # by stream, and are converted into out[:, a:b] in one pass
        buf = np.empty(min(slab, R) * N * words, dtype=np.uint64)
        for a in range(0, R, slab):
            b = min(a + slab, R)
            raw = buf[:(b - a) * N * words].reshape(b - a, N, words)
            for i, row in enumerate(self._gens[a:b]):
                for j, g in enumerate(row):
                    raw[i, j] = g.random_raw(words)
            raw = raw.reshape(b - a, N, n_steps, self.d).transpose(2, 0, 1, 3)
            # one word -> one uniform in (0, 1) from its top 53 bits -> one
            # normal, in place
            u = np.multiply(np.right_shift(raw, np.uint64(11), out=raw), 2.0**-53, out=out[:, a:b])
            self._ndtri(np.add(u, 2.0**-54, out=u), out=u)
        return out.transpose(1, 0, 2, 3)


def _draw_init(streams: NoiseStreams, init: InitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The first two steps of every stream: step 0 scaled by the spread and
    offset in coordinate 0 gives the positions, step 1 the velocities."""
    z = streams.normals(2)
    pos = z[:, 0] * init.position_spread
    pos[..., 0] += init.position_offset
    return pos, z[:, 1]


def initial_state(
    model: ModelConfig,
    replicas: int,
    master_seed: int,
    init: InitSpec | None = None,
    labels: Optional[Sequence[int]] = None,
) -> EnsembleState:
    """The initial ensemble ``run`` starts from: the first two steps of every
    (replica, label) stream, positions from step 0 and velocities from step
    1.  The dynamics continue at step 2 whatever the ``init``."""
    labels = range(model.N) if labels is None else labels
    pos, vel = _draw_init(NoiseStreams(master_seed, range(replicas), labels, model.d), init or InitSpec())
    return EnsembleState(positions=pos, velocities=vel)


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def _advance_block(
    model: ModelConfig,
    integrator: IntegratorConfig,
    x: np.ndarray,
    v: np.ndarray,
    noise: np.ndarray,
    callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (x, v) through noise.shape[1] steps, calling back after each."""
    dt = integrator.dt
    if integrator.scheme == "euler_maruyama":
        amp = math.sqrt(2.0 * dt)
        for k in range(noise.shape[1]):
            f = force_batch(model, x)
            x = x + v * dt
            v = v + (f - v) * dt + amp * noise[:, k]
            if callback is not None:
                callback(k, x, v)
        return x, v
    # BAOAB: half kick, half drift, exact OU step, half drift, half kick
    decay = math.exp(-dt)
    fluct = math.sqrt(1.0 - decay * decay)
    f = force_batch(model, x)
    for k in range(noise.shape[1]):
        v = v + 0.5 * dt * f
        x = x + 0.5 * dt * v
        v = decay * v + fluct * noise[:, k]
        x = x + 0.5 * dt * v
        f = force_batch(model, x)
        v = v + 0.5 * dt * f
        if callback is not None:
            callback(k, x, v)
    return x, v


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _mean_position(model, x, v):
    return x[..., 0].mean(axis=-1)


def _mean_velocity(model, x, v):
    return v[..., 0].mean(axis=-1)


def _kinetic_energy(model, x, v):
    return 0.5 * (v**2).sum(axis=(-2, -1)) / x.shape[-2]


def _confinement_energy(model, x, v):
    return model.U.value(x).mean(axis=-1)


def _pair_distance_second_moment(model, x, v):
    # (1 / N(N-1)) sum_{i != j} |x_i - x_j|^2, the label-averaged moment
    # functional of the certification route (N = 2 reduces to |x_1 - x_2|^2)
    N = x.shape[-2]
    if N < 2:
        raise InvalidSpecError("pair_distance_second_moment needs N >= 2")
    diff = x[..., :, None, :] - x[..., None, :, :]
    return (diff**2).sum(axis=(-3, -2, -1)) / (N * (N - 1))


OBSERVABLES: dict[str, Callable] = {
    "mean_position": _mean_position,
    "mean_velocity": _mean_velocity,
    "kinetic_energy": _kinetic_energy,
    "confinement_energy": _confinement_energy,
    "pair_distance_second_moment": _pair_distance_second_moment,
}


@dataclass
class RunResult:
    times: np.ndarray
    means: dict
    variances: dict
    n_replicas: int
    final_state: EnsembleState
    per_replica: dict = field(default_factory=dict)


def _observe(model: ModelConfig, x: np.ndarray, v: np.ndarray, bufs: dict, row: int) -> None:
    for name, buf in bufs.items():
        buf[row] = OBSERVABLES[name](model, x, v)


def _slab_rows(
    model: ModelConfig,
    integrator: IntegratorConfig,
    init: InitSpec,
    master_seed: int,
    labels: Sequence[int],
    n_steps: int,
    stride: int,
    names: Sequence[str],
    replicas: range,
    x: np.ndarray,
    v: np.ndarray,
) -> Iterator[tuple[int, int, dict, bool]]:
    """Draw the initial state of ``replicas`` into (x, v) and advance it in
    place, a block of steps at a time.  Yields ``(first, last, rows,
    finite)``: the steps covered (0-0 for the initial state), the values of
    the observables ``names`` at their record steps, one row per record
    step, and whether the state is finite after them."""
    streams = NoiseStreams(master_seed, replicas, labels, model.d)
    x[...], v[...] = _draw_init(streams, init)
    bufs = {name: np.empty((1, len(replicas))) for name in names}
    _observe(model, x, v, bufs, 0)
    yield 0, 0, bufs, True
    for done in range(0, n_steps, _TIME_BLOCK):
        nb = min(_TIME_BLOCK, n_steps - done)
        bufs = {name: np.empty(((done + nb) // stride - done // stride, len(replicas))) for name in names}

        def record(k, x_now, v_now):
            if (done + k + 1) % stride == 0:
                _observe(model, x_now, v_now, bufs, (done + k + 1) // stride - done // stride - 1)

        x[...], v[...] = _advance_block(model, integrator, x, v, streams.normals(nb), callback=record)
        finite = bool(np.all(np.isfinite(x)) and np.all(np.isfinite(v)))
        yield done + 1, done + nb, bufs, finite
        if not finite:
            return


def run(
    model: ModelConfig,
    integrator: IntegratorConfig,
    replicas: int,
    horizon: float,
    master_seed: int,
    init: InitSpec | None = None,
    observables: Sequence[str] = DEFAULT_OBSERVABLES,
    stride: int = 1,
    keep_replica_series: Sequence[str] = (),
    labels: Optional[Sequence[int]] = None,
) -> RunResult:
    """Integrate an ensemble and record observable statistics every ``stride``
    steps (plus the initial point).

    Replicas are independent: per-replica noise and trajectories are exact
    functions of (master_seed, replica, label) and do not depend on the
    chunking or on the replica slabs a chunk advances in on worker
    processes.  Ensemble reductions run in the calling process in a fixed
    order determined by the run parameters and involve no BLAS reduction,
    so repeated runs are bit-identical at any worker count (chunk sizes only
    regroup floating-point sums).  The state is checked after every block
    of steps, and the first non-finite block raises ResourceCapError naming
    its steps and replicas.  An exception in a worker is raised again here;
    a worker that exits without its results raises LangcertError.  No
    worker outlives the call.  Per-replica series are retained for the
    observables named in ``keep_replica_series``, recorded or not in
    ``observables`` (needed for bootstrap decay fits).
    """
    if replicas < 1:
        raise InvalidSpecError("replicas must be >= 1")
    if not observables:
        raise InvalidSpecError("at least one observable is required")
    if len(set(observables)) < len(observables):
        raise InvalidSpecError(f"observables must be distinct, got {list(observables)}")
    for name in list(observables) + list(keep_replica_series):
        if name not in OBSERVABLES:
            raise InvalidSpecError(f"unknown observable {name!r}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise InvalidSpecError(f"horizon must be finite and >= 0, got {horizon!r}")
    n_steps = int(round(horizon / integrator.dt))
    if n_steps > MAX_STEPS:
        raise ResourceCapError(f"horizon/dt = {n_steps} exceeds the {MAX_STEPS} step cap")
    if stride < 1:
        raise InvalidSpecError("stride must be >= 1")

    rec_steps = np.arange(0, n_steps + 1, stride)
    times = rec_steps * integrator.dt
    n_rec = rec_steps.size

    sums = {name: np.zeros(n_rec) for name in observables}
    sqsums = {name: np.zeros(n_rec) for name in observables}
    per_rep = {name: np.empty((replicas, n_rec)) for name in keep_replica_series}
    names = list(dict.fromkeys([*observables, *keep_replica_series]))

    final_x = np.empty((replicas, model.N, model.d))
    final_v = np.empty_like(final_x)

    lab = list(range(model.N)) if labels is None else list(labels)
    slab_rows = partial(_slab_rows, model, integrator, init or InitSpec(), master_seed, lab, n_steps, stride, names)
    per_step = model.N**2 if model.W is not None else model.N

    # loaded here once, not again in every slab worker
    from scipy.special import ndtri  # noqa: F401

    def slab(lo, hi):
        # a slab's blocks, then its final state (a worker's copy must be sent)
        yield from slab_rows(range(lo, hi), final_x[lo:hi], final_v[lo:hi])
        yield final_x[lo:hi], final_v[lo:hi]

    for lo in range(0, replicas, _REPLICA_CHUNK):
        hi = min(lo + _REPLICA_CHUNK, replicas)
        parts = _split(range(lo, hi), (hi - lo) * n_steps * per_step)
        slabs = _forked(slab, parts, "replicas") if len(parts) > 1 else ([item] for item in slab(lo, hi))
        with closing(slabs):
            for got in slabs:
                if len(got[0]) == 2:  # the final states
                    for (a, b), (xs, vs) in zip(parts, got):
                        final_x[a:b], final_v[a:b] = xs, vs
                    continue
                first, last = got[0][:2]
                if not all(finite for *_, finite in got):
                    raise ResourceCapError(
                        f"non-finite state in steps {first}-{last} of replicas {lo}-{hi - 1} (reduce dt)")
                # records from the first at or after step ``first``, each row in replica order
                row0 = -(-first // stride)
                for name in names:
                    rows = np.concatenate([bufs[name] for _, _, bufs, _ in got], axis=1)
                    if name in sums:
                        for r, row in enumerate(rows, row0):
                            sums[name][r] += row.sum()
                            sqsums[name][r] += (row**2).sum()
                    if name in per_rep:
                        per_rep[name][lo:hi, row0:row0 + len(rows)] = rows.T

    means = {name: sums[name] / replicas for name in observables}
    variances = {
        name: np.maximum(sqsums[name] / replicas - means[name] ** 2, 0.0) for name in observables
    }
    return RunResult(
        times=times,
        means=means,
        variances=variances,
        n_replicas=replicas,
        final_state=EnsembleState(positions=final_x, velocities=final_v),
        per_replica=per_rep,
    )


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def _oscillation_spacing(t: np.ndarray, s: np.ndarray, sigma: np.ndarray) -> Optional[float]:
    """Median spacing of genuine zero crossings of the smoothed signal.

    A crossing counts when the smoothed signal reaches a prominence of four
    noise floors on both sides within a tenth of the series, which rejects
    sign flips of pure noise; a monotone signal yields None.
    """
    n = s.size
    if n < 10:
        return None
    w = max(1, n // 50)
    kern = np.ones(w) / w
    sm = np.convolve(s, kern, mode="same")
    sgn = np.sign(sm)
    ch = np.nonzero((sgn[1:] != sgn[:-1]) & (sgn[1:] != 0))[0]
    look = max(2, n // 10)
    times = []
    for k in ch:
        left = np.abs(sm[max(0, k - look):k + 1]).max() if k > 0 else 0.0
        right = np.abs(sm[k + 1:min(n, k + 1 + look)]).max() if k + 1 < n else 0.0
        floor = 4.0 * float(sigma[k])
        if min(left, right) > floor:
            times.append(float(t[k]))
    if len(times) < 2:
        return None
    gaps = np.diff(times)
    gaps = gaps[gaps > (t[1] - t[0]) * 2]
    return float(np.median(gaps)) if gaps.size else None


def _window_max(s: np.ndarray, before: int, after: int) -> np.ndarray:
    """max |s| over [k - before, k + after], clipped to the series."""
    b, a = min(before, s.size), min(after, s.size)  # a wider window already spans the series
    padded = np.pad(np.abs(s), (b, a), mode="edge")
    return sliding_window_view(padded, b + a + 1).max(axis=1)


def _fit_lambda(
    t: np.ndarray,
    s: np.ndarray,
    sigma: np.ndarray,
    window: Optional[tuple[float, float]] = None,
) -> Optional[tuple[float, float, int, tuple[float, float]]]:
    """Envelope-aware log-linear fit; returns (lambda, r^2, n_points, window).

    ``window`` overrides the automatic choice (used to harmonize fits across
    runs with different noise floors, as in N-sweeps).
    """
    n = s.size
    dt = float(t[1] - t[0]) if n > 1 else 1.0
    a0 = abs(s[0])
    if a0 <= 3 * sigma[0]:
        return None  # signal below noise from the start
    spacing = _oscillation_spacing(t, s, sigma)
    if spacing is not None:
        # centered max over one oscillation period tracks the true envelope
        h = max(2, int(round(0.5 * spacing / dt)))
        env = _window_max(s, h, h)
    else:
        # monotone decay: the forward max equals |s| itself while the signal
        # lives, and bridges noise wiggles once it has died
        env = _window_max(s, 0, max(3, n // 8))
    if window is not None:
        i0 = int(np.searchsorted(t, window[0] - 1e-12))
        i1 = int(np.searchsorted(t, window[1] + 1e-12))
    else:
        crossed = np.abs(s) <= 0.5 * a0
        if not crossed.any():
            return None  # no decay observed inside the horizon
        i0 = int(np.argmax(crossed))
        below = np.nonzero(env[i0:] < 3 * sigma[i0:])[0]
        i1 = i0 + int(below[0]) if below.size else n
    tt, ss, ee, gg = t[i0:i1], s[i0:i1], env[i0:i1], sigma[i0:i1]
    mask = (np.abs(ss) >= _ENV_FRACTION * ee) & (np.abs(ss) > 3 * gg)
    if int(mask.sum()) < 5:
        return None
    ty, ly = tt[mask], np.log(np.abs(ss[mask]))
    A = np.vstack([ty, np.ones(ty.size)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 0.0
    return float(-coef[0]), r2, int(mask.sum()), (float(tt[0]), float(tt[-1]))


def _resample_moments(per_replica: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``b.mean(axis=0)`` and ``b.var(axis=0)`` of the resample
    ``b = per_replica[idx]``, bit for bit, gathered _BOOT_ROWS rows at a time.

    A column sum over axis 0 adds the rows one by one, in order (for two or
    more columns), so a block that takes the running sum into its first row
    continues exactly the sum of the whole gather.
    """
    R = idx.size

    def column_sum(step):
        acc = None
        for lo in range(0, R, _BOOT_ROWS):
            blk = step(per_replica[idx[lo:lo + _BOOT_ROWS]])
            if acc is not None:
                blk[0] += acc
            acc = blk.sum(axis=0)
        return acc

    def centred_square(blk):
        blk -= bmean
        return np.square(blk, out=blk)

    bmean = column_sum(lambda blk: blk) / R
    return bmean, column_sum(centred_square) / R


def fit_decay(
    times: np.ndarray,
    per_replica: np.ndarray,
    equilibrium_value: float = 0.0,
    observable_id: str = "",
    window: Optional[tuple[float, float]] = None,
) -> Optional[DecayFit]:
    """Exponential decay rate of |ensemble mean - equilibrium| with bootstrap CI.

    The fit window opens at the first crossing below 50% of the initial gap
    and closes when the running envelope falls under 3x the Monte Carlo
    noise floor (or is supplied explicitly via ``window``).  Points are used
    when they sit within a factor of the local envelope (handles underdamped
    oscillation) and above the noise floor.  Bootstrap resamples refit inside
    the point-estimate window; their moments are gathered in blocks of rows
    but use the same arithmetic, in the same order, as ``ndarray.mean``/``var``
    on the whole resample, so they match those calls bit for bit.  The caller
    draws every resample's indices in order, the moments build in worker
    processes when the work (resamples x replicas x records) reaches
    ``_SPLIT_WORK``, and the refits run in the caller in resample order, so
    the result does not depend on the worker count.
    Returns None with no fit when the signal starts below noise, never
    decays, or leaves fewer than 5 usable points; callers requiring the
    documented precondition should supply >= 20 window points.
    """
    times = np.asarray(times, dtype=float)
    per_replica = np.asarray(per_replica, dtype=float)
    R = per_replica.shape[0]
    mean = per_replica.mean(axis=0)
    var = per_replica.var(axis=0)
    sigma = np.sqrt(var / R) + 1e-300
    s = mean - equilibrium_value
    fit = _fit_lambda(times, s, sigma, window=window)
    if fit is None:
        return None
    lam, r2, n_pts, window = fit

    # the moments of contiguous groups of resamples may build in worker
    # processes; the refits then run here in resample order
    rng = np.random.default_rng(_BOOT_SEED)
    idxs = [rng.integers(0, R, size=R) for _ in range(_BOOT_RESAMPLES)]

    def moments(lo, hi):
        return [_resample_moments(per_replica, idx) for idx in idxs[lo:hi]]

    parts = _split(range(_BOOT_RESAMPLES), _BOOT_RESAMPLES * per_replica.size)
    if len(parts) > 1:
        (groups,) = _forked(lambda lo, hi: [moments(lo, hi)], parts, "resamples")
    else:
        groups = [moments(0, _BOOT_RESAMPLES)]
    boots = []
    for bmean, bvar in itertools.chain.from_iterable(groups):
        bfit = _fit_lambda(times, bmean - equilibrium_value, np.sqrt(bvar / R) + 1e-300, window=window)
        if bfit is not None:
            boots.append(bfit[0])
    if len(boots) >= 20:
        lo, hi = np.percentile(boots, [2.5, 97.5])
        lo, hi = min(lo, lam), max(hi, lam)
    else:
        lo = hi = lam
    return DecayFit(
        lambda_hat=lam,
        ci_low=float(lo),
        ci_high=float(hi),
        r_squared=r2,
        window=window,
        observable_id=observable_id,
        n_points=n_pts,
    )


def n_sweep(
    U_spec,
    W_spec,
    d: int,
    Ns: Sequence[int],
    integrator: IntegratorConfig,
    replicas: int,
    horizon: float,
    master_seed: int,
    observable: str = "mean_position",
    equilibrium_value: float = 0.0,
    stride: int = 5,
    init: InitSpec | None = None,
) -> list[tuple[int, Optional[DecayFit]]]:
    """Fit the decay rate of one observable across particle counts.

    The per-(replica, particle) noise keying makes the runs seed-comparable:
    particle i of replica r consumes the same stream for every N.  The fit
    window is chosen on the noisiest series (the smallest N: its Monte Carlo
    floor on a particle-averaged observable is the highest) and reused for
    every N, so the fitted rates compare like for like.
    """
    if list(Ns) != sorted(Ns) or any(n < 2 for n in Ns):
        raise InvalidSpecError("Ns must be sorted and >= 2")
    out = []
    window = None
    for N in Ns:
        model = ModelConfig(N=N, d=d, U=U_spec, W=W_spec)
        res = run(
            model,
            integrator,
            replicas=replicas,
            horizon=horizon,
            master_seed=master_seed,
            init=init,
            observables=(observable,),
            stride=stride,
            keep_replica_series=(observable,),
        )
        fit = fit_decay(
            res.times,
            res.per_replica[observable],
            equilibrium_value,
            observable_id=observable,
            window=window,
        )
        if window is None and fit is not None:
            window = fit.window
        out.append((N, fit))
    return out
