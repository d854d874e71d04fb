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

Work that reaches ``_SPLIT_WORK`` on a platform with fork is dealt in turn
to parts, one per usable core, each run in a forked worker process (numpy's
per-step dispatch and the Philox draws hold the interpreter lock, so
threads barely overlap them); lighter work runs in the calling process.
``_gather`` makes that choice and yields the parts' items round by round.
``run``'s parts are replica slabs of a chunk: each worker builds its slab's
streams, draws its initial state and sends the parent each block's
observable rows with the slab's state after it, or raises the run's error
when that state turns non-finite.  A replica's force does
not depend on the batch it comes in, so a slab computes exactly what the
whole chunk would, and the parent puts the rows and states back at the
slab's stride and reduces them in replica order.  ``fit_decay``'s parts are
bootstrap resamples: each worker replays the one resample generator, keeps
its own index vectors and sends their moments, which the parent refits as
they arrive, in resample order.  Every output is therefore byte-identical
at any worker count.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

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
    "run",
    "fit_decay",
    "n_sweep",
]

SCHEMES = ("euler_maruyama", "baoab")
DEFAULT_OBSERVABLES = ("mean_position",)  # what run records unless told otherwise
MAX_STEPS = 10**8
_KEY_BITS = "replica and particle label must fit in 31 bits"  # of a stream key
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


def _split(items: range, work: int) -> list[range]:
    """``items`` dealt to parts in turn, part k taking items k, k + P, ...:
    one part per usable core, and at most one per item, once the job's
    ``work`` reaches ``_SPLIT_WORK`` on a platform that can fork.  Otherwise
    one part, ``items`` itself."""
    parts = min(_THREADS, len(items)) if work >= _SPLIT_WORK else 1
    if parts > 1:
        import multiprocessing  # here, so that no other command pays for its import

        parts = parts if "fork" in multiprocessing.get_all_start_methods() else 1
    return [items[p::parts] for p in range(parts)]


def _gather(job: Callable[[range], Iterator], items: range, work: int, what: str) -> Iterator:
    """The items of ``job`` over the parts of ``_split(items, work)``: run
    inline when there is one part, else forked.  Close it when done."""
    parts = _split(items, work)
    return _forked(job, parts, what) if len(parts) > 1 else job(items)


def _forked(job: Callable[[range], Iterator], parts: Sequence[range], what: str) -> Iterator:
    """Run ``job(part)`` for every part, each in its own forked worker, and
    yield the workers' items round by round: the next item of every part
    not yet done, in part order, until every part is done.  Over parts dealt
    by ``_split``, a job that yields one item per element of its part thus
    yields the elements' items in element order.  A worker's exception is
    raised again here (as a LangcertError naming its type when its pickle
    cannot be rebuilt); a worker that exits early raises LangcertError
    naming its ``what``, its part and exit code.  Every worker is terminated
    and joined when the generator finishes or is closed."""
    import multiprocessing

    def work(conn, part):
        try:
            for item in job(part):
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
        for part in parts:
            conn, child_end = fork.Pipe(duplex=False)
            proc = fork.Process(target=work, args=(child_end, part), daemon=True)
            proc.start()
            # later workers must not inherit this end, so that the parent
            # reads EOF as soon as this worker exits
            child_end.close()
            workers.append((part, conn, proc))
        live = workers
        while live:
            going = []
            for part, conn, proc in live:
                try:
                    kind, item = conn.recv()
                except EOFError:
                    proc.join()
                    raise LangcertError(f"the worker for {what} {part[0]}-{part[-1]} step {part.step} exited "
                                        f"with code {proc.exitcode} before sending its results") from None
                if kind == "error":
                    raise item
                if kind == "item":
                    going.append((part, conn, proc))
                    yield item
            live = going
    finally:
        for _, conn, proc in workers:
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

    def __post_init__(self):
        for name in ("position_offset", "position_spread"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite, got {getattr(self, name)!r}")


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

def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise InvalidSpecError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")


def _stream_keys(master_seed: int, replicas: Sequence[int], labels: Sequence[int]) -> np.ndarray:
    """Philox keys (seed, replica << 31 | label) of every (replica, label)
    stream, shape (R, N, 2) uint64."""
    _check_seed(master_seed)
    if not all(0 <= v < 2**31 for v in (*replicas, *labels)):
        raise InvalidSpecError(_KEY_BITS)
    keys = np.empty((len(replicas), len(labels), 2), dtype=np.uint64)
    keys[..., 0] = np.uint64(master_seed)
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
            # normal, in place.  k = 2**53 - 1 would round k 2**-53 + 2**-54
            # up to 1 and give +inf, so it takes the value of k = 2**53 - 2
            np.minimum(np.right_shift(raw, np.uint64(11), out=raw), np.uint64(2**53 - 2), out=raw)
            u = np.multiply(raw, 2.0**-53, out=out[:, a:b])
            self._ndtri(np.add(u, 2.0**-54, out=u), out=u)
        return out.transpose(1, 0, 2, 3)


def _run_labels(model: ModelConfig, replicas: int, labels: Optional[Sequence[int]], seed: int) -> Sequence[int]:
    """``labels``, N distinct ones, or range(N), after an O(1) check that the
    seed and the counts fit the stream keys, made before anything is allocated."""
    _check_seed(seed)
    if replicas > 2**31 or model.N > 2**31:
        raise InvalidSpecError(_KEY_BITS)
    if labels is None:
        return range(model.N)
    labels = list(labels)
    if len(labels) != model.N or len(set(labels)) != model.N:
        raise InvalidSpecError(f"labels must be {model.N} distinct particle labels, got {labels}")
    return labels


def _draw_init(streams: NoiseStreams, init: InitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The first two steps of every stream: step 0 scaled by the spread and
    offset in coordinate 0 gives the positions, step 1 the velocities."""
    z = streams.normals(2)
    pos = z[:, 0] * init.position_spread
    pos[..., 0] += init.position_offset
    return pos, z[:, 1]


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
    n_steps: int
    final_state: EnsembleState
    per_replica: dict = field(default_factory=dict)


def _observe(model: ModelConfig, x: np.ndarray, v: np.ndarray, names: Sequence[str], rows: np.ndarray,
             row: int) -> None:
    for k, name in enumerate(names):
        rows[k, row] = OBSERVABLES[name](model, x, v)


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
    regroup floating-point sums).  Each slab checks its state after every
    block of steps, and the first non-finite block raises ResourceCapError
    naming its steps and its chunk's replicas.  An exception in a worker is
    raised again here; a worker that exits without its results raises
    LangcertError.  No worker outlives the call.  Per-replica series are
    retained for the observables named in ``keep_replica_series``, recorded
    or not in ``observables`` (needed for bootstrap decay fits).
    """
    if replicas < 1:
        raise InvalidSpecError("replicas must be >= 1")
    labels = _run_labels(model, replicas, labels, master_seed)
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

    init = init or InitSpec()
    per_step = model.N**2 if model.W is not None else model.N

    # loaded here once, not again in every slab worker
    from scipy.special import ndtri  # noqa: F401

    def slab(chunk, part):
        # the initial state of the replicas ``part`` of ``chunk``, then a
        # block of steps at a time: (part, rows, x, v) with one row of every
        # observable per record step, shape (observables, records, replicas),
        # and the state (x, v) after them, which must be finite
        streams = NoiseStreams(master_seed, part, labels, model.d)
        x = np.empty((len(part), model.N, model.d))
        v = np.empty_like(x)
        x[...], v[...] = _draw_init(streams, init)
        rows = np.empty((len(names), 1, len(part)))
        _observe(model, x, v, names, rows, 0)
        yield part, rows, x, v
        for done in range(0, n_steps, _TIME_BLOCK):
            nb = min(_TIME_BLOCK, n_steps - done)
            rows = np.empty((len(names), (done + nb) // stride - done // stride, len(part)))

            def record(k, x_now, v_now):
                if (done + k + 1) % stride == 0:
                    _observe(model, x_now, v_now, names, rows, (done + k + 1) // stride - done // stride - 1)

            x[...], v[...] = _advance_block(model, integrator, x, v, streams.normals(nb), callback=record)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                raise ResourceCapError(f"non-finite state in steps {done + 1}-{done + nb} "
                                       f"of replicas {chunk[0]}-{chunk[-1]} (reduce dt)")
            yield part, rows, x, v

    for lo in range(0, replicas, _REPLICA_CHUNK):
        chunk = range(lo, min(lo + _REPLICA_CHUNK, replicas))
        filled = row0 = 0  # replicas of the current block received so far, its first record
        with closing(_gather(functools.partial(slab, chunk), chunk, len(chunk) * n_steps * per_step,
                             "replicas")) as items:
            for part, rows, x, v in items:
                at = slice(part.start, part.stop, part.step)
                final_x[at], final_v[at] = x, v
                if not filled:
                    block = np.empty((*rows.shape[:2], len(chunk)))
                block[..., part.start - lo::part.step] = rows
                filled += len(part)
                if filled < len(chunk):
                    continue
                filled = 0
                for name, series in zip(names, block):  # each row in replica order
                    if name in sums:
                        for r, row in enumerate(series, row0):
                            sums[name][r] += row.sum()
                            sqsums[name][r] += (row**2).sum()
                    if name in per_rep:
                        per_rep[name][chunk.start:chunk.stop, row0:row0 + len(series)] = series.T
                row0 += block.shape[1]

    means = {name: sums[name] / replicas for name in observables}
    variances = {
        name: np.maximum(sqsums[name] / replicas - means[name] ** 2, 0.0) for name in observables
    }
    return RunResult(
        times=times,
        means=means,
        variances=variances,
        n_replicas=replicas,
        n_steps=n_steps,
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


def _column_sum(series: np.ndarray, idx: np.ndarray, centre: Optional[np.ndarray] = None) -> np.ndarray:
    """The column sums of the rows ``series[idx]``, or of their squared
    deviations from ``centre``, gathered _BOOT_ROWS rows at a time.

    A column sum over axis 0 adds the rows one by one, in order (for two or
    more columns), so a block that takes the running sum into its first row
    continues exactly the sum of all the rows at once.
    """
    acc = None
    for lo in range(0, idx.size, _BOOT_ROWS):
        blk = series[idx[lo:lo + _BOOT_ROWS]]
        if centre is not None:
            blk -= centre
            np.square(blk, out=blk)
        if acc is not None:
            blk[0] += acc
        acc = blk.sum(axis=0)
    return acc


def _resample_moments(per_replica: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``b.mean(axis=0)`` and ``b.var(axis=0)`` of the resample
    ``b = per_replica[idx]``, bit for bit, gathered _BOOT_ROWS rows at a time."""
    bmean = _column_sum(per_replica, idx) / idx.size
    return bmean, _column_sum(per_replica, idx, bmean) / idx.size


def _point_moments(per_replica: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``per_replica.mean(axis=0)`` and ``var(axis=0)``, bit for bit for a
    series of two or more columns: the moments of the resample that holds
    every row once, so that no temporary of the series' size is made.  A
    column whose mean is not finite (any NaN or inf entry makes one, and so
    does a sum past the float range) raises InvalidSpecError before the
    variance is taken; the flags such a sum raises are not reported, the
    error is."""
    every = np.arange(per_replica.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        mean = _column_sum(per_replica, every) / every.size
    bad = np.flatnonzero(~np.isfinite(mean))
    if bad.size:
        raise InvalidSpecError(f"per_replica column {bad[0]} has a non-finite mean")
    return mean, _column_sum(per_replica, every, mean) / every.size


def fit_decay(
    times: np.ndarray,
    per_replica: np.ndarray,
    equilibrium: float = 0.0,
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
    on the whole resample, so they match those calls bit for bit; the point
    estimate's moments are built the same way from the series' own rows.
    The moments build in worker processes, the resamples dealt to them in
    turn, when the work (resamples x replicas x records) reaches
    ``_SPLIT_WORK``.  Each worker, or the caller when the work is lighter,
    replays the one resample generator, draws every index vector in
    resample order and builds the moments of its own resamples only; the
    caller refits each resample as its moments arrive, in resample order,
    so the result does not depend on the worker count and no list of all
    resamples' moments is held.  Malformed input raises
    InvalidSpecError: a ``per_replica`` that is not 2-D with at least one
    row and one column, ``times`` that are not 1-D, finite, strictly
    increasing and one per column, or a column with a non-finite mean.
    Returns None with no fit when the signal starts below noise, never
    decays, or leaves fewer than 5 usable points; callers requiring the
    documented precondition should supply >= 20 window points.
    """
    times = np.asarray(times, dtype=float)
    per_replica = np.asarray(per_replica, dtype=float)
    if per_replica.ndim != 2 or 0 in per_replica.shape:
        raise InvalidSpecError(f"per_replica must be 2-D with at least one row and one column, "
                               f"got shape {per_replica.shape}")
    R, n_rec = per_replica.shape
    if times.shape != (n_rec,):
        raise InvalidSpecError(f"times must be 1-D with one entry per column of per_replica ({n_rec}), "
                               f"got shape {times.shape}")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise InvalidSpecError("times must be finite and strictly increasing")
    mean, var = _point_moments(per_replica)
    sigma = np.sqrt(var / R) + 1e-300
    s = mean - equilibrium
    fit = _fit_lambda(times, s, sigma, window=window)
    if fit is None:
        return None
    lam, r2, n_pts, window = fit

    # the moments of resamples dealt to worker processes, refitted here as
    # they arrive, in resample order
    def moments(part):
        rng = np.random.default_rng(_BOOT_SEED)
        for b in range(part.stop):
            idx = rng.integers(0, R, size=R)  # every vector is drawn, a part's own are used
            if b in part:
                yield _resample_moments(per_replica, idx)

    boots = []
    with closing(_gather(moments, range(_BOOT_RESAMPLES), _BOOT_RESAMPLES * per_replica.size,
                         "resamples")) as resamples:
        for bmean, bvar in resamples:
            bfit = _fit_lambda(times, bmean - equilibrium, np.sqrt(bvar / R) + 1e-300, window=window)
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
    equilibrium: float = 0.0,
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
    models = [ModelConfig(N=N, d=d, U=U_spec, W=W_spec) for N in Ns]
    for model in models:  # every N fits the stream keys before any run
        _run_labels(model, replicas, None, master_seed)
    out = []
    window = None
    for model in models:
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
            equilibrium,
            observable_id=observable,
            window=window,
        )
        if window is None and fit is not None:
            window = fit.window
        out.append((model.N, fit))
    return out
