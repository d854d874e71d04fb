"""Ensemble integration of the N-particle kinetic Langevin dynamics

    dx_i = v_i dt,
    dv_i = sqrt(2) dB_i - v_i dt - [grad U(x_i) + (1/N) sum_j grad W(x_i - x_j)] dt,

with friction and noise fixed to this normalization (no temperature knob:
the certificates target exactly this invariant measure).

Noise is derived counter-based from the master seed: every (replica,
particle) pair owns a Philox stream keyed by (seed, domain | replica |
label), and consumes exactly d words per step.  Streams therefore do not
depend on the number of replicas or particles in the run, which makes
N-sweeps seed-comparable and particle relabeling an exact symmetry (carry
the labels along).  Uniform words map to normals through the inverse CDF,
one word per normal, so the k-th step of a stream is a pure function of the
key regardless of chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Philox
from scipy.special import ndtri

from .errors import InvalidSpecError, ResourceCapError
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
MAX_STEPS = 10**8
_DOMAIN_DYNAMICS = 0
_DOMAIN_INIT_POS = 1
_DOMAIN_INIT_VEL = 2
_SLAB_WORDS = 2**14  # raw Philox words converted to normals per pass


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

    def to_json(self) -> dict:
        return {"scheme": self.scheme, "dt": self.dt}


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

    def to_json(self) -> dict:
        return {"position_offset": self.position_offset, "position_spread": self.position_spread}


@dataclass
class EnsembleState:
    positions: np.ndarray  # (R, N, d)
    velocities: np.ndarray  # (R, N, d)
    time: float
    master_seed: int


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    ci_low: float
    ci_high: float
    r_squared: float
    window: tuple[float, float]
    observable_id: str
    n_points: int

    def to_json(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "r_squared": self.r_squared,
            "window": [self.window[0], self.window[1]],
            "observable_id": self.observable_id,
            "n_points": self.n_points,
        }


# ---------------------------------------------------------------------------
# counter-based noise streams
# ---------------------------------------------------------------------------

def _stream_key(master_seed: int, domain: int, replica: int, label: int) -> np.ndarray:
    if not (0 <= replica < 2**31 and 0 <= label < 2**31):
        raise InvalidSpecError("replica and particle label must fit in 31 bits")
    k1 = (np.uint64(domain) << np.uint64(62)) | (np.uint64(replica) << np.uint64(31)) | np.uint64(label)
    return np.array([np.uint64(master_seed & (2**64 - 1)), k1], dtype=np.uint64)


def _words_to_normals(words: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """One uint64 word -> one uniform in (0,1) -> one normal, no state involved.

    With ``out`` (float64, the shape of ``words``) the conversion runs in
    place: ``words`` is overwritten by its shifted value and the normals are
    written to ``out``.
    """
    top = np.right_shift(words, np.uint64(11), out=None if out is None else words)
    u = np.multiply(top, 2.0**-53, out=out)
    np.add(u, 2.0**-54, out=u)
    return ndtri(u, out=u)


class NoiseStreams:
    """Per-(replica, particle) Philox streams consumed in step order.

    ``normals(n_steps)`` returns a block of shape (R, n_steps, N, d) and
    advances every stream by n_steps * d words; successive calls continue
    where the previous block ended, so chunked generation is exact.
    """

    def __init__(self, master_seed: int, replicas: Sequence[int], labels: Sequence[int], d: int):
        self.d = d
        self._gens = [
            [Philox(key=_stream_key(master_seed, _DOMAIN_DYNAMICS, r, lab)) for lab in labels]
            for r in replicas
        ]

    def normals(self, n_steps: int) -> np.ndarray:
        R, N = len(self._gens), len(self._gens[0])
        words = n_steps * self.d
        out = np.empty((R, n_steps, N, self.d))
        # the raw words of a slab of replicas go to one reused buffer, stream
        # by stream, and are converted into out[lo:hi] in one pass
        slab = max(1, _SLAB_WORDS // (N * words))
        buf = np.empty(min(slab, R) * N * words, dtype=np.uint64)
        for lo in range(0, R, slab):
            hi = min(lo + slab, R)
            raw = buf[:(hi - lo) * N * words].reshape(hi - lo, N, words)
            for i, row in enumerate(self._gens[lo:hi]):
                for j, g in enumerate(row):
                    raw[i, j] = g.random_raw(words)
            raw = raw.reshape(hi - lo, N, n_steps, self.d).transpose(0, 2, 1, 3)
            _words_to_normals(raw, out=out[lo:hi])
        return out


def _init_normals(master_seed: int, domain: int, replicas: Sequence[int], labels: Sequence[int], d: int) -> np.ndarray:
    out = np.empty((len(replicas), len(labels), d))
    for i, r in enumerate(replicas):
        for j, lab in enumerate(labels):
            g = Philox(key=_stream_key(master_seed, domain, r, lab))
            out[i, j, :] = _words_to_normals(g.random_raw(d))
    return out


def _draw_init(
    master_seed: int,
    replica_ids: Sequence[int],
    labels: Sequence[int],
    d: int,
    init: InitSpec,
) -> tuple[np.ndarray, np.ndarray]:
    pos = _init_normals(master_seed, _DOMAIN_INIT_POS, replica_ids, labels, d) * init.position_spread
    pos[..., 0] += init.position_offset
    vel = _init_normals(master_seed, _DOMAIN_INIT_VEL, replica_ids, labels, d)
    return pos, vel


def initial_state(
    model: ModelConfig,
    replicas: int,
    master_seed: int,
    init: InitSpec | None = None,
    labels: Optional[Sequence[int]] = None,
) -> EnsembleState:
    """Draw the initial ensemble from its own key domains (the dynamics
    streams start at word zero regardless of initialization)."""
    labels = list(range(model.N)) if labels is None else list(labels)
    pos, vel = _draw_init(master_seed, list(range(replicas)), labels, model.d, init or InitSpec())
    return EnsembleState(positions=pos, velocities=vel, time=0.0, master_seed=master_seed)


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


def run(
    model: ModelConfig,
    integrator: IntegratorConfig,
    replicas: int,
    horizon: float,
    master_seed: int,
    init: InitSpec | None = None,
    observables: Sequence[str] = ("mean_position",),
    stride: int = 1,
    keep_replica_series: Sequence[str] = (),
    labels: Optional[Sequence[int]] = None,
    replica_chunk: int = 4096,
    time_block: int = 256,
) -> RunResult:
    """Integrate an ensemble and record observable statistics every ``stride``
    steps (plus the initial point).

    Replicas are independent: per-replica noise and trajectories are exact
    functions of (master_seed, replica, label) and do not depend on the
    chunking.  Ensemble reductions run in a fixed order determined by the
    run parameters and involve no BLAS reduction, so repeated runs are
    bit-identical (chunk sizes only regroup floating-point sums).
    Per-replica series are retained for the observables named in
    ``keep_replica_series``, recorded or not in ``observables`` (needed for
    bootstrap decay fits).
    """
    if replicas < 1:
        raise InvalidSpecError("replicas must be >= 1")
    if not observables:
        raise InvalidSpecError("at least one observable is required")
    for name in list(observables) + list(keep_replica_series):
        if name not in OBSERVABLES:
            raise InvalidSpecError(f"unknown observable {name!r}")
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

    final_x = np.empty((replicas, model.N, model.d))
    final_v = np.empty_like(final_x)

    lab = list(range(model.N)) if labels is None else list(labels)
    for lo in range(0, replicas, replica_chunk):
        hi = min(lo + replica_chunk, replicas)
        chunk_reps = list(range(lo, hi))
        x, v = _draw_init(master_seed, chunk_reps, lab, model.d, init or InitSpec())
        streams = NoiseStreams(master_seed, chunk_reps, lab, model.d)

        rec_idx = 0

        def record(x_now, v_now):
            nonlocal rec_idx
            for name in observables:
                vals = OBSERVABLES[name](model, x_now, v_now)
                sums[name][rec_idx] += vals.sum()
                sqsums[name][rec_idx] += (vals**2).sum()
            for name in per_rep:
                per_rep[name][lo:hi, rec_idx] = OBSERVABLES[name](model, x_now, v_now)
            rec_idx += 1

        record(x, v)
        done = 0
        while done < n_steps:
            nb = min(time_block, n_steps - done)
            noise = streams.normals(nb)
            base = done

            def cb(k, x_now, v_now):
                if (base + k + 1) % stride == 0:
                    record(x_now, v_now)

            x, v = _advance_block(model, integrator, x, v, noise, callback=cb)
            done += nb
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ResourceCapError("non-finite state at end of run (reduce dt)")
        final_x[lo:hi] = x
        final_v[lo:hi] = v

    means = {name: sums[name] / replicas for name in observables}
    variances = {
        name: np.maximum(sqsums[name] / replicas - means[name] ** 2, 0.0) for name in observables
    }
    final_state = EnsembleState(
        positions=final_x, velocities=final_v, time=n_steps * integrator.dt,
        master_seed=master_seed,
    )
    return RunResult(
        times=times,
        means=means,
        variances=variances,
        n_replicas=replicas,
        final_state=final_state,
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


def _running_env(s: np.ndarray, halfwidth_pts: int) -> np.ndarray:
    """max |s| over [k - halfwidth, k + halfwidth], clipped to the series."""
    h = min(halfwidth_pts, s.size)  # a wider window already spans the series
    padded = np.pad(np.abs(s), h, mode="edge")
    return sliding_window_view(padded, 2 * h + 1).max(axis=1)


def _forward_env(s: np.ndarray, width_pts: int) -> np.ndarray:
    """max |s| over [k, k + width], clipped to the series."""
    w = min(width_pts, s.size)
    padded = np.pad(np.abs(s), (0, w), mode="edge")
    return sliding_window_view(padded, w + 1).max(axis=1)


def _fit_lambda(
    t: np.ndarray,
    s: np.ndarray,
    sigma: np.ndarray,
    theta: float = 0.5,
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
        env = _running_env(s, max(2, int(round(0.5 * spacing / dt))))
    else:
        # monotone decay: the forward max equals |s| itself while the signal
        # lives, and bridges noise wiggles once it has died
        env = _forward_env(s, max(3, n // 8))
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
    mask = (np.abs(ss) >= theta * ee) & (np.abs(ss) > 3 * gg)
    if int(mask.sum()) < 5:
        return None
    ty, ly = tt[mask], np.log(np.abs(ss[mask]))
    A = np.vstack([ty, np.ones(ty.size)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 0.0
    return float(-coef[0]), r2, int(mask.sum()), (float(tt[0]), float(tt[-1]))


def fit_decay(
    times: np.ndarray,
    per_replica: np.ndarray,
    equilibrium_value: float,
    observable_id: str = "",
    n_boot: int = 200,
    boot_seed: int = 777,
    window: Optional[tuple[float, float]] = None,
) -> Optional[DecayFit]:
    """Exponential decay rate of |ensemble mean - equilibrium| with bootstrap CI.

    The fit window opens at the first crossing below 50% of the initial gap
    and closes when the running envelope falls under 3x the Monte Carlo
    noise floor (or is supplied explicitly via ``window``).  Points are used
    when they sit within a factor of the local envelope (handles underdamped
    oscillation) and above the noise floor.  Bootstrap resamples refit inside
    the point-estimate window; their moments use the same arithmetic as
    ``ndarray.mean``/``var``, so they match those calls bit for bit.  Returns
    None with no fit when the signal starts below noise, never decays, or
    leaves fewer than 5 usable points; callers requiring the documented
    precondition should supply >= 20 window points.
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

    rng = np.random.default_rng(boot_seed)
    boots = []
    for _ in range(n_boot):
        # one gather, then ndarray.var's own ufunc sequence, in place
        b = per_replica[rng.integers(0, R, size=R)]
        bmean = b.mean(axis=0)
        b -= bmean
        np.square(b, out=b)
        bvar = b.sum(axis=0) / R
        bs = bmean - equilibrium_value
        bfit = _fit_lambda(times, bs, np.sqrt(bvar / R) + 1e-300, window=window)
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
