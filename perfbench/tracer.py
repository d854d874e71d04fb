"""Span tracing of langcert's modules from the benchmark side.

The tracer replaces, for the duration of a traced pass, the functions each
caller looks up with wrappers that record one span per call (name, start,
end, parent) in memory and count the work the call did.  It patches the name
the caller actually uses: the simulator imported ``force_batch`` by name, so
``langcert.simulator.force_batch`` is wrapped, not the one in ``meanfield``.
Nothing in the package changes; ``uninstall`` restores every original.

Calls inside a module (for example ``PotentialSpec.psi`` from the pair force)
are not spans: they run millions of times and belong to their caller's time.
A layer is the module prefix of a span name, and a layer's self time is the
time its spans spend outside their child spans.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with per-name work counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def replace(self, owner, key: str, new) -> None:
        """Set ``owner.key`` (or ``owner[key]`` for a dict) until uninstall."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._restore.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def wrap(self, owner, key: str, name: str, count=None) -> None:
        """Trace every call of ``owner.key`` as a span called ``name``.

        ``count(counts, args, result)`` adds the call's work to the counters.
        Class methods stay class methods, plain functions in a class dict
        still bind ``self``.
        """
        raw = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        self.replace(owner, key, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def tally(self, owner, key: str, counter: str) -> None:
        """Count the calls of ``owner.key`` without a span."""
        fn = vars(owner)[key]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        self.replace(owner, key, counted)

    def install(self) -> "Tracer":
        """Wrap every layer boundary of langcert."""
        from langcert import certifier, funcineq, oracle, potentials, simulator

        # cli -> certifier / oracle / simulator, by module attribute
        self.wrap(certifier, "assemble_constants", "certifier.assemble_constants")
        self.wrap(certifier, "certify", "certifier.certify")
        self.wrap(oracle, "oracle_suite", "oracle.suite")
        for key in ("n_sweep", "run", "fit_decay"):  # n_sweep calls run and fit_decay as globals
            self.wrap(simulator, key, f"simulator.{key}")

        # certifier -> potentials (pot.X) and funcineq (funcineq.X); the
        # oracle imports extract_constants and spectral_gap at call time
        self.wrap(potentials, "extract_constants", "potentials.extract_constants")
        self.wrap(potentials, "convexity_at_infinity_fit", "potentials.convexity_fit")
        self.wrap(potentials, "lipschitz_from_model", "potentials.c_lip")
        self.replace(potentials, "model_b0", self._counting_model_b0(potentials.model_b0))
        for key in ("kappa_bakry_emery", "upi_criterion", "kappa_dissipativity",
                    "lsi_transfer", "ulsi_criterion"):
            self.wrap(funcineq, key, "funcineq.criteria")
        self.wrap(funcineq, "spectral_gap", "funcineq.spectral_gap")

        # oracle -> its own verifiers (globals) and funcineq.GridMeasure
        for key in ("verify_lyapunov_lemma", "verify_moment_bound", "verify_boundedness_condition"):
            self.wrap(oracle, key, "oracle.verify")
        self.wrap(oracle, "fd_derivative_suite", "oracle.fd_suite")
        for key in ("from_potential", "from_pair_model"):
            self.wrap(funcineq.GridMeasure, key, "funcineq.grid_measure")
        self.wrap(funcineq.GridMeasure, "expectation", "funcineq.expectation")

        # simulator -> meanfield, noise and observables; funcineq also
        # imported force_batch by name for the pair-grid gradients
        self.wrap(simulator, "force_batch", "meanfield.force_batch", _count_force)
        self.wrap(funcineq, "force_batch", "meanfield.force_batch", _count_force)
        self.wrap(simulator.NoiseStreams, "normals", "simulator.noise", _count_normals)
        for key in list(simulator.OBSERVABLES):
            self.wrap(simulator.OBSERVABLES, key, "simulator.observables")
        self.tally(simulator, "_fit_lambda", "simulator.fit_lambda_calls")
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, key, raw = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = raw
            else:
                setattr(owner, key, raw)

    def _counting_model_b0(self, model_b0):
        """model_b0 whose b0 callable counts the radii it is sampled at,
        i.e. the c_lip quadrature nodes over the whole doubling schedule."""
        counts = self.counts

        @functools.wraps(model_b0)
        def counted_model_b0(U, W):
            b0 = model_b0(U, W)

            def b0_counted(rs):
                counts["potentials.c_lip_nodes"] += int(np.size(rs))
                return b0(rs)

            return b0_counted

        return counted_model_b0

    # -- summaries ---------------------------------------------------------

    def durations(self) -> defaultdict:
        """Total duration per span name (nested same-name spans do not occur)."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> tuple[defaultdict, defaultdict]:
        """Self time per span name and per layer (the name's module prefix)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name, by_layer = defaultdict(float), defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            by_name[name] += end - start - inner
            by_layer[name.split(".", 1)[0]] += end - start - inner
        return by_name, by_layer


def _count_force(counts, args, result) -> None:
    model, x = args[0], args[1]
    counts["meanfield.force_calls"] += 1
    if model.W is not None and not model.W.is_zero():
        # force_batch evaluates psi on the full (..., N, N) pair array
        shape = np.shape(x)
        counts["meanfield.pair_evals"] += math.prod(shape[:-1]) * shape[-2]


def _count_normals(counts, args, result) -> None:
    counts["simulator.normals"] += int(result.size)
