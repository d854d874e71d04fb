"""The benchmark's tracer (perfbench/tracer.py) patches langcert by name; the
names it looks up and the calls it makes must keep working against src/."""

import types
from pathlib import Path

import numpy as np

from langcert import potentials, simulator
from langcert.meanfield import ModelConfig
from langcert.potentials import PotentialSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # exec the source instead of importing it, so no bytecode cache is written
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def test_tracer_install_uninstall_restores_every_name():
    tracer = _load_tracer().Tracer().install()
    patched = list(tracer._restore)
    try:
        assert patched
        assert all(_current(owner, key) is not raw for owner, key, raw in patched)
        # lipschitz_from_model samples model_b0 through the module global
        potentials.lipschitz_from_model(PotentialSpec("quadratic", {"coef": 1.0}), None)
        assert tracer.counts["potentials.c_lip_nodes"] > 0
        # the pair-force counter calls W.is_zero()
        W = PotentialSpec("gaussian_bump", {"amplitude": 0.1, "width": 1.0, "sign": "attractive"},
                          role="interaction")
        model = ModelConfig(N=3, d=1, U=PotentialSpec("quadratic", {"coef": 1.0}), W=W)
        simulator.force_batch(model, np.zeros((2, 3, 1)))
        assert tracer.counts["meanfield.pair_evals"] == 18
    finally:
        tracer.uninstall()
    assert all(_current(owner, key) is raw for owner, key, raw in patched)


def test_tracer_counts_the_initial_draw_as_noise():
    # the initial state is the first two steps of every stream, so a run of
    # n steps draws (n + 2) R N d normals through NoiseStreams.normals
    R, N, d, n = 5, 3, 2, 300
    model = ModelConfig(N=N, d=d, U=PotentialSpec("quadratic", {"coef": 1.0}, dim=d))
    tracer = _load_tracer().Tracer().install()
    try:
        simulator.run(model, simulator.IntegratorConfig("baoab", 0.01), R, n * 0.01, 1)
        assert tracer.counts["simulator.normals"] == (n + 2) * R * N * d
    finally:
        tracer.uninstall()
