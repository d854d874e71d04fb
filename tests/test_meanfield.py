import numpy as np
import pytest

from langcert.errors import InvalidSpecError, ResourceCapError
from langcert.meanfield import (
    ModelConfig,
    force,
    force_batch,
    hessian_blocks,
    hw_opnorm,
    total_potential,
)
from langcert.potentials import PotentialSpec


def quad(c, d=1, role="confinement"):
    return PotentialSpec("quadratic", {"coef": c}, dim=d, role=role)


def bump(a, w=1.0, d=1, sign="attractive"):
    return PotentialSpec("gaussian_bump", {"amplitude": a, "width": w, "sign": sign}, dim=d, role="interaction")


MODEL_QQ = ModelConfig(N=2, d=1, U=quad(1.0), W=quad(1.0, role="interaction"))


def test_model_validation():
    with pytest.raises(InvalidSpecError):
        ModelConfig(N=1, d=1, U=quad(1.0))
    with pytest.raises(InvalidSpecError):
        ModelConfig(N=2, d=2, U=quad(1.0))  # dim mismatch
    with pytest.raises(InvalidSpecError):
        ModelConfig(N=2, d=1, U=quad(1.0), W=quad(1.0))  # wrong role


def test_total_potential_hand_value():
    # N=2, U quad(1), W quad(1), x = (1, -1), with W(y) = y^2/2:
    # U-part U(1) + U(-1) = 1; W-part (1/4)(W(0) + W(2) + W(-2) + W(0)) = 1
    x = np.array([[1.0], [-1.0]])
    v = total_potential(MODEL_QQ, x)
    w = MODEL_QQ.W
    w_part = (w.value(np.array([0.0])) + w.value(np.array([2.0]))
              + w.value(np.array([-2.0])) + w.value(np.array([0.0]))) / 4
    assert v == pytest.approx(1.0 + float(w_part), abs=1e-14)
    assert v == pytest.approx(2.0, abs=1e-14)


def test_total_potential_coincident_particles():
    w = bump(1.3)
    model = ModelConfig(N=5, d=1, U=quad(1.0), W=w)
    x = np.full((5, 1), 0.7)
    w0 = float(w.profile(np.zeros(1))[0])
    expected_w_part = 5**2 * w0 / (2 * 5)
    assert total_potential(model, x) == pytest.approx(5 * 0.5 * 0.49 + expected_w_part, abs=1e-13)


def test_total_potential_no_interaction():
    model = ModelConfig(N=3, d=2, U=quad(2.0, d=2))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2))
    assert total_potential(model, x) == pytest.approx(float(model.U.value(x).sum()), abs=1e-14)


@pytest.mark.parametrize("model", [
    MODEL_QQ,
    ModelConfig(N=4, d=1, U=PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1), W=bump(0.8)),
    ModelConfig(N=3, d=2, U=quad(1.0, d=2), W=bump(0.5, d=2, sign="repulsive")),
], ids=["quad-quad", "dw-bump", "2d"])
def test_force_matches_fd_of_potential(model):
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal((model.N, model.d)) * 1.5
        f = force(model, x)
        fd = np.empty_like(x)
        for i in range(model.N):
            for a in range(model.d):
                h = 1e-6 * (1 + abs(x[i, a]))
                xp, xm = x.copy(), x.copy()
                xp[i, a] += h
                xm[i, a] -= h
                fd[i, a] = -(total_potential(model, xp) - total_potential(model, xm)) / (2 * h)
        scale = max(1.0, np.abs(f).max())
        assert np.abs(f - fd).max() / scale < 1e-6


def test_interaction_force_newton_third_law():
    model = ModelConfig(N=2, d=1, U=quad(0.0), W=bump(1.0))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1)) * 2
    f = force(model, x)
    assert abs(f[0, 0] + f[1, 0]) < 1e-12


def test_force_zero_at_minimizer():
    model = ModelConfig(N=3, d=1, U=quad(1.0), W=quad(0.5, role="interaction"))
    x = np.zeros((3, 1))
    assert np.abs(force(model, x)).max() == 0.0


def test_force_batch_matches_single():
    model = ModelConfig(N=3, d=2, U=quad(1.0, d=2), W=bump(0.5, d=2))
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((7, 3, 2))
    fb = force_batch(model, xs)
    for k in range(7):
        assert np.allclose(fb[k], force(model, xs[k]), atol=1e-14)


def test_force_permutation_equivariance():
    model = ModelConfig(N=5, d=2, U=quad(1.0, d=2), W=bump(0.9, d=2))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 2))
    perm = rng.permutation(5)
    f = force(model, x)
    f_perm = force(model, x[perm])
    assert np.array_equal(f_perm, f[perm])


# ---------------------------------------------------------------------------
# hessian blocks
# ---------------------------------------------------------------------------

def test_hessian_quadratic_interaction_projector():
    # d=1, W(y) = y^2/2: N H_W = N I - p p^T
    for N in (2, 3, 7):
        model = ModelConfig(N=N, d=1, U=quad(1.0), W=quad(1.0, role="interaction"))
        x = np.random.default_rng(5).standard_normal((N, 1))
        blocks = hessian_blocks(model, x)
        p = np.ones((N, 1))
        expected = (N * np.eye(N) - p @ p.T) / N
        assert np.allclose(blocks.H_W, expected, atol=1e-14)
        eigs = np.linalg.eigvalsh(blocks.H_W)
        assert np.allclose(np.sort(eigs), [0.0] + [1.0] * (N - 1), atol=1e-12)


def test_hessian_no_interaction_zero():
    model = ModelConfig(N=3, d=1, U=quad(1.0))
    blocks = hessian_blocks(model, np.zeros((3, 1)))
    assert np.all(blocks.H_W == 0.0)


def test_hessian_row_block_sums_vanish():
    model = ModelConfig(N=4, d=2, U=quad(1.0, d=2), W=bump(1.2, d=2))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2))
    blocks = hessian_blocks(model, x)
    d = 2
    for i in range(4):
        row = sum(blocks.H_W[i * d:(i + 1) * d, j * d:(j + 1) * d] for j in range(4))
        assert np.abs(row).max() < 1e-12
    assert np.abs(blocks.H_W - blocks.H_W.T).max() < 1e-14
    assert np.abs(blocks.H_U - blocks.H_U.T).max() < 1e-14


def test_hessian_matches_fd_of_potential():
    model = ModelConfig(N=3, d=1, U=PotentialSpec("quartic_double_well", {"quartic": 0.3, "well": 0.4}, dim=1), W=bump(0.7))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 1))
    H = hessian_blocks(model, x).total
    n = 3
    fd = np.empty((n, n))
    h = 1e-5
    for i in range(n):
        for j in range(n):
            xs = [x.copy() for _ in range(4)]
            xs[0][i, 0] += h; xs[0][j, 0] += h
            xs[1][i, 0] += h; xs[1][j, 0] -= h
            xs[2][i, 0] -= h; xs[2][j, 0] += h
            xs[3][i, 0] -= h; xs[3][j, 0] -= h
            fd[i, j] = (total_potential(model, xs[0]) - total_potential(model, xs[1])
                        - total_potential(model, xs[2]) + total_potential(model, xs[3])) / (4 * h * h)
    assert np.abs(H - fd).max() / max(1.0, np.abs(H).max()) < 1e-5


def test_hessian_cap():
    model = ModelConfig(N=5000, d=1, U=quad(1.0), W=quad(1.0, role="interaction"))
    with pytest.raises(ResourceCapError):
        hessian_blocks(model, np.zeros((5000, 1)))


# ---------------------------------------------------------------------------
# hw_opnorm
# ---------------------------------------------------------------------------

def test_hw_opnorm_quadratic_exact_one():
    for N in (2, 5, 16):
        model = ModelConfig(N=N, d=1, U=quad(1.0), W=quad(1.0, role="interaction"))
        x = np.random.default_rng(8).standard_normal((N, 1))
        assert hw_opnorm(model, x) == pytest.approx(1.0, abs=1e-7)


def test_hw_opnorm_bounded_by_K_dense_oracle():
    w = bump(2.0)
    rng = np.random.default_rng(9)
    checked = 0
    for N in range(2, 17):
        model = ModelConfig(N=N, d=1, U=quad(1.0), W=w)
        for _ in range(64):
            x = rng.standard_normal((N, 1)) * rng.uniform(0.5, 3)
            op = hw_opnorm(model, x)
            dense = np.abs(np.linalg.eigvalsh(hessian_blocks(model, x).H_W)).max()
            assert op == pytest.approx(dense, rel=1e-6, abs=1e-8)
            assert op <= 2.0 + 1e-8
            checked += 1
    assert checked >= 64 * 15


def test_hw_opnorm_zero_interaction():
    model = ModelConfig(N=4, d=1, U=quad(1.0))
    assert hw_opnorm(model, np.zeros((4, 1))) == 0.0


def test_hw_eigenvalue_bounds_sharpened():
    # hess W <= lam_M I  =>  max eig H_W <= lam_M^+ ; and the lower analogue
    rng = np.random.default_rng(10)
    for w in (bump(1.5), bump(1.5, sign="repulsive"), quad(0.8, role="interaction")):
        lo, hi = w.hess_eig_bounds()
        for N in (2, 5, 9):
            model = ModelConfig(N=N, d=1, U=quad(1.0), W=w)
            for _ in range(40):
                x = rng.standard_normal((N, 1)) * rng.uniform(0.3, 3)
                eigs = np.linalg.eigvalsh(hessian_blocks(model, x).H_W)
                assert eigs.max() <= max(hi, 0.0) + 1e-9
                assert eigs.min() >= -max(-lo, 0.0) - 1e-9
