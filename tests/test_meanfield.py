import numpy as np
import pytest

from langcert.errors import InvalidSpecError, ResourceCapError
from langcert.meanfield import (
    _PAIR_SLAB,
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
    # N and d are integers, never a fraction, a string or a bool: N = 2.5
    # used to fail in a TypeError inside run, N = "2" on <, and d = True passed
    for N, d in ((2.5, 1), ("2", 1), (True, 1), (2, True), (2, 1.0)):
        with pytest.raises(InvalidSpecError, match=r"^[Nd] must be an integer >= [12], got "):
            ModelConfig(N=N, d=d, U=quad(1.0))


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
    rng = np.random.default_rng(3)
    for N, R in ((3, 7), (33, 3 * (_PAIR_SLAB // 33**2) + 1)):  # N = 33: four slabs
        model = ModelConfig(N=N, d=2, U=quad(1.0, d=2), W=bump(0.5, d=2))
        xs = rng.standard_normal((R, N, 2))
        fb = force_batch(model, xs)
        for k in range(R):
            assert fb[k].tobytes() == force(model, xs[k]).tobytes()


def pre_slab_force(model, x):
    # the pair force as written before slabs: psi of the radius, on the
    # whole (R, N, N, d) batch at once
    f = -model.U.gradient(x)
    diff = x[..., :, None, :] - x[..., None, :, :]
    psi = model.W.psi(np.sqrt((diff**2).sum(axis=-1)))
    f -= (psi[..., None] * diff).sum(axis=-2) / model.N
    return f


def interactions(d):
    return [
        quad(0.7, d=d, role="interaction"),
        PotentialSpec("quartic_double_well", {"quartic": 0.2, "well": 0.6}, dim=d, role="interaction"),
        bump(0.8, w=1.1, d=d),
        bump(0.8, w=1.1, d=d, sign="repulsive"),
        PotentialSpec("cosine", {"amplitude": 0.3, "frequency": 1.3}, dim=d, role="interaction"),
    ]


def slab_spanning_batch(N, d, seed):
    # three full slabs and a short fourth one
    R = 3 * max(1, _PAIR_SLAB // N**2) + 2
    return np.random.default_rng(seed).standard_normal((R, N, d)) * 1.5


@pytest.mark.parametrize("N", [2, 5, 33])
@pytest.mark.parametrize("W", interactions(1), ids=lambda w: f"{w.family}{w.params.get('sign', '')}")
def test_force_batch_d1_matches_pre_slab_formula(W, N):
    model = ModelConfig(N=N, d=1, U=PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=1), W=W)
    x = slab_spanning_batch(N, 1, 11)
    assert force_batch(model, x).tobytes() == pre_slab_force(model, x).tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", [2, 5, 33])
def test_force_batch_near_pre_slab_formula_in_higher_d(d, N):
    # in d >= 2, sqrt then square rounds: only psi's argument moves
    for W in interactions(d):
        model = ModelConfig(N=N, d=d, U=quad(1.0, d=d), W=W)
        x = slab_spanning_batch(N, d, 12)
        f, ref = force_batch(model, x), pre_slab_force(model, x)
        assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()


def fresh_buffer_slab_force(model, x):
    # the slab loop with new temporaries in every slab and psi_sq returning
    # a new array, as written before the slab buffers were reused
    f = -model.U.gradient(x)
    N, d = x.shape[-2:]
    slab = max(1, _PAIR_SLAB // (N * N))
    for lo in range(0, x.shape[0], slab):
        xb = x[lo:lo + slab]
        diff = xb[:, :, None, :] - xb[:, None, :, :]
        s = diff[..., 0] ** 2
        for k in range(1, d):
            s += diff[..., k] ** 2
        diff *= model.W.psi_sq(s)[..., None]
        f[lo:lo + slab] -= diff.sum(axis=-2) / N
    return f


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 8, 32])
def test_force_batch_matches_the_fresh_buffer_slab_loop(N, d):
    # two full slabs and a short third one, and a batch shorter than a slab
    slab = _PAIR_SLAB // N**2
    rng = np.random.default_rng(N + d)
    for W in interactions(d):
        model = ModelConfig(N=N, d=d, U=quad(1.0, d=d), W=W)
        for R in (2 * slab + 3, 3):
            x = rng.standard_normal((R, N, d)) * 1.5
            assert force_batch(model, x).tobytes() == fresh_buffer_slab_force(model, x).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 5, 33])
def test_force_batch_rows_do_not_depend_on_batch(d, N):
    W = PotentialSpec("quartic_double_well", {"quartic": 0.2, "well": 0.6}, dim=d, role="interaction")
    model = ModelConfig(N=N, d=d, U=quad(1.0, d=d), W=W)
    x = slab_spanning_batch(N, d, 13)
    f = force_batch(model, x)
    for k in range(x.shape[0]):
        assert f[k].tobytes() == force_batch(model, x[k:k + 1])[0].tobytes()


def test_force_permutation_equivariance():
    # relabelling reorders each row's pair sum, so the rows agree up to the
    # recursive-summation bound (N-1) eps sum_j |psi(r_ij)(x_i - x_j)| / N,
    # plus one rounding of the subtraction from -grad U(x_i)
    N, eps = 5, np.finfo(float).eps
    model = ModelConfig(N=N, d=2, U=quad(1.0, d=2), W=bump(0.9, d=2))
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((N, 2))
        perm = rng.permutation(N)
        f = force(model, x)
        f_perm = force(model, x[perm])
        diff = x[:, None, :] - x[None, :, :]
        terms = np.abs(model.W.psi(np.sqrt((diff**2).sum(axis=-1)))[..., None] * diff).sum(axis=1)
        bound = (N - 1) * eps * terms / N + eps * np.abs(f)
        assert np.all(np.abs(f_perm - f[perm]) <= bound[perm]), seed


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


def test_hessian_blocks_match_block_loops():
    def block_loops(model, x):
        # the block-by-block assembly that the reshape replaced
        N, d = model.N, model.d
        H_U = np.zeros((N * d, N * d))
        hu = model.U.hessian(x)
        for i in range(N):
            H_U[i * d:(i + 1) * d, i * d:(i + 1) * d] = hu[i]
        H_W = np.zeros((N * d, N * d))
        if model.W is not None:
            diff = x[:, None, :] - x[None, :, :]
            hw = model.W.hessian(diff)
            for i in range(N):
                acc = np.zeros((d, d))
                for j in range(N):
                    if i == j:
                        continue
                    H_W[i * d:(i + 1) * d, j * d:(j + 1) * d] = -hw[i, j] / N
                    acc += hw[i, j]
                H_W[i * d:(i + 1) * d, i * d:(i + 1) * d] = acc / N
        return H_U, H_W

    rng = np.random.default_rng(14)
    for d in (1, 2, 3):
        U = PotentialSpec("quartic_double_well", {"quartic": 0.25, "well": 0.5}, dim=d)
        for W in (None, *interactions(d)):
            for N in (2, 9, 40):
                model = ModelConfig(N=N, d=d, U=U, W=W)
                x = rng.standard_normal((N, d)) * 1.5
                blocks = hessian_blocks(model, x)
                H_U, H_W = block_loops(model, x)
                assert blocks.H_U.tobytes() == H_U.tobytes()
                assert blocks.H_W.tobytes() == H_W.tobytes()


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
