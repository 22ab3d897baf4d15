import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import proportional
from spinorlab.clifford import gamma_set, pauli
from spinorlab.linalg import (TOL_NULLSPACE, cond2, expm, mat_max,
                              polar_unitary, svd_nullspace, unitarity_defect)


def series_expm(m, terms=30):
    """Independent oracle: direct Taylor summation."""
    out = np.eye(m.shape[0], dtype=complex)
    acc = np.eye(m.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        acc = acc @ m / n
        out = out + acc
    return out


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_expm_zero_is_identity():
    assert mat_max(expm(np.zeros((2, 2))) - np.eye(2)) == 0.0


@pytest.mark.parametrize("e3", [1.0, -1.0])
def test_expm_quarter_pi_gamma3(e3):
    # exp((pi/4) gamma3 e3) = (1 + gamma3 e3)/sqrt(2)
    g3 = gamma_set("rep26").gamma(3)
    got = expm(0.25 * np.pi * e3 * g3)
    want = (np.eye(4) + e3 * g3) / np.sqrt(2.0)
    assert mat_max(got - want) < 1e-14


def test_expm_against_series_oracle():
    theta = 0.7
    m = 1j * theta * pauli(3)
    got = expm(m)
    assert mat_max(got - series_expm(m)) < 1e-13
    frozen = np.diag([0.7648421872844885 + 0.6442176872376911j,
                      0.7648421872844885 - 0.6442176872376911j])
    assert mat_max(got - frozen) < 1e-13


def test_expm_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        expm(bad)


@pytest.mark.parametrize("m, match", [
    (pauli(1), "anti-Hermitian"),
    (np.array([[1j, 2.0], [0.5j, -1.0]]), "anti-Hermitian"),
    (np.array([[1j, np.nan], [1.0, -1j]]), "non-finite"),
], ids=["hermitian", "general", "nan"])
def test_expm_rejects_non_antihermitian_input(m, match):
    with pytest.raises(ValueError, match=match):
        expm(m)


def _basis(vh, nullity):
    """The nullspace basis the arrays of one matrix encode, one per row."""
    return vh[len(vh) - nullity:].conj()


def test_nullspace_rank_deficient_diag():
    s, vh, nullity = svd_nullspace(np.diag([1.0, 0.0]))
    assert nullity.shape == () and nullity == 1
    assert proportional(_basis(vh, nullity), np.array([[0.0, 1.0]]))


def test_nullspace_full_rank_unitary_empty():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    s, vh, nullity = svd_nullspace(q)
    assert nullity == 0 and _basis(vh, nullity).shape == (0, 4)


def test_nullspace_zero_matrix_flagged():
    s, vh, nullity = svd_nullspace(np.zeros((3, 3)))
    assert nullity == 3 and not s.any()
    assert np.array_equal(_basis(vh, nullity), np.eye(3))


@pytest.mark.parametrize("scale, nullity", [(0.5, 1), (2.0, 0)])
def test_nullspace_threshold_is_tol_nullspace(scale, nullity):
    # sigma below TOL_NULLSPACE * sigma_max is null, at or above it is not
    s, vh, got = svd_nullspace(np.diag([1.0, scale * TOL_NULLSPACE]))
    assert got == nullity
    assert s[1] == scale * TOL_NULLSPACE


def test_polar_scaling_removal():
    assert mat_max(polar_unitary(2.0 * np.eye(3)) - np.eye(3)) < 1e-14
    assert mat_max(polar_unitary(3.0 * pauli(1)) - pauli(1)) < 1e-14


def test_polar_complex_phase():
    got = polar_unitary((1 + 1j) * pauli(2))
    want = (1 + 1j) / np.sqrt(2.0) * pauli(2)
    assert mat_max(got - want) < 1e-14
    # SVD-based oracle: U = W Vh from the SVD of the input
    w, _, vh = np.linalg.svd((1 + 1j) * pauli(2))
    assert mat_max(got - w @ vh) < 1e-14


def test_polar_rejects_singular():
    with pytest.raises(ValueError, match="no unitary"):
        polar_unitary(np.diag([1.0, 0.0]))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_polar_is_w_vh_of_one_svd(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, (dim, dim))
    w, _, vh = np.linalg.svd(m)
    got = polar_unitary(m)
    assert np.array_equal(got, w @ vh)
    assert unitarity_defect(got) <= 1e-14
    with pytest.raises(ValueError, match="no unitary"):
        polar_unitary(m[:, :1] @ random_complex(rng, (1, dim)))


def test_cond2_of_a_stack_is_per_matrix():
    stack = np.array([np.diag([1.0, 4.0]), np.eye(2), np.diag([1.0, 0.0])])
    got = cond2(stack)
    assert got.shape == (3,)
    assert list(got) == [cond2(m) for m in stack] == [4.0, 1.0, np.inf]


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_expm_inverse_identity(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, (dim, dim))
    m = 0.5 * (m - m.conj().T)
    m *= 5.0 / max(np.linalg.norm(m, 2), 1e-12)
    assert mat_max(expm(m) @ expm(-m) - np.eye(dim)) < 1e-11
    # m^dagger = -m, passed as a non-contiguous transposed view
    assert mat_max(expm(m) @ expm(m.conj().T) - np.eye(dim)) < 1e-11


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_expm_antihermitian_gives_unitary(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, (dim, dim))
    m = 0.5 * (m - m.conj().T)
    m *= 5.0 / max(np.linalg.norm(m, 2), 1e-12)
    assert unitarity_defect(expm(m)) < 1e-11


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 3))
def test_nullspace_vectors_annihilate(seed, dim, rank):
    rank = min(rank, dim - 1)
    rng = np.random.default_rng(seed)
    a = random_complex(rng, (dim, rank))
    b = random_complex(rng, (rank, dim))
    m = a @ b                                   # rank-deficient by construction
    smax = np.linalg.svd(m, compute_uv=False)[0]
    s, vh, nullity = svd_nullspace(m)
    assert nullity >= dim - rank
    for v in _basis(vh, nullity):
        assert np.linalg.norm(m @ v) <= 10 * TOL_NULLSPACE * smax


def test_worst_is_the_max_and_zero_for_none():
    # the worst |entry| over every array mat_max is given
    assert mat_max() == 0.0
    assert mat_max(np.zeros((0, 4))) == 0.0
    assert mat_max(np.zeros((0, 4)), np.array([[-2.0, 1j]])) == 2.0
    assert mat_max(*iter([1e-16, 3.0, 2.0])) == 3.0
    assert mat_max(np.full(3, 1e-16), np.array([-3.0, 1.0]), 2j * np.eye(2)) \
        == 3.0
    assert mat_max(np.float64(0.5), np.array([np.inf])) == np.inf


@pytest.mark.parametrize("at", range(4))
def test_worst_propagates_nan_at_any_position(at):
    values = [1e-16, 2.0, 0.0, 1.0]
    values[at] = np.nan
    assert np.isnan(mat_max(*values))
    assert np.isnan(mat_max(*(np.full((2, 2), v) for v in values)))


def test_mat_max_sees_a_later_nan_and_returns_a_float():
    later = np.zeros((3, 2, 2), dtype=complex)
    later[1, 0, 1] = np.nan
    assert np.isnan(mat_max(np.ones((2, 3)), later, np.array([5.0])))
    for args in ((), (np.array([3]),), (np.array([[1 + 1j]]), np.float32(0.5)),
                 (np.array([np.inf]),)):
        assert type(mat_max(*args)) is float
    assert mat_max(np.array([[1 + 1j]]), np.float32(0.5)) == abs(1 + 1j)


def test_nullspace_of_wide_matrix():
    # fewer rows than columns: the nullspace lies in the rows of the full vh
    m = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
    s, vh, nullity = svd_nullspace(m)
    assert nullity == 2 and s.all()
    assert mat_max(s - np.linalg.svd(m, compute_uv=False)) < 1e-14
    v = _basis(vh, nullity)
    assert mat_max(v @ v.conj().T - np.eye(2)) < 1e-14
    for x in v:
        assert mat_max(m @ x) < 1e-14


# -- stacks: one LAPACK call, each member as its own 2-D call -------------------

def _member(stack, *at):
    """The arrays of member ``at`` of a stacked call."""
    return tuple(part[at] for part in stack)


def _same_nullspace(got, want):
    assert len(got) == len(want) == 3
    for x, y in zip(got, want):
        assert x.shape == y.shape and np.array_equal(x, y)


def _rank_deficient_stacks(rng):
    """Wide and tall stacks (the shapes of 2x2 and 4x4 Sylvester maps among
    them), each with a zero member and a rank-deficient one."""
    stacks = []
    for shape in ((3, 2, 5), (3, 48, 4), (3, 192, 16)):
        m = random_complex(rng, shape)
        m[1] = 0.0
        m[2, :, -1] = (1 - 2j) * m[2, :, 0]
        stacks.append(m)
    return stacks


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10_000))
def test_stacked_nullspace_is_each_members_own(seed):
    for stack in _rank_deficient_stacks(np.random.default_rng(seed)):
        got = svd_nullspace(stack)
        nullity = got[2]
        assert nullity.shape == (len(stack),)
        for at, m in enumerate(stack):
            _same_nullspace(_member(got, at), svd_nullspace(m))
        # the zero member: nullity cols and the identity basis
        assert nullity[1] == stack.shape[-1]
        assert np.array_equal(_basis(*_member(got, 1)[1:]),
                              np.eye(stack.shape[-1]))
        assert 0 < nullity[2] < stack.shape[-1]
        nested = svd_nullspace(stack.reshape((1,) + stack.shape))
        assert nested[2].shape == (1, len(stack))
        for at in range(len(stack)):
            _same_nullspace(_member(nested, 0, at), _member(got, at))


@pytest.mark.parametrize("shape", [(3, 3), (2, 5), (3, 48, 4), (3, 2, 5)],
                         ids=["3x3", "2x5", "stack-48x4", "stack-2x5"])
def test_nullspace_of_a_zero_member_is_the_identity_whatever_lapack_gives(
        monkeypatch, shape):
    # LAPACK itself returns the identity Vh for a zero matrix; an SVD that
    # returns another unitary shows the identity is svd_nullspace's own
    rng = np.random.default_rng(11)
    m = random_complex(rng, shape)
    m[...] = 0.0
    if m.ndim == 3:
        m[0] = random_complex(rng, shape[1:])
    want = svd_nullspace(m)
    svd, zero_members = np.linalg.svd, []

    def rotated(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        zero = ~np.asarray(a).any(axis=(-2, -1))
        zero_members.append(int(zero.sum()))
        vh[zero] = np.linalg.qr(random_complex(rng, vh.shape[-2:]))[0]
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", rotated)
    got = svd_nullspace(m)
    monkeypatch.undo()
    assert sum(zero_members) == (1 if m.ndim == 2 else len(m) - 1)
    _same_nullspace(got, want)
    n = shape[-1]
    for _, vh, nullity in ([got] if m.ndim == 2 else
                           [_member(got, at) for at in range(1, len(m))]):
        assert nullity == n and np.array_equal(_basis(vh, nullity), np.eye(n))


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10_000))
def test_stacked_cond2_is_each_members_own(seed):
    for stack in _rank_deficient_stacks(np.random.default_rng(seed)):
        got = cond2(stack)
        assert np.array_equal(got, [cond2(m) for m in stack])
        assert got[1] == np.inf


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_stacked_polar_is_each_members_own(seed, dim):
    rng = np.random.default_rng(seed)
    stack = random_complex(rng, (2, 3, dim, dim))
    got = polar_unitary(stack)
    assert got.shape == stack.shape
    for row, want in zip(got, stack):
        for u, m in zip(row, want):
            assert np.array_equal(u, polar_unitary(m))
    stack[1, 2] = stack[1, 2, :, :1] @ random_complex(rng, (1, dim))
    with pytest.raises(ValueError, match="no unitary"):
        polar_unitary(stack)
    stack[1, 2] = 0.0
    with pytest.raises(ValueError, match="no unitary"):
        polar_unitary(stack)


# -- the R factor: the nullspace of a direct SVD, and no tall SVD -------------

def _direct_nullspace(m):
    """Reference: singular values, nullity and null-space projector of one
    matrix from np.linalg.svd of m itself."""
    _, s, vh = np.linalg.svd(m)
    k = m.shape[1] - int((s >= TOL_NULLSPACE * s[0]).sum())
    basis = vh[len(vh) - k:].conj()
    return s, k, basis.T @ basis.conj()


@pytest.mark.parametrize("shape, rank", [
    ((48, 4), 2), ((192, 16), 11), ((4, 4), 2), ((2, 5), 1),
    ((3, 48, 4), 3), ((3, 192, 16), 13), ((3, 4, 4), 3), ((3, 2, 5), 1)],
    ids=["48x4", "192x16", "4x4", "2x5", "stack-48x4", "stack-192x16",
         "stack-4x4", "stack-2x5"])
def test_nullspace_from_r_matches_a_direct_svd(monkeypatch, shape, rank):
    rng = np.random.default_rng(sum(shape))
    m = (random_complex(rng, shape[:-1] + (rank,))
         @ random_complex(rng, shape[:-2] + (rank, shape[-1])))
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    out = svd_nullspace(m)
    monkeypatch.undo()
    assert shapes and all(sh[-2] <= sh[-1] for sh in shapes)
    for at, mm in enumerate(m.reshape((-1,) + shape[-2:])):
        got = _member(out, at) if m.ndim == 3 else out
        want_s, want_k, want_p = _direct_nullspace(mm)
        assert got[2] == want_k == shape[-1] - rank
        assert mat_max(got[0] - want_s) <= 1e-13 * want_s[0]
        basis = _basis(*got[1:])
        assert mat_max(basis.T @ basis.conj() - want_p) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf],
                         ids=["nan", "inf", "-inf", "1j*inf"])
@pytest.mark.parametrize("shape", [(48, 4), (4, 4), (2, 5), (3, 192, 16)],
                         ids=["48x4", "4x4", "2x5", "stack-192x16"])
def test_nullspace_rejects_a_non_finite_entry(shape, bad):
    # fail closed: nullity cols would put every vector in the nullspace
    m = random_complex(np.random.default_rng(3), shape)
    m[(1,) * (len(shape) - 2) + (1, 1)] = bad
    with pytest.raises(np.linalg.LinAlgError):
        svd_nullspace(m)
