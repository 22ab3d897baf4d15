import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import proportional
from spinorlab.clifford import gamma_set, pauli
from spinorlab.linalg import (cond2, expm, mat_max, polar_unitary,
                              svd_nullspace, unitarity_defect, worst)


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
    s, vh, nullity = svd_nullspace(np.diag([1.0, 0.0]), 1e-10)
    assert nullity.shape == () and nullity == 1
    assert proportional(_basis(vh, nullity), np.array([[0.0, 1.0]]))


def test_nullspace_full_rank_unitary_empty():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    s, vh, nullity = svd_nullspace(q, 1e-10)
    assert nullity == 0 and _basis(vh, nullity).shape == (0, 4)


def test_nullspace_zero_matrix_flagged():
    s, vh, nullity = svd_nullspace(np.zeros((3, 3)), 1e-10)
    assert nullity == 3 and not s.any()
    assert np.array_equal(_basis(vh, nullity), np.eye(3))


def test_nullspace_rejects_bad_tol():
    with pytest.raises(ValueError):
        svd_nullspace(np.eye(2), 0.0)


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
    tol = 1e-8
    s, vh, nullity = svd_nullspace(m, tol)
    assert nullity >= dim - rank
    for v in _basis(vh, nullity):
        assert np.linalg.norm(m @ v) <= 10 * tol * smax


def test_worst_is_the_max_and_zero_for_none():
    assert worst([]) == 0.0
    assert worst(iter([1e-16, 3.0, 2.0])) == 3.0
    assert worst([np.float64(0.5), np.inf]) == np.inf


@pytest.mark.parametrize("at", range(4))
def test_worst_propagates_nan_at_any_position(at):
    values = [1e-16, 2.0, 0.0, 1.0]
    values[at] = np.nan
    assert np.isnan(worst(values))


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
