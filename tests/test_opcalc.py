import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import nan_at
from spinorlab import dual
from spinorlab.clifford import pauli
from spinorlab.equations import abs_p3, catalog_unitary, energy
from spinorlab.linalg import mat_max
from spinorlab.opcalc import (DiffOp1, OperatorField, conjugate_by_unitary,
                              diffop_commutator, sample_momenta)
from spinorlab.poincare import generator_set


def richardson_derivative(f, p, k, h=1e-4):
    """Finite-difference oracle with one Richardson extrapolation step."""
    def central(step):
        up = list(p); dn = list(p)
        up[k] += step; dn[k] -= step
        return (f(tuple(up)) - f(tuple(dn))) / (2 * step)
    return (4.0 * central(h / 2) - central(h)) / 3.0


# -- sampling ---------------------------------------------------------------

def test_sampler_deterministic():
    assert sample_momenta(3, 6, 11) == sample_momenta(3, 6, 11)
    assert sample_momenta(3, 6, 11) != sample_momenta(3, 6, 12)


def test_sampler_exclusions():
    for p in sample_momenta(3, 4, 42):
        assert all(0.1 <= abs(c) <= 10.0 for c in p)
        assert abs(p[2]) >= 0.05
        assert p[0] ** 2 + p[1] ** 2 >= 0.0025


def test_sampler_covers_both_p3_signs():
    for n in (4, 12):
        signs = {np.sign(p[2]) for p in sample_momenta(3, n, 42)}
        assert signs == {1.0, -1.0}


def rejection_loop_sample_momenta(d, n, seed):
    """The earlier per-point rejection sampler, kept as the reference."""
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n):
        for _ in range(1000):
            comps = [float(s * m) for s, m in zip(
                np.where(rng.uniform(size=d) < 0.5, 1.0, -1.0),
                rng.uniform(0.1, 10.0, size=d))]
            if d >= 3 and n >= 4:
                comps[2] = abs(comps[2]) * (1.0 if i % 2 == 0 else -1.0)
            if ((d < 3 or abs(comps[2]) >= 0.05)
                    and (d < 2 or comps[0] ** 2 + comps[1] ** 2 >= 0.0025)):
                break
        else:
            raise ValueError("exclusion rules too strict for the sample box")
        pts.append(tuple(comps))
    return pts


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]),
       st.sampled_from([1, 3, 4, 8, 12]))
def test_sampler_is_bit_identical_to_the_rejection_loop(seed, d, n):
    got = sample_momenta(d, n, seed)
    assert got == rejection_loop_sample_momenta(d, n, seed)
    assert all(type(c) is float for p in got for c in p)


def test_sampler_rejects_zero_count():
    with pytest.raises(ValueError):
        sample_momenta(3, 0, 42)


# -- derivatives --------------------------------------------------------------

def test_energy_derivative_analytic():
    f = OperatorField.scalar(energy, 1, 3)
    got = f.deriv((1.0, 2.0, 2.0), 0)[0, 0]
    assert abs(got - 1.0 / 3.0) < 1e-15


def test_abs_p3_derivative_is_sign():
    f = OperatorField.scalar(abs_p3, 1, 3)
    assert f.deriv((1.0, 1.0, -2.0), 2)[0, 0] == -1.0
    assert f.deriv((1.0, 1.0, 2.0), 2)[0, 0] == 1.0


def test_inverse_energy_shell_vs_finite_difference():
    fn = lambda p: 1.0 / (energy(p) + abs_p3(p))
    f = OperatorField.scalar(fn, 1, 3)
    for p in sample_momenta(3, 6, 3):
        got = f.deriv(p, 1)[0, 0]
        ref = richardson_derivative(lambda q: fn(q), p, 1)
        assert abs(got - ref) < 1e-8


@pytest.mark.parametrize("uname", ["U2", "V", "V2"])
def test_field_derivative_cross_validates(uname):
    # exact derivatives match central differences at 1e-6 relative
    u = catalog_unitary(uname).closed
    for p in sample_momenta(3, 4, 5):
        for k in range(3):
            got = u.deriv(p, k)
            ref = richardson_derivative(u.__call__, p, k)
            scale = max(1.0, mat_max(ref))
            assert mat_max(got - ref) / scale < 1e-6


def test_nested_second_derivative():
    f = OperatorField.scalar(energy, 1, 3)
    p = (1.5, -2.0, 3.0)
    got = f.partial(0).partial(1)(p)[0, 0]
    e = energy(p)
    want = -p[0] * p[1] / e ** 3
    assert abs(got - want) < 1e-12


# -- operators -----------------------------------------------------------------

def test_canonical_pair():
    x1 = DiffOp1.position_component(0, 2, 3)
    p1 = DiffOp1.from_field(OperatorField.momentum(0, 2, 3))
    p = (1.0, 2.0, 3.0)
    comm = diffop_commutator(x1.jet(p), p1.jet(p))
    assert mat_max(comm.a - 1j * np.eye(2)) == 0.0
    assert all(mat_max(b) == 0.0 for b in comm.b)
    assert comm.second_order == 0.0


def test_positions_commute():
    x1 = DiffOp1.position_component(0, 2, 3)
    x2 = DiffOp1.position_component(1, 2, 3)
    p = (1.0, 2.0, 3.0)
    comm = diffop_commutator(x1.jet(p), x2.jet(p))
    assert mat_max(comm.a) == 0.0
    assert all(mat_max(b) == 0.0 for b in comm.b)


def test_commutator_antisymmetry():
    from spinorlab.poincare import generator_set
    gs = generator_set("chi2")
    p = sample_momenta(3, 1, 9)[0]
    j12, j13 = gs.J[(1, 2)].jet(p), gs.J[(1, 3)].jet(p)
    c12 = diffop_commutator(j12, j13)
    c21 = diffop_commutator(j13, j12)
    assert mat_max(c12.a + c21.a) < 1e-14
    for b1, b2 in zip(c12.b, c21.b):
        assert mat_max(b1 + b2) < 1e-14


def test_conjugation_by_identity_is_noop():
    ident = OperatorField.constant(np.eye(2), 3)
    g = DiffOp1.position_component(0, 2, 3)
    conj = conjugate_by_unitary(ident, g, probe=sample_momenta(3, 2, 1))
    p = (0.5, -1.0, 2.0)
    assert mat_max(conj.a(p)) == 0.0
    assert mat_max(conj.b[0](p) - np.eye(2)) == 0.0


def test_conjugation_leaves_momentum_untouched():
    u = catalog_unitary("V").closed
    pk = DiffOp1.from_field(OperatorField.momentum(2, 2, 3))
    conj = conjugate_by_unitary(u, pk)
    for p in sample_momenta(3, 4, 2):
        assert mat_max(conj.a(p) - p[2] * np.eye(2)) < 1e-13


def test_conjugation_preserves_canonical_commutators():
    for uname in ("U1", "U2", "V1", "V", "V2"):
        u = catalog_unitary(uname).closed
        dim = u.dim
        for k in range(3):
            xk = conjugate_by_unitary(u, DiffOp1.position_component(k, dim, 3))
            for l in range(3):
                pl = DiffOp1.from_field(OperatorField.momentum(l, dim, 3))
                for p in sample_momenta(3, 2, 17):
                    comm = diffop_commutator(xk.jet(p), pl.jet(p))
                    want = (1j if k == l else 0.0) * np.eye(dim)
                    assert mat_max(comm.a - want) < 1e-9


def test_conjugation_rejects_non_unitary():
    bad = OperatorField.constant(2.0 * np.eye(2), 3)
    g = DiffOp1.position_component(0, 2, 3)
    with pytest.raises(ValueError, match="not unitary"):
        conjugate_by_unitary(bad, g, probe=[(1.0, 1.0, 1.0)])


def test_field_algebra_roundtrip():
    u = catalog_unitary("V1").closed
    ident = np.eye(2)
    for p in sample_momenta(3, 4, 8):
        up = u(p)
        assert mat_max((u @ u.adjoint())(p) - ident) < 1e-14
        assert mat_max((u + (-u))(p)) == 0.0
        assert mat_max(u.scale(2.0)(p) - 2.0 * up) == 0.0


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_dual_arithmetic_against_finite_difference(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.5, 3.0, size=3)
    fn = lambda p: dual.sqrt(p[0] * p[0] + 2.0 * p[1]) / (p[2] + dual.absval(p[0]))
    f = OperatorField.scalar(fn, 1, 3)
    p = (float(a), float(b), float(c))
    for k in range(3):
        got = f.deriv(p, k)[0, 0]
        ref = richardson_derivative(lambda q: fn(q), p, k)
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))


def test_conjugation_unitarity_guard_fails_closed_on_nan():
    probe = sample_momenta(3, 2, 1)
    u = OperatorField.constant(np.eye(2), 3) \
        + OperatorField(2, 3, [(nan_at(probe[1]), np.eye(2))])
    with pytest.raises(ValueError, match="not unitary"):
        conjugate_by_unitary(u, DiffOp1.position_component(0, 2, 3),
                             probe=probe)


def test_at_folds_x0_from_one_evaluation():
    op = generator_set("chi2").J[(0, 1)]
    p = sample_momenta(3, 1, 3)[0]
    [(a0, b0), (a1, b1)] = op.at(p, (0.0, 1.37))
    assert np.array_equal(a0, op.a(p))
    assert np.array_equal(a1, op.a(p) + 1.37 * op.x0(p))
    for b in (b0, b1):
        assert all(np.array_equal(x, f(p)) for x, f in zip(b, op.b))
