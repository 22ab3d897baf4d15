import gc
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import nan_at
from spinorlab import dual, position
from spinorlab.clifford import pauli
from spinorlab.equations import abs_p3, catalog_unitary, energy
from spinorlab.linalg import NotUnitary, mat_max, worst
from spinorlab.opcalc import (Commutator, DiffOp1, Jet, OperatorField,
                              _left, _members_first, _product, _right,
                              as_batch, check_unitary, conjugate_by_unitary,
                              diffop_commutator, sample_momenta, stacked_jet,
                              stacked_values)
from spinorlab.poincare import GENERATOR_NAMES, generator_set
from spinorlab.position import (POSITION_NAMES, position_from_unitary,
                                verify_position)


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
    got = f.partial(0)((1.0, 2.0, 2.0))[0, 0]
    assert abs(got - 1.0 / 3.0) < 1e-15


def test_abs_p3_derivative_is_sign():
    f = OperatorField.scalar(abs_p3, 1, 3)
    assert f.partial(2)((1.0, 1.0, -2.0))[0, 0] == -1.0
    assert f.partial(2)((1.0, 1.0, 2.0))[0, 0] == 1.0


def test_inverse_energy_shell_vs_finite_difference():
    fn = lambda p: 1.0 / (energy(p) + abs_p3(p))
    f = OperatorField.scalar(fn, 1, 3)
    for p in sample_momenta(3, 6, 3):
        got = f.partial(1)(p)[0, 0]
        ref = richardson_derivative(lambda q: fn(q), p, 1)
        assert abs(got - ref) < 1e-8


@pytest.mark.parametrize("uname", ["U2", "V", "V2"])
def test_field_derivative_cross_validates(uname):
    # exact derivatives match central differences at 1e-6 relative
    u = catalog_unitary(uname).closed
    for p in sample_momenta(3, 4, 5):
        for k in range(3):
            got = u.partial(k)(p)
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
    comm = diffop_commutator(stacked_jet([x1, p1], p))
    assert mat_max(comm.a[0, 1] - 1j * np.eye(2)) == 0.0
    assert all(mat_max(b[0, 1]) == 0.0 for b in comm.b)
    assert comm.second_order == 0.0


def test_positions_commute():
    x1 = DiffOp1.position_component(0, 2, 3)
    x2 = DiffOp1.position_component(1, 2, 3)
    p = (1.0, 2.0, 3.0)
    comm = diffop_commutator(stacked_jet([x1, x2], p))
    assert mat_max(comm.a[0, 1]) == 0.0
    assert all(mat_max(b[0, 1]) == 0.0 for b in comm.b)


def test_commutator_antisymmetry():
    from spinorlab.poincare import generator_set
    gs = generator_set("chi2")
    p = sample_momenta(3, 1, 9)[0]
    comm = diffop_commutator(stacked_jet([gs.J[(1, 2)], gs.J[(1, 3)]], p))
    assert mat_max(comm.a[0, 1] + comm.a[1, 0]) < 1e-14
    for b in comm.b:
        assert mat_max(b[0, 1] + b[1, 0]) < 1e-14


def test_conjugation_by_identity_is_noop():
    ident = OperatorField.constant(np.eye(2), 3)
    g = DiffOp1.position_component(0, 2, 3)
    check_unitary(ident, sample_momenta(3, 2, 1))
    conj = conjugate_by_unitary(ident, g)
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
        xs = [conjugate_by_unitary(u, DiffOp1.position_component(k, dim, 3))
              for k in range(3)]
        ps = [DiffOp1.from_field(OperatorField.momentum(l, dim, 3))
              for l in range(3)]
        for p in sample_momenta(3, 2, 17):
            comm = diffop_commutator(stacked_jet(xs + ps, p))
            for k in range(3):
                for l in range(3):
                    want = (1j if k == l else 0.0) * np.eye(dim)
                    assert mat_max(comm.a[k, 3 + l] - want) < 1e-9


def test_conjugation_rejects_non_unitary():
    bad = OperatorField.constant(2.0 * np.eye(2), 3)
    g = DiffOp1.position_component(0, 2, 3)
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(bad, [(1.0, 1.0, 1.0)])
        conjugate_by_unitary(bad, g)


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
        got = f.partial(k)(p)[0, 0]
        ref = richardson_derivative(lambda q: fn(q), p, k)
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))


def test_conjugation_unitarity_guard_fails_closed_on_nan():
    probe = sample_momenta(3, 2, 1)
    u = OperatorField.constant(np.eye(2), 3) \
        + OperatorField(2, 3, [(nan_at(probe[1]), np.eye(2))])
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(u, probe)
        conjugate_by_unitary(u, DiffOp1.position_component(0, 2, 3))


def test_conjugation_by_a_non_unitary_field_raises():
    probe = sample_momenta(3, 2, 1)
    x0 = DiffOp1.position_component(0, 4, 3)
    u = catalog_unitary("U2").closed
    check_unitary(u, probe)                             # unitary: no raise
    conjugate_by_unitary(u, x0)
    with pytest.raises(NotUnitary):
        check_unitary(u.scale(1.5), probe)
        conjugate_by_unitary(u.scale(1.5), x0)
    conjugate_by_unitary(u.scale(1.5), x0)              # no check


def test_stacked_values_fold_x0_from_one_evaluation():
    op = generator_set("chi2").J[(0, 1)]
    p = sample_momenta(3, 1, 3)[0]
    (a0,), (b,), (c,) = stacked_values([op], p)
    assert np.array_equal(a0, op.a(p))
    assert np.array_equal(a0 + 1.37 * c, op.a(p) + 1.37 * op.x0(p))
    assert all(np.array_equal(x, f(p)) for x, f in zip(b, op.b))


# -- all-axes jets and live-member commutators vs their references -----------

EPS = np.finfo(float).eps

def per_axis_jet(op, p):
    """The earlier jet, one seeded evaluation per part and axis, kept as the
    reference for the all-axes one."""
    ks = range(op.d)
    a = op.a(p)
    if op.x0 is None:
        x0, dx0 = np.zeros_like(a), np.zeros((op.d,) + a.shape, complex)
    else:
        x0, dx0 = op.x0(p), np.stack([op.x0.partial(k)(p) for k in ks])
    return Jet(a, np.stack([f(p) for f in op.b]),
               np.stack([op.a.partial(k)(p) for k in ks]),
               np.array([[f.partial(l)(p) for l in ks] for f in op.b]), x0,
               dx0)


def _dot(x, y, nb: int):
    """sum_k x[I, k] @ y[J, k] for every leading index I of x and J of y, as
    one block GEMM (..., |I| dim, K dim) @ (..., K dim, |J| dim), on axes
    (*I, *J, ...); the last nb + 2 axes are the batch and the matrix.  It
    packs both factors for this one product; :func:`diffop_commutator`
    packs each part once for all of its terms."""
    mx, my = x.shape[:x.ndim - nb - 3], y.shape[:y.ndim - nb - 3]
    return _members_first(_product(_left(x, nb), _right(y, nb), mx, my,
                                   x.shape[-1]), len(mx), nb)


def dense_commutator(jet):
    """The earlier commutator of every pair of members of a stacked jet,
    every product over all members and the second-order residual per (k, l)
    pair, kept as the reference."""
    d, nb = jet.b.shape[1], jet.a.ndim - 3
    A, B, dA, dB, C, dC = jet.parts()
    dot = lambda x, y: _dot(x, y, nb)
    sw = lambda z: np.swapaxes(z, 0, 1)

    def comm(x, y):
        xy = dot(np.expand_dims(x, -nb - 3), np.expand_dims(y, -nb - 3))
        xy -= np.moveaxis(dot(np.expand_dims(y, -nb - 3),
                              np.expand_dims(x, -nb - 3)), -nb - 3, 0)
        return xy

    a = comm(A, A) + 1j * (dot(B, dA) - sw(dot(B, dA)))
    b = comm(A, B) - sw(comm(A, B)) + 1j * (dot(B, dB) - sw(dot(B, dB)))
    x0_a = comm(A, C) + comm(C, A) + 1j * (dot(B, dC) - sw(dot(B, dC)))
    x0_b = comm(C, B) - sw(comm(C, B))
    second = worst(0.5 * mat_max(comm(B[:, k], B[:, l])
                                 + comm(B[:, l], B[:, k]))
                   for k in range(d) for l in range(k, d))
    return Commutator(a, np.moveaxis(b, -nb - 3, 0), x0_a,
                      np.moveaxis(x0_b, -nb - 3, 0), comm(C, C), second)


def _jet_parts(jet):
    return (jet.a, jet.b, jet.da, jet.db, jet.x0, jet.dx0)


def _comm_parts(comm):
    return (comm.a, comm.b, comm.x0_a, comm.x0_b, comm.x0_sq)


def _generic_operators():
    """2x2 operators on fixed random matrices: their B parts do not commute,
    so the second-order residual is far from zero; one has an x0 part and
    one no B part."""
    m = np.random.default_rng(0).normal(size=(9, 2, 2))
    sq = lambda k, i: OperatorField(2, 3, [(lambda p: p[k] * p[k], m[i])])
    a = OperatorField(2, 3, [(lambda p: p[0] * p[1], m[6]),
                             (lambda p: p[2], m[7])])
    return [DiffOp1(a, (sq(0, 0), sq(1, 1), sq(2, 2))),
            DiffOp1(a.adjoint(), (sq(1, 3), sq(2, 4), sq(0, 5)), sq(2, 8)),
            DiffOp1.from_field(a @ a)]


def _operator_sets(seed):
    """(label, operators, batch): every generator set on 8 points, every
    built position operator on 12, and the generic operators on 8."""
    yield ("generic", _generic_operators(),
           as_batch(sample_momenta(3, 8, seed)))
    for name in GENERATOR_NAMES:
        gs = generator_set(name)
        yield (name, [op for _, op in gs.members()],
               as_batch(sample_momenta(gs.d, 8, seed)))
    for name in POSITION_NAMES:
        pts = sample_momenta(3, 12, seed)
        yield name, position_from_unitary(name, probe=pts[:2]), as_batch(pts)


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
def test_jets_and_commutators_are_bit_identical_to_the_references(seed):
    for name, ops, p in _operator_sets(seed):
        jet = stacked_jet(ops, p)
        for i, op in enumerate(ops):
            for x, y in zip(_jet_parts(jet), _jet_parts(per_axis_jet(op, p))):
                assert x[i].shape == y.shape and np.array_equal(x[i], y), name
        got, want = diffop_commutator(jet), dense_commutator(jet)
        for x, y in zip(_comm_parts(got), _comm_parts(want)):
            assert x.shape == y.shape and np.array_equal(x, y), name
        assert got.second_order == want.second_order, name
        # a two-member stack (for a generator set, a translation and a
        # boost): its parts are products of the same shapes; the flattened
        # second-order product may round its sums differently
        pair = stacked_jet([ops[0], ops[len(ops) // 2]], p)
        one, ref = diffop_commutator(pair), dense_commutator(pair)
        for x, y in zip(_comm_parts(one), _comm_parts(ref)):
            assert x.shape == y.shape and np.array_equal(x, y), name
        bound = 4 * EPS * mat_max(pair.b) ** 2
        assert abs(one.second_order - ref.second_order) <= bound, name


def test_seeding_all_axes_twice_raises():
    for p in (sample_momenta(3, 1, 7)[0], as_batch(sample_momenta(3, 4, 7))):
        with pytest.raises(ValueError, match="already seeded on all axes"):
            dual.seed(dual.seed(p))
        with pytest.raises(ValueError, match="already seeded on all axes"):
            dual.seed(dual.seed(dual.seed(p), 1))
        dual.seed(dual.seed(p, 1))          # a single-axis seed nests
        dual.seed(dual.seed(p), 1)


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 10_000))
def test_all_axes_seed_over_a_single_axis_partial(seed):
    p = as_batch(sample_momenta(3, 4, seed))
    for name in ("U2", "V1"):
        f = catalog_unitary(name).closed
        for k in range(3):
            g = f.partial(k)
            got = g.deriv(p)
            want = np.stack([g.partial(l)(p) for l in range(3)])
            assert got.shape == want.shape and np.array_equal(got, want)


def test_boost_jet_makes_one_all_axes_deriv_per_part(monkeypatch):
    op = generator_set("psi").J[(0, 1)]
    parts = [op.a, *op.b, op.x0]
    calls = []
    deriv = OperatorField.deriv

    def counted(self, p):
        calls.append(self)
        return deriv(self, p)

    monkeypatch.setattr(OperatorField, "deriv", counted)
    stacked_jet([op], as_batch(sample_momenta(3, 8, 5)))
    assert len(calls) == len(parts)
    assert {id(f) for f in calls} == {id(f) for f in parts}


# -- one stacked jet per set: shared evaluation and block products ------------

@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_stacked_jet_equals_the_member_by_member_jets(seed):
    # one shared evaluation for the whole set against one per member
    for name, ops, p in _operator_sets(seed):
        stack = stacked_jet(ops, p)
        assert len(stack.a) == len(ops)
        for i, op in enumerate(ops):
            for x, y in zip(stack.parts(), stacked_jet([op], p).parts()):
                assert x[i].shape == y[0].shape and np.array_equal(x[i], y[0]), name


def test_no_stale_hit_across_position_builds():
    # a run on seed 7 after a run on seed 5 equals a run on seed 7 in a
    # fresh interpreter
    s5, s7 = sample_momenta(3, 12, 5), sample_momenta(3, 12, 7)
    alone = subprocess.run(
        [sys.executable, "-c", "from spinorlab.opcalc import sample_momenta; "
         "from spinorlab.position import POSITION_NAMES, verify_position; "
         "print(repr([verify_position(n, sample_momenta(3, 12, 7)) "
         "for n in POSITION_NAMES]))"],
        capture_output=True, text=True, check=True).stdout.strip()
    after = []
    for name in POSITION_NAMES:
        verify_position(name, s5)
        after.append(verify_position(name, s7))
    assert repr(after) == alone


def test_no_stale_hit_from_transient_nodes():
    # each evaluation makes a leaf and its partial and drops them; the next
    # one, with another coefficient, may reuse their addresses
    p = as_batch(sample_momenta(3, 4, 7))
    m = pauli(1)
    leaf = lambda c: OperatorField(2, 3, [(lambda q: c * q[0] * q[0], m)])

    def transient(c):
        def node(q):
            value = leaf(c).partial(0)._eval(q)
            gc.collect()        # free the dropped leaf and partial now
            return value
        return OperatorField(2, 3, (), node)

    cs = (1.0, 2.0, 3.0, 5.0)
    stack = stacked_jet([DiffOp1.from_field(transient(c)) for c in cs], p)
    for c, a, da in zip(cs, stack.a, stack.da):
        assert np.array_equal(a, leaf(c).partial(0)(p))
        assert np.array_equal(da, leaf(c).partial(0).deriv(p))


def test_values_inside_a_build_are_read_only():
    f = catalog_unitary("V1").closed
    p = as_batch(sample_momenta(3, 4, 1))
    want, dwant = np.array(f(p)), f.deriv(p)
    writes = []

    def writer(q):
        value = f._eval(q)
        target = value.val if isinstance(value, dual.Dual) else value
        with pytest.raises(ValueError, match="read-only"):
            target[...] = 0.0
        writes.append(q)
        return value

    stack = stacked_jet([DiffOp1.from_field(OperatorField(2, 3, (), writer)),
                         DiffOp1.from_field(f)], p)
    assert len(writes) == 2                 # the plain and the seeded value
    for a, da in zip(stack.a, stack.da):    # the later hits are unchanged
        assert np.array_equal(a, want) and np.array_equal(da, dwant)


def test_xpsi_evaluates_each_conjugating_term_once_per_argument(monkeypatch):
    calls, seeds = [], []                   # pin every argument they saw
    seed = dual.seed
    monkeypatch.setattr(dual, "seed", lambda q, k=None: (
        seeds.append((q, k)), seed(q, k))[1])

    def counted(f):
        return OperatorField(f.dim, f.d, [
            (lambda q, fn=fn, i=i: (calls.append((id(f), i, q)), fn(q))[1], m)
            for i, (fn, m) in enumerate(f.terms)])

    u1, u2 = (counted(catalog_unitary(n).closed) for n in ("U1", "U2"))
    monkeypatch.setattr(position, "conjugating_field", lambda name: u2 @ u1)
    verify_position("Xpsi", sample_momenta(3, 12, 5))
    per_argument = Counter((f, i, id(q)) for f, i, q in calls)
    assert len({(f, i) for f, i, _ in calls}) == 5
    assert max(per_argument.values()) == 1
    # each seeded argument is made once: per argument and axis
    assert max(Counter((id(q), k) for q, k in seeds).values()) == 1


@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_all_pairs_commutator_is_exactly_antisymmetric(seed):
    # [G_j, G_i] = -[G_i, G_j] bit for bit, so computing only i < j and
    # mirroring would not move any rounding
    for name, ops, p in _operator_sets(seed):
        jet = stacked_jet(ops, p)
        comm = diffop_commutator(jet)
        for x, axes in ((comm.a, (0, 1)), (comm.b, (1, 2)), (comm.x0_a, (0, 1)),
                        (comm.x0_b, (1, 2)), (comm.x0_sq, (0, 1))):
            assert np.array_equal(x, -np.swapaxes(x, *axes)), name
