import dataclasses
import gc
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (at_pairs, axis_partial, dense_commutator, nan_at, pair,
                     parts, seed_axis)
from spinorlab import dual, opcalc, position
from spinorlab.clifford import pauli
from spinorlab.equations import abs_p3, catalog_unitary, energy
from spinorlab.linalg import NotUnitary, mat_max
from spinorlab.opcalc import (DiffOp1, Jet, OperatorField, as_batch,
                              check_unitary, conjugate_by_unitary,
                              diffop_commutator, sample_momenta, stacked_jet,
                              stacked_values)
from spinorlab.poincare import GENERATOR_NAMES, generator_set
from spinorlab.position import (POSITION_NAMES, position_closed_form,
                                position_from_unitary, verify_position)


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


def test_sampler_draws_once_and_returns_a_fresh_list():
    opcalc._momenta.cache_clear()
    first = sample_momenta(3, 6, 11)
    second = sample_momenta(3, 6, 11)
    assert opcalc._momenta.cache_info().misses == 1
    assert first == second == list(opcalc._momenta.__wrapped__(3, 6, 11))
    assert first is not second
    first[0] = (0.0, 0.0, 0.0)            # a caller's edit stays its own
    first.append(first[1])
    assert sample_momenta(3, 6, 11) == second
    assert sample_momenta(3, 6, 11) is not second


def test_sampler_rejects_a_bad_count_on_every_call():
    for n in (0, -1, 0):
        with pytest.raises(ValueError):
            sample_momenta(3, n, 42)


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
    assert mat_max(comm.a[0] - 1j * np.eye(2)) == 0.0      # the pair (0, 1)
    assert all(mat_max(b[0]) == 0.0 for b in comm.b)
    assert comm.second_order == 0.0


def test_positions_commute():
    x1 = DiffOp1.position_component(0, 2, 3)
    x2 = DiffOp1.position_component(1, 2, 3)
    p = (1.0, 2.0, 3.0)
    comm = diffop_commutator(stacked_jet([x1, x2], p))
    assert mat_max(comm.a[0]) == 0.0                       # the pair (0, 1)
    assert all(mat_max(b[0]) == 0.0 for b in comm.b)


def test_commutator_antisymmetry():
    from spinorlab.poincare import generator_set
    gs = generator_set("chi2")
    p = sample_momenta(3, 1, 9)[0]
    # [g1, g2] and [g2, g1], each the one pair of its stack
    c12, c21 = (diffop_commutator(stacked_jet(ops, p)) for ops in (
        [gs.J[(1, 2)], gs.J[(1, 3)]], [gs.J[(1, 3)], gs.J[(1, 2)]]))
    assert mat_max(c12.a[0] + c21.a[0]) < 1e-14
    for b12, b21 in zip(c12.b, c21.b):
        assert mat_max(b12[0] + b21[0]) < 1e-14


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
                    assert mat_max(comm.a[pair(6, k, 3 + l)] - want) < 1e-9


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
    assert np.array_equal(c, op.x0(p))
    assert all(np.array_equal(x, f(p)) for x, f in zip(b, op.b))


# -- all-axes jets and live-member commutators vs their references -----------

EPS = np.finfo(float).eps

def per_axis_jet(op, p):
    """The earlier jet, one evaluation per part and axis on p seeded along
    that axis alone (:func:`helpers.axis_partial`), kept as the reference for
    the all-axes one."""
    ks = range(op.d)
    return Jet(op.a(p), np.stack([f(p) for f in op.b]),
               np.stack([axis_partial(op.a, p, k) for k in ks]),
               np.array([[axis_partial(f, p, l) for l in ks] for f in op.b]),
               op.x0(p), np.stack([axis_partial(op.x0, p, k) for k in ks]))


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
    zero = OperatorField.zero(2, 3)
    return [DiffOp1(a, (sq(0, 0), sq(1, 1), sq(2, 2)), zero),
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
            for x, y in zip(parts(jet), parts(per_axis_jet(op, p))):
                assert x[i].shape == y.shape and np.array_equal(x[i], y), name
        # the pair parts are the reference's (G, G) parts at the pairs i < j
        got, want = diffop_commutator(jet), at_pairs(dense_commutator(jet))
        for x, y in zip(_comm_parts(got), _comm_parts(want)):
            assert x.shape == y.shape and np.array_equal(x, y), name
        assert got.second_order == want.second_order, name
        # a two-member stack (for a generator set, a translation and a
        # boost): its parts are products of the same shapes; the flattened
        # second-order product may round its sums differently
        two = stacked_jet([ops[0], ops[len(ops) // 2]], p)
        one, ref = diffop_commutator(two), dense_commutator(two)
        for x, y in zip(_comm_parts(one), _comm_parts(at_pairs(ref))):
            assert x.shape == y.shape and np.array_equal(x, y), name
        bound = 4 * EPS * mat_max(two.b) ** 2
        assert abs(one.second_order - ref.second_order) <= bound, name


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
def test_jet_values_are_the_plain_values_byte_for_byte(seed):
    # the values are the value parts of the all-axes seeded evaluation: every
    # byte equals a plain evaluation on a fresh argument, on a batch and at
    # its first point
    for name, ops, p in _operator_sets(seed):
        point = tuple(float(c[0]) for c in p)
        for q, fresh in ((p, opcalc._Argument(p)), (point, point)):
            jet, plain = stacked_jet(ops, q), stacked_values(ops, fresh)
            for x, y in zip((jet.a, jet.b, jet.x0), plain):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_dual_equality_reads_the_value_under_any_seed():
    for p in (sample_momenta(3, 1, 5)[0], as_batch(sample_momenta(3, 4, 5))):
        for q in (seed_axis(p, 1), dual.seed(p), seed_axis(dual.seed(p), 1),
                  seed_axis(seed_axis(p, 0), 2), dual.seed(dual.seed(p))):
            for c, x, other in zip(q, p, seed_axis(p, 2)):
                assert isinstance(c, dual.Dual)
                assert np.all(c == x) and np.all(x == c) and np.all(c == other)
                assert not np.any(c == x + 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(dual.Dual(1.0, 0.0))


def test_nested_seeds_give_exact_higher_derivatives():
    # at a point, on a batch of 5 and on a batch of d = 3 points, where a
    # mis-shaped unit axis would broadcast silently instead of raising
    for p in (sample_momenta(3, 1, 7)[0], as_batch(sample_momenta(3, 5, 7)),
              as_batch(sample_momenta(3, 3, 7))):
        x = np.array(p)
        e = np.sqrt(np.sum(x * x, axis=0))
        eye = np.eye(3).reshape((3, 3) + (1,) * (x.ndim - 1))
        want = (eye - x[:, None] * x[None] / (e * e)) / e
        got = dual.eps(dual.eps(energy(dual.seed(dual.seed(p)))))
        assert got.shape == (3, 3) + e.shape
        assert np.all(np.abs(got - want) <= 4 * EPS / e)
        q = dual.seed(dual.seed(dual.seed(p)))
        third = dual.eps(dual.eps(dual.eps(q[0] * q[0] * q[1])))
        assert np.all(third[0, 0, 1] == 2.0) and np.all(third[0, 1, 0] == 2.0)
        assert np.all(third[2, 2, 2] == 0.0)


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 10_000))
def test_all_axes_seed_over_a_single_axis_partial(seed):
    p = as_batch(sample_momenta(3, 4, seed))
    for name in ("U2", "V1"):
        f = catalog_unitary(name).closed
        for k in range(3):
            g = f.partial(k)
            got = g.deriv(p)
            want = np.stack([axis_partial(g, p, l) for l in range(3)])
            assert got.shape == want.shape and np.array_equal(got, want)


def test_boost_jet_makes_one_all_axes_deriv_per_part(monkeypatch):
    # one all-axes deriv per part that is not structurally zero, none on a
    # zero part
    op = generator_set("psi").J[(0, 1)]
    live = [f for f in (op.a, *op.b, op.x0) if not f._is_zero()]
    zero = [f for f in op.b if f._is_zero()]
    assert len(live) == 3 and len(zero) == 2
    calls = []
    deriv = OperatorField.deriv

    def counted(self, p):
        calls.append(self)
        return deriv(self, p)

    monkeypatch.setattr(OperatorField, "deriv", counted)
    stacked_jet([op], as_batch(sample_momenta(3, 8, 5)))
    assert len(calls) == len(live)
    assert {id(f) for f in calls} == {id(f) for f in live}
    assert not {id(f) for f in calls} & {id(f) for f in zero}


# -- work only on live parts: B slots, zero fields, momentum leaves ----------

def _partly_dead_operators(poison=None):
    """2x2 operators on fixed random matrices whose B parts are live at 6 of
    the 12 slots (member, axis), so that each slot pairs with live and dead
    partner slots; one member has no B part.  poison, a (member, axis, field)
    triple, adds that field to that B slot."""
    m = np.random.default_rng(1).normal(size=(8, 2, 2))
    sq = lambda k, i: OperatorField(2, 3, [(lambda p: p[k] * p[k], m[i])])
    zero = OperatorField.zero(2, 3)
    a = OperatorField(2, 3, [(lambda p: p[0] * p[2], m[6])])
    b = [[sq(0, 0), zero, sq(2, 1)], [zero, sq(1, 2), zero], [zero] * 3,
         [sq(1, 3), sq(0, 4), zero]]
    if poison is not None:
        i, k, f = poison
        b[i][k] = b[i][k] + f
    return [DiffOp1(a, tuple(b[0]), zero),
            DiffOp1(a.adjoint(), tuple(b[1]), sq(2, 7)),
            DiffOp1(a @ a, tuple(b[2]), zero), DiffOp1(a, tuple(b[3]), zero)]


def _assert_matches_the_reference(jet):
    got, want = diffop_commutator(jet), dense_commutator(jet)
    for x, y in zip(_comm_parts(got), _comm_parts(at_pairs(want))):
        assert x.shape == y.shape and np.array_equal(x, y)
    assert got.second_order == want.second_order
    return got.second_order


@pytest.mark.parametrize("seed", [5, 7, 42])
def test_partly_dead_b_slots_match_the_reference(seed):
    ops = _partly_dead_operators()
    for pts in (sample_momenta(3, 8, seed), sample_momenta(3, 1, seed)):
        p = as_batch(pts) if len(pts) > 1 else pts[0]
        # the B parts do not commute, so the residual is far from zero
        assert _assert_matches_the_reference(stacked_jet(ops, p)) > 1.0


def test_single_live_slot_matches_the_reference():
    m = np.random.default_rng(2).normal(size=(2, 2, 2))
    f = OperatorField(2, 3, [(lambda p: p[1] * p[2], m[0])])
    zero = OperatorField.zero(2, 3)
    ops = [DiffOp1(OperatorField.constant(m[1], 3), (zero, f, zero), zero),
           DiffOp1.from_field(OperatorField.momentum(0, 2, 3))]
    for p in (as_batch(sample_momenta(3, 8, 5)), sample_momenta(3, 1, 5)[0]):
        assert _assert_matches_the_reference(stacked_jet(ops, p)) == 0.0


def test_slot_live_by_its_derivative_alone():
    # B0 vanishes at the point but its derivative does not: its slot and
    # member stay live, so the B dB term of the pair still reads dB0
    pt = sample_momenta(3, 1, 5)[0]
    m = np.random.default_rng(3).normal(size=(3, 2, 2))
    zero = OperatorField.zero(2, 3)
    vanishing = OperatorField(2, 3, [(lambda p: p[0] - pt[0], m[0])])
    sq = OperatorField(2, 3, [(lambda p: p[1] * p[1], m[1])])
    a = OperatorField.constant(m[2], 3)
    jet = stacked_jet([DiffOp1(a, (vanishing, zero, zero), zero),
                       DiffOp1(a, (sq, zero, zero), zero)], pt)
    assert not jet.b[0].any() and jet.db[0, 0].any()
    _assert_matches_the_reference(jet)
    assert diffop_commutator(jet).b.any()


def test_second_order_fails_closed_on_nan_in_one_slot():
    # a NaN at one sample, in a live slot and in a dead one with live partners
    pts = sample_momenta(3, 8, 5)
    poison = OperatorField(2, 3, [(nan_at(pts[3]), np.eye(2))])
    for i, k in ((0, 0), (1, 0)):
        ops = _partly_dead_operators((i, k, poison))
        got = diffop_commutator(stacked_jet(ops, as_batch(pts)))
        assert math.isnan(got.second_order), (i, k)
    assert not math.isnan(diffop_commutator(stacked_jet(
        _partly_dead_operators(), as_batch(pts))).second_order)


def test_self_commutators_fail_closed_on_nan_in_one_member():
    # [A, A] and [C, C] are gathered at the pairs and then subtracted: with a
    # NaN at one sample in member 0's A, then in its C, they equal the
    # reference's, NaN exactly at that sample of member 0's pairs.  Every
    # member has a C part, so [C, C] reads every pair (a pair with a zero C
    # is not computed: it stays zero where the reference reads NaN * 0)
    pts = sample_momenta(3, 8, 5)
    poison = OperatorField(2, 3, [(nan_at(pts[3]), np.eye(2))])
    m = np.random.default_rng(4).normal(size=(2, 2, 2))
    for part, read in (("a", lambda c: c.a), ("x0", lambda c: c.x0_sq)):
        ops = _generic_operators()
        for i, mi in ((0, m[0]), (2, m[1])):
            ops[i] = dataclasses.replace(ops[i], x0=OperatorField(
                2, 3, [(lambda p: p[1], mi)]))
        ops[0] = dataclasses.replace(
            ops[0], **{part: getattr(ops[0], part) + poison})
        jet = stacked_jet(ops, as_batch(pts))
        got, want = diffop_commutator(jet), at_pairs(dense_commutator(jet))
        for x, y in ((got.a, want.a), (got.x0_sq, want.x0_sq)):
            assert x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
        nan = np.isnan(read(got)).any(axis=(-2, -1))
        assert nan[:, 3].tolist() == [True, True, False]     # (0, 1), (0, 2)
        assert not nan[:, np.arange(8) != 3].any()


def _part_families():
    """(label, operators): psi, the chi set conjugated by U2, the built
    position operators, and the bare position components (a zero A part)."""
    u = catalog_unitary("U2").closed
    yield "psi", [op for _, op in generator_set("psi").members()]
    yield "U2 chi", [conjugate_by_unitary(u, op)
                     for _, op in generator_set("chi").members()]
    for name in POSITION_NAMES:
        yield name, list(position_from_unitary(name))
    yield "x", [DiffOp1.position_component(k, 4, 3) for k in range(3)]


def _all_parts(op):
    return (op.a, *op.b, op.x0)


def test_stacks_never_evaluate_a_zero_field(monkeypatch):
    families = dict(_part_families())
    zero = {label: [(i, j) for i, op in enumerate(ops)
                    for j, f in enumerate(_all_parts(op)) if f._is_zero()]
            for label, ops in families.items()}
    # (member, part) pairs over A, each B_k and C
    assert {label: len(z) for label, z in zero.items()} == {
        "psi": 28, "U2 chi": 28, "x": 12,
        **dict.fromkeys(POSITION_NAMES, 9)}
    assert sum(j == 0 for _, j in zero["x"]) == 3
    assert sum(j == 4 for _, j in zero["psi"]) == 7
    calls = []

    def counted(name):
        method = getattr(OperatorField, name)
        return lambda self, p: (calls.append((name, id(self))),
                                method(self, p))[1]

    for name in ("_eval", "__call__", "deriv"):
        monkeypatch.setattr(OperatorField, name, counted(name))
    p = as_batch(sample_momenta(3, 4, 5))
    for label, ops in families.items():
        calls.clear()
        stacked_values(ops, p)
        stacked_jet(ops, p)
        assert {n for n, _ in calls} == {"_eval", "__call__", "deriv"}, label
        assert not {f for _, f in calls} & {
            id(_all_parts(ops[i])[j]) for i, j in zero[label]}, label


def test_every_operator_part_is_a_field():
    u = catalog_unitary("U2").closed
    built = [op for name in GENERATOR_NAMES
             for _, op in generator_set(name).members()]
    for name in POSITION_NAMES:
        built += [*position_from_unitary(name), *position_closed_form(name)]
    built += [conjugate_by_unitary(u, op) for op in built if op.a.dim == 4]
    for op in built:
        parts = _all_parts(op)
        assert len(parts) == op.d + 2
        assert all(isinstance(f, OperatorField) for f in parts)


def test_momentum_is_one_leaf():
    leaf = OperatorField.momentum
    assert leaf(0, 4, 3) is leaf(0, 4, 3)
    assert leaf(0, 4, 3) is not leaf(1, 4, 3)
    assert leaf(0, 4, 3) is not leaf(0, 2, 3)


def test_generator_jet_evaluates_each_momentum_leaf_once_per_argument(
        monkeypatch):
    calls = []                          # pin every argument the leaves saw
    for k in range(3):
        leaf = OperatorField.momentum(k, 4, 3)
        (fn, mat), = leaf.terms
        monkeypatch.setattr(leaf, "terms", ((lambda q, fn=fn, k=k: (
            calls.append((k, q)), fn(q))[1], mat),))
    stacked_jet([op for _, op in generator_set("psi").members()],
                as_batch(sample_momenta(3, 8, 5)))
    per_argument = Counter((k, id(q)) for k, q in calls)
    # each leaf on the all-axes seeded argument once: the values are its
    # value part
    assert len(per_argument) == 3 and max(per_argument.values()) == 1


# -- one stacked jet per set: shared evaluation and block products ------------

@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_stacked_jet_equals_the_member_by_member_jets(seed):
    # one shared evaluation for the whole set against one per member
    for name, ops, p in _operator_sets(seed):
        stack = stacked_jet(ops, p)
        assert len(stack.a) == len(ops)
        for i, op in enumerate(ops):
            for x, y in zip(parts(stack), parts(stacked_jet([op], p))):
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


def test_deriv_and_every_partial_share_one_seeded_evaluation(monkeypatch):
    # on one argument, deriv and all d partials compute the field once, on
    # its seeded argument, and each partial is its slice of deriv
    fields = [catalog_unitary(name).closed for name in ("U2", "V1")]
    computed, ev = [], OperatorField._eval

    def spy(self, q):
        q = opcalc._Argument.of(q)
        if any(self is f for f in fields) and id(self) not in q.values:
            computed.append((self, q))
        return ev(self, q)

    monkeypatch.setattr(OperatorField, "_eval", spy)
    for f in fields:
        for p in (as_batch(sample_momenta(3, 4, 3)),
                  opcalc._Argument(sample_momenta(3, 1, 3)[0])):
            computed.clear()
            deriv = f.deriv(p)
            for k in range(3):
                got = f.partial(k)(p)
                assert got.shape == deriv[k].shape
                assert got.tobytes() == deriv[k].tobytes()
            assert len(computed) == 1
            assert computed[0][0] is f and computed[0][1] is p.seeded()


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
    assert len(writes) == 1                 # the seeded value, read once
    for a, da in zip(stack.a, stack.da):    # the later hits are unchanged
        assert np.array_equal(a, want) and np.array_equal(da, dwant)


def test_xpsi_evaluates_each_conjugating_term_once_per_argument(monkeypatch):
    calls, seeds = [], []                   # pin every argument they saw
    seed = dual.seed
    monkeypatch.setattr(dual, "seed", lambda q: (seeds.append(q), seed(q))[1])

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
    # each argument is seeded once
    assert max(Counter(id(q) for q in seeds).values()) == 1


@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_all_pairs_commutator_is_exactly_antisymmetric(seed):
    # [G_j, G_i] = -[G_i, G_j] bit for bit (so [G_i, G_i] = 0) in the
    # all-pairs reference, so the pairs i < j that diffop_commutator computes
    # lose nothing
    for name, ops, p in _operator_sets(seed):
        jet = stacked_jet(ops, p)
        comm = dense_commutator(jet)
        for x, axes in ((comm.a, (0, 1)), (comm.b, (1, 2)), (comm.x0_a, (0, 1)),
                        (comm.x0_b, (1, 2)), (comm.x0_sq, (0, 1))):
            assert np.array_equal(x, -np.swapaxes(x, *axes)), name


@pytest.mark.parametrize("batch", [(), (5,)], ids=["point", "batch"])
@pytest.mark.parametrize("mx, my", [((4,), (4,)), ((4,), (2, 3)),
                                    ((2, 3), (4,))], ids=["G-G", "G-bd", "bd-G"])
def test_product_is_members_first_against_einsum(mx, my, batch):
    # sum_k x[I, k] @ y[J, k] on axes (*I, *J, *batch, dim, dim), from the
    # packed block GEMM and from einsum of the unpacked factors; entries
    # are small Gaussian integers, so every sum is exact in any order
    rng = np.random.default_rng(11)
    k, dim, nb = 3, 2, len(batch)

    def draw(lead):
        shape = lead + (k, *batch, dim, dim)
        return rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)

    x, y = draw(mx), draw(my)
    rows, cols = "IJ"[:len(mx)], "LM"[:len(my)]
    ref = np.einsum(f"{rows}k...ab,{cols}k...bc->{rows}{cols}...ac", x, y)
    got = opcalc._product(opcalc._pack(x, nb), opcalc._pack(y, nb, True),
                          mx, my, dim)
    assert got.shape == mx + my + batch + (dim, dim)
    assert np.array_equal(got, ref)
