"""A momentum batch evaluates exactly as its points do, one at a time.

Real-coefficient fields must match bit for bit; complex-coefficient and
composite fields, whose operations numpy and Python may round differently,
to within 4 eps of the largest entry.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorlab import dual
from spinorlab.equations import (EQUATION_NAMES, UNITARY_NAMES,
                                 catalog_equation, catalog_unitary,
                                 composed_tu, energy)
from spinorlab.linalg import mat_max
from spinorlab.opcalc import (DiffOp1, as_batch, diffop_commutator,
                              sample_momenta, stacked_jet)
from spinorlab.poincare import GENERATOR_NAMES, generator_set, helicity_field
from spinorlab.position import POSITION_NAMES, position_from_unitary

EPS = np.finfo(float).eps

CATALOG_FIELDS = (
    [(name, catalog_equation(name).hamiltonian) for name in EQUATION_NAMES]
    + [(name, catalog_unitary(name).closed) for name in UNITARY_NAMES]
    + [(f"{name} exponent", catalog_unitary(name).exponent)
       for name in UNITARY_NAMES
       if catalog_unitary(name).exponent is not None])


# fields built by +, @, scale, adjoint and partial: nodes, not term lists
COMPOSITE_FIELDS = (
    [(f"{name}[{k}]", x.a) for name in POSITION_NAMES
     for k, x in enumerate(position_from_unitary(name))]
    + [(f"{name} boost J0{k} A", generator_set(name).J[(0, k)].a)
       for name in GENERATOR_NAMES
       for k in range(1, generator_set(name).d + 1)]
    + [("tU2*tU1", composed_tu().closed),
       ("psi helicity", helicity_field(generator_set("psi"),
                                       sample_momenta(3, 2, 1)))])


def _real(field, p) -> bool:
    return not any(np.iscomplexobj(fn(p)) for fn, _ in field.terms)


def _parts(op: DiffOp1):
    return (op.a, *op.b, op.x0)


def assert_matches(batch, points, exact, what):
    stacked = np.stack(points)
    assert batch.shape == stacked.shape, what
    if exact:
        assert np.array_equal(batch, stacked), what
    else:
        assert mat_max(batch - stacked) <= 4 * EPS * mat_max(stacked), what


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 10_000))
def test_catalog_values_and_derivatives_match_per_point(seed):
    for name, f in CATALOG_FIELDS:
        pts = sample_momenta(f.d, 4, seed)
        pb = as_batch(pts)
        exact = _real(f, pts[0])
        assert_matches(f(pb), [f(p) for p in pts], exact, name)
        for k in range(f.d):
            assert_matches(f.partial(k)(pb), [f.partial(k)(p) for p in pts],
                           exact, f"d{name}/dp{k}")


@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_composite_values_and_derivatives_match_per_point(seed):
    for name, f in COMPOSITE_FIELDS:
        pts = sample_momenta(f.d, 4, seed)
        pb = as_batch(pts)
        assert_matches(f(pb), [f(p) for p in pts], False, name)
        for k in range(f.d):
            assert_matches(f.partial(k)(pb), [f.partial(k)(p) for p in pts],
                           False, f"d{name}/dp{k}")


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 10_000))
def test_node_derivatives_follow_product_and_sum_rules(seed):
    f = catalog_unitary("U2").closed
    g = catalog_equation("chi_4c").hamiltonian
    p = as_batch(sample_momenta(3, 4, seed))
    fp, gp, ep = f(p), g(p), energy(p)[..., None, None]
    for k in range(3):
        df, dg = f.partial(k)(p), g.partial(k)(p)
        de = dual.eps(energy(dual.seed(p, k)))[..., None, None]
        for node, rule in (
                (f @ g, df @ gp + fp @ dg),
                (f.adjoint(), np.conj(np.swapaxes(df, -1, -2))),
                (f.scale(energy), de * fp + ep * df),
                (f + g, df + dg)):
            got = node.partial(k)(p)
            assert mat_max(got - rule) <= 4 * EPS * mat_max(rule)


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 10_000))
def test_mixed_partials_are_symmetric(seed):
    p = as_batch(sample_momenta(3, 4, seed))
    for name in ("U2", "V1"):
        f = catalog_unitary(name).closed
        for k in range(3):
            for l in range(k + 1, 3):
                kl = f.partial(k).partial(l)(p)
                lk = f.partial(l).partial(k)(p)
                assert mat_max(kl - lk) <= 1e-12 * mat_max(kl), (name, k, l)


@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_generator_jets_and_commutators_match_per_point(seed):
    # one stacked jet and one commutator of every pair i < j on the batch
    # against the same at each point
    for name in GENERATOR_NAMES:
        gs = generator_set(name)
        pts = sample_momenta(gs.d, 3, seed)
        members = gs.members()
        ops = [op for _, op in members]
        exact = [all(_real(f, pts[0]) for f in _parts(op)) for op in ops]
        jb = stacked_jet(ops, as_batch(pts))
        js = [stacked_jet(ops, p) for p in pts]
        for i, ((label, _), ex) in enumerate(zip(members, exact)):
            what = f"{name}/{label}"
            assert_matches(jb.a[i], [j.a[i] for j in js], ex, what)
            for k in range(gs.d):
                assert_matches(jb.b[i, k], [j.b[i, k] for j in js], ex, what)
                assert_matches(jb.da[i, k], [j.da[i, k] for j in js], ex,
                               what)
                for l in range(gs.d):
                    assert_matches(jb.db[i, k, l], [j.db[i, k, l] for j in js],
                                   ex, what)
        cb = diffop_commutator(jb)
        cs = [diffop_commutator(j) for j in js]
        for q, (i, j) in enumerate(zip(*np.triu_indices(len(members), 1))):
            what = f"{name}/[{members[i][0]},{members[j][0]}]"
            ex = exact[i] and exact[j]
            for part in ("a", "x0_a", "x0_sq"):     # each x0 coefficient
                assert_matches(getattr(cb, part)[q],
                               [getattr(c, part)[q] for c in cs], ex, what)
            for part, k in itertools.product(("b", "x0_b"), range(gs.d)):
                assert_matches(getattr(cb, part)[k, q],
                               [getattr(c, part)[k, q] for c in cs], ex, what)
        second = max(c.second_order for c in cs)
        if all(exact):
            assert cb.second_order == second, name
        else:
            assert abs(cb.second_order - second) <= 4 * EPS, name


def test_ndarray_times_dual_stays_dual():
    x = dual.Dual(np.array([1.0, 2.0]), 1.0)
    y = np.array([3.0, 4.0]) * x
    assert isinstance(y, dual.Dual)
    assert np.array_equal(y.val, [3.0, 8.0])
    assert np.array_equal(y.eps, [3.0, 4.0])


def test_batched_sign_of_zero_raises():
    v = np.array([1.0, 0.0, -2.0])
    with pytest.raises(ValueError, match="singular point: sign of zero"):
        dual.sign(v)
    with pytest.raises(ValueError, match="singular point: sign of zero"):
        dual.sign(dual.Dual(v, 1.0))
    assert np.array_equal(dual.sign(np.array([2.0, -0.5])), [1.0, -1.0])


def test_batched_sqrt_of_negative_raises():
    v = np.array([4.0, -1.0, 9.0])
    with pytest.raises(ValueError):
        dual.sqrt(v)
    with pytest.raises(ValueError):
        dual.sqrt(dual.Dual(v, 1.0))
    assert np.array_equal(dual.sqrt(np.array([4.0, 9.0])), [2.0, 3.0])
    z = dual.sqrt(np.array([-4.0 + 0j]))
    assert np.array_equal(z, [2j])

