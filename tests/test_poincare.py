import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import nan_at
from spinorlab import opcalc
from spinorlab.clifford import pauli
from spinorlab.equations import catalog_equation, catalog_unitary
from spinorlab.linalg import NotUnitary, mat_max, worst
from spinorlab.opcalc import (DiffOp1, OperatorField, as_batch,
                              diffop_commutator, sample_momenta,
                              stacked_jet, stacked_values)
from spinorlab.poincare import (GENERATOR_NAMES, ContentNotInvariant,
                                _closure, _tensor_residual, algebra_residual,
                                generator_set, helicity_field, irrep_content,
                                irrep_content_by_branch,
                                set_covariance_residual, structure_constants,
                                structure_signs)
from spinorlab.position import verify_position

S3 = sample_momenta(3, 8, 42)
S2 = sample_momenta(2, 8, 42)
X0S = (0.0, 1.37)


def test_orbital_calibration():
    assert structure_signs(3) == (1.0, 1.0)
    assert structure_signs(2) == (1.0, 1.0)


def test_rotation_commutator_closes_on_j13():
    # [J12, J23] is i s_JJ f_JJ^c G_c with the calibrated structure sign
    gs = generator_set("psi")
    sjj, _ = structure_signs(3)
    f_jj, _ = structure_constants(3)
    names = [name for name, _ in gs.members()]
    i, j = names.index("J12"), names.index("J23")
    assert list(np.flatnonzero(f_jj[i, j])) == [names.index("J13")]
    p = S3[0]
    comm = diffop_commutator(stacked_jet([gs.J[(1, 2)], gs.J[(2, 3)]], p))
    terms = [(1j * sjj * f_jj[i, j, c], stacked_values([op], p))
             for c, (_, op) in enumerate(gs.members()) if f_jj[i, j, c]]
    aw = sum(w * a[0] for w, (a, _, _) in terms)
    bw = [sum(w * b[0, k] for w, (_, b, _) in terms) for k in range(3)]
    a, b = comm.fold(0.0)
    ac, bc = a[0, 1], b[:, 0, 1]
    assert mat_max(ac - aw) <= 1e-9
    for x, y in zip(bc, bw):
        assert mat_max(x - y) <= 1e-9
    assert comm.second_order <= 1e-10
    # and the proportionality to J13 itself is +-i
    aj = stacked_values([gs.J[(1, 3)]], p)[0][0]
    ratio = ac[np.abs(aj) > 1e-9] / aj[np.abs(aj) > 1e-9]
    assert np.allclose(ratio, ratio[0]) and abs(abs(ratio[0]) - 1.0) < 1e-12
    assert abs(ratio[0].real) < 1e-12


def test_generator_spot_values():
    gs = generator_set("chi2")
    spin = gs.J[(1, 2)].a((1.0, 1.0, 1.0))
    assert mat_max(spin - 0.5 * pauli(3)) == 0.0

    gs = generator_set("psi")
    p = S3[0]
    assert mat_max(gs.P[2].a(p) - p[1] * np.eye(4)) == 0.0

    # J_03 zeroth part at x0 = 0 is -(i/2) d(H)/dp3 for the diagonal set
    gs = generator_set("phi")
    h = catalog_equation("phi_diag").hamiltonian
    a0 = stacked_values([gs.J[(0, 3)]], p)[0][0]
    assert mat_max(a0 + 0.5j * h.partial(2)(p)) < 1e-15


@pytest.mark.parametrize("name", ["psi", "chi", "phi", "phi_pos", "phi_neg",
                                  "chi2", "chi2_lower", "weyl"])
def test_algebra_closure_d3(name):
    resid, second = algebra_residual(generator_set(name), S3, X0S)
    assert resid <= 1e-8, name
    assert second <= 1e-10, name


def test_algebra_closure_flat():
    resid, second = algebra_residual(generator_set("flat", m=1.0), S2, X0S)
    assert resid <= 1e-8
    assert second <= 1e-10


def test_translations_commute_exactly():
    gs = generator_set("chi")
    p = S3[0]
    comm = diffop_commutator(stacked_jet([gs.P[k] for k in range(4)], p))
    for k in range(4):
        for l in range(4):
            assert mat_max(comm.a[k, l]) == 0.0


def test_u2_covariance_chi_to_phi():
    u2 = catalog_unitary("U2").closed
    r = set_covariance_residual(generator_set("chi"), generator_set("phi"),
                                u2, S3[:4])
    assert r <= 1e-8


def test_helicity_psi():
    gs = generator_set("psi")
    h = helicity_field(gs, S3[:2])
    eq = catalog_equation("dirac_massless")
    for p in S3[:4]:
        hm = h(p)
        assert mat_max(hm - hm.conj().T) < 1e-14
        assert mat_max(hm @ eq.hamiltonian(p) - eq.hamiltonian(p) @ hm) < 1e-13
        eig = np.sort(np.linalg.eigvalsh(hm))
        assert np.allclose(eig, [-0.5, -0.5, 0.5, 0.5], atol=1e-10)
        assert np.allclose(np.linalg.eigvalsh(hm @ hm), 0.25, atol=1e-10)


def test_helicity_phi_on_axis():
    # away from the sampler: p = (0, 0, 2) is regular for the diagonal set
    gs = generator_set("phi")
    h = helicity_field(gs, S3[:2])
    eig = np.sort(np.linalg.eigvalsh(h((0.0, 0.0, 2.0))))
    assert np.allclose(eig, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)


def test_irrep_content_dirac_massless():
    content = irrep_content(catalog_equation("dirac_massless"),
                            generator_set("psi"), S3)
    assert content == ((-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5))


def test_irrep_content_weyl():
    content = irrep_content(catalog_equation("weyl_plus"),
                            generator_set("weyl"), S3)
    assert content == ((-1, -0.5), (1, 0.5))


def test_irrep_content_chi_plus_branches():
    # the reduced equation carries a 2-label content on each p3 branch;
    # mixing branches is reported as non-invariant content
    eq = catalog_equation("chi_plus")
    gs = generator_set("chi2")
    branches = irrep_content_by_branch(eq, gs, sample_momenta(3, 12, 42))
    assert branches["+"] == ((-1, -0.5), (1, 0.5))
    assert branches["-"] == ((-1, 0.5), (1, -0.5))
    with pytest.raises(ContentNotInvariant):
        irrep_content(eq, gs, sample_momenta(3, 12, 42))


def test_content_invariant_under_conjugation():
    eq = catalog_equation("dirac_massless")
    gs = generator_set("psi")
    base = irrep_content(eq, gs, S3)
    for uname in ("U1", "U2"):
        u = catalog_unitary(uname).closed
        assert irrep_content(eq, gs, S3, u=u) == base


def test_helicity_requires_d3():
    with pytest.raises(ValueError):
        helicity_field(generator_set("flat"), S2[:2])


def test_unknown_generator_set():
    with pytest.raises(ValueError):
        generator_set("bogus")


def test_helicity_guards_fail_closed_on_nan():
    gs = generator_set("weyl")
    points = S3[:2]
    poison = OperatorField(2, 3, [(nan_at(points[1]), np.eye(2))])
    j12 = gs.J[(1, 2)]
    J = dict(gs.J)
    J[(1, 2)] = DiffOp1(j12.a, (j12.b[0] + poison,) + j12.b[1:])
    with pytest.raises(RuntimeError, match="not a scalar helicity"):
        helicity_field(dataclasses.replace(gs, J=J), points)
    J[(1, 2)] = DiffOp1(j12.a, j12.b, poison)
    with pytest.raises(RuntimeError, match="x0 part"):
        helicity_field(dataclasses.replace(gs, J=J), points)


@pytest.mark.parametrize("d", [2, 3])
def test_structure_constants_are_antisymmetric_and_satisfy_jacobi(d):
    sjj, sjp = structure_signs(d)
    f_jj, f_jp = structure_constants(d)
    f = sjj * f_jj + sjp * f_jp
    size = len(generator_set("psi" if d == 3 else "flat").members())
    assert f.shape == (size, size, size) and f.any()
    assert np.array_equal(f, -np.swapaxes(f, 0, 1))
    jacobi = (np.einsum("ije,ekc->ijkc", f, f)
              + np.einsum("jke,eic->ijkc", f, f)
              + np.einsum("kie,ejc->ijkc", f, f))
    assert not jacobi.any()


def test_closure_fails_on_a_flipped_spin_part():
    gs = generator_set("psi")
    j12 = gs.J[(1, 2)]
    flipped = {**gs.J, (1, 2): DiffOp1(j12.a.scale(-1.0), j12.b, j12.x0)}
    resid, _ = algebra_residual(dataclasses.replace(gs, J=flipped), S3, X0S)
    assert resid > 1e-8


def test_closure_fails_closed_on_nan():
    # a NaN at one sample, in a P part (A) and in a J part (B)
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    p1, j12 = gs.P[1], gs.J[(1, 2)]
    for P, J in (
            ({**gs.P, 1: DiffOp1(p1.a + poison, p1.b)}, gs.J),
            (gs.P, {**gs.J, (1, 2): DiffOp1(
                j12.a, (j12.b[0] + poison,) + j12.b[1:], j12.x0)})):
        resid, _ = algebra_residual(dataclasses.replace(gs, P=P, J=J), S3, X0S)
        assert math.isnan(resid)


def test_closure_fails_closed_on_nan_in_a_boost_x0_part():
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    j01 = gs.J[(0, 1)]
    J = {**gs.J, (0, 1): DiffOp1(j01.a, j01.b, j01.x0 + poison)}
    resid, _ = algebra_residual(dataclasses.replace(gs, J=J), S3, X0S)
    assert math.isnan(resid)


def test_closure_fails_closed_on_nan_in_a_zero_b_part():
    # P1 has no B part, so its B products are skipped unless the NaN counts
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    p1 = gs.P[1]
    P = {**gs.P, 1: DiffOp1(p1.a, (p1.b[0] + poison,) + p1.b[1:])}
    poisoned = dataclasses.replace(gs, P=P)
    resid, _ = algebra_residual(poisoned, S3, X0S)
    assert math.isnan(resid)
    # the commutators themselves, not only the right-hand sides, carry it
    jet = stacked_jet([op for _, op in poisoned.members()], as_batch(S3))
    assert math.isnan(mat_max(diffop_commutator(jet).a))


def test_closure_fails_closed_on_nan_in_a_member_without_x0_part():
    # P1 has no x0 part; a NaN one makes it live for the x0 terms
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    p1 = gs.P[1]
    P = {**gs.P, 1: DiffOp1(p1.a, p1.b, poison)}
    resid, _ = algebra_residual(dataclasses.replace(gs, P=P), S3, X0S)
    assert math.isnan(resid)


def all_pairs_residual(closure, x0_values, sign_jj, sign_jp) -> float:
    """The earlier closure residual, kept as the reference for the pairs-only
    one: every pair (i, j), folded at full size, with the right-hand sides of
    A + x0 C and B from one GEMM per x0 value."""
    comm, a, c, b = closure
    f_jj, f_jp = structure_constants(len(comm.b))
    size = len(f_jj)
    f = (1j * (sign_jj * f_jj + sign_jp * f_jp)).reshape(size * size, size)
    out = []
    for x0v in x0_values:
        values = np.concatenate([(a + x0v * c)[:, None], b], axis=1)
        rhs = (f @ values.reshape(size, -1)).reshape(
            (size, size) + values.shape[1:])
        lhs_a, lhs_b = comm.fold(x0v)
        out += [mat_max(lhs_a - rhs[:, :, 0]),
                mat_max(lhs_b - np.moveaxis(rhs[:, :, 1:], 2, 0))]
    return worst(out)


def _noncommuting_x0_set():
    """psi with non-scalar x0 parts on J01 and J02 that do not commute with
    each other or with B, so that every x0 part of the commutator is
    nonzero (on the realizations they are p_k times the identity)."""
    gs = generator_set("psi")
    J = dict(gs.J)
    for k, a in ((1, 1), (2, 2)):
        j0k = J[(0, k)]
        m = np.kron(pauli(a), np.eye(2))
        J[(0, k)] = DiffOp1(j0k.a, j0k.b, j0k.x0 + OperatorField(
            4, 3, [(lambda p, _k=k: p[_k - 1], m)]))
    return dataclasses.replace(gs, name="psi_x0", J=J)


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
def test_pairs_residual_equals_the_all_pairs_reference(seed):
    # under the calibrated signs (residuals near rounding) and under every
    # wrong pair (residuals of order one, at another pair)
    sets = [generator_set(name) for name in GENERATOR_NAMES]
    for gs in sets + [_noncommuting_x0_set()]:
        closure = _closure(gs, as_batch(sample_momenta(gs.d, 8, seed)))
        for signs in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
            want = all_pairs_residual(closure, X0S, *signs)
            assert _tensor_residual(closure, X0S, *signs) == want, gs.name


def test_generator_set_is_built_once_per_arguments():
    gs = generator_set("psi")
    assert generator_set("psi", 1.0) is gs
    assert generator_set("psi", m=1.0) is gs
    assert generator_set(name="psi", m=1) is gs
    assert generator_set("flat", m=2.0) is generator_set("flat", 2)
    assert generator_set("flat", m=2.0) is not generator_set("flat")
    with pytest.raises(TypeError):      # shared, so its tables are read-only
        gs.J[(1, 2)] = gs.J[(1, 3)]


def test_covariance_probes_unitarity_once(monkeypatch):
    calls = []
    defect = opcalc.unitarity_defect
    monkeypatch.setattr(opcalc, "unitarity_defect",
                        lambda u: (calls.append(u.shape), defect(u))[1])
    chi, phi = generator_set("chi"), generator_set("phi")
    u2 = catalog_unitary("U2").closed
    assert set_covariance_residual(chi, phi, u2, S3[:4]) <= 1e-8
    assert calls == [(2, 4, 4)]             # one probe of the two points
    with pytest.raises(NotUnitary):
        set_covariance_residual(chi, phi, u2.scale(1.5), S3[:4])


def test_closure_peak_memory():
    gs, pts = generator_set("psi"), sample_momenta(3, 8, 5)
    algebra_residual(gs, pts)             # lazy set-up outside the window
    tracemalloc.start()
    try:
        algebra_residual(gs, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5e6


def _peak_bytes(run):
    """tracemalloc peak of run(), after one call outside the window."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_position_peak_memory():
    # 1.80 MB with one jet per component, plus 10% headroom
    pts = sample_momenta(3, 12, 5)
    assert _peak_bytes(lambda: verify_position("Xpsi", pts)) <= 2.0e6


def test_covariance_peak_memory():
    # 0.035 MB when each member was evaluated on its own, plus headroom for
    # the values that one shared evaluation of the ten members keeps
    chi, phi = generator_set("chi"), generator_set("phi")
    u2, pts = catalog_unitary("U2").closed, sample_momenta(3, 8, 5)[:4]
    assert _peak_bytes(lambda: set_covariance_residual(chi, phi, u2,
                                                       pts)) <= 0.5e6
