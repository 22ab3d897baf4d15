import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense_commutator, nan_at
from spinorlab import cli, opcalc
from spinorlab.clifford import pauli
from spinorlab.equations import catalog_equation, catalog_unitary, energy
from spinorlab.linalg import NotUnitary, mat_max
from spinorlab.opcalc import (DiffOp1, OperatorField, as_batch,
                              diffop_commutator, sample_momenta,
                              stacked_jet, stacked_values)
from spinorlab.poincare import (CONTENT_SETS, GENERATOR_NAMES,
                                ContentNotInvariant, _block_helicities,
                                _closure, _half_integer, _tensor_residual,
                                algebra_residual,
                                generator_set, helicity_field, irrep_content,
                                set_covariance_residual, structure_constants,
                                structure_signs)
from spinorlab.position import verify_position

S3 = sample_momenta(3, 8, 42)
S2 = sample_momenta(2, 8, 42)

# (energy sign, helicity) labels: all four, helicity +eps/2, helicity -eps/2
FOUR = ((-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5))
UP, DOWN = ((-1, -0.5), (1, 0.5)), ((-1, 0.5), (1, -0.5))


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
    assert not (comm.x0_a.any() or comm.x0_b.any() or comm.x0_sq.any())
    ac, bc = comm.a[0], comm.b[:, 0]        # the one pair of the stack
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
    resid, second = algebra_residual(generator_set(name), S3)
    assert resid <= 1e-8, name
    assert second <= 1e-10, name


def test_algebra_closure_flat():
    resid, second = algebra_residual(generator_set("flat", m=1.0), S2)
    assert resid <= 1e-8
    assert second <= 1e-10


def test_translations_commute_exactly():
    gs = generator_set("chi")
    p = S3[0]
    comm = diffop_commutator(stacked_jet([gs.P[k] for k in range(4)], p))
    assert len(comm.a) == 6                 # every pair k < l
    for a in comm.a:
        assert mat_max(a) == 0.0


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
    assert content == {"+": FOUR, "-": FOUR}


def test_irrep_content_weyl():
    content = irrep_content(catalog_equation("weyl_plus"),
                            generator_set("weyl"), S3)
    assert content == {"+": UP, "-": UP}


def test_irrep_content_chi_plus_branches():
    # the reduced equation ties its helicity to the sign of p3: a 2-label
    # content on each branch, and the two branches differ
    branches = irrep_content(catalog_equation("chi_plus"),
                             generator_set("chi2"), sample_momenta(3, 12, 42))
    assert branches == {"+": UP, "-": DOWN}


@pytest.mark.parametrize("sign, key, labels", [(1, "+", UP), (-1, "-", DOWN)])
def test_irrep_content_reports_only_the_branches_sampled(sign, key, labels):
    branch = [p for p in sample_momenta(3, 12, 42) if np.sign(p[2]) == sign]
    assert irrep_content(catalog_equation("chi_plus"), generator_set("chi2"),
                         branch) == {key: labels}


@pytest.mark.parametrize("samples, index", [
    ([(1.0, 2.0, 0.0), (0.5, -1.0, 0.0)], 0),     # no sample on a branch
    (S3[:3] + [(1.0, 2.0, 0.0)] + S3[3:], 3),    # one among both branches
])
def test_irrep_content_rejects_a_sample_on_neither_branch(samples, index):
    # p3 = 0 is on neither p3 branch: the content fails closed, naming the
    # equation and the sample, instead of leaving the sample out
    with pytest.raises(ValueError,
                       match=f"^weyl_plus: sample {index} has p3 = 0$"):
        irrep_content(catalog_equation("weyl_plus"), generator_set("weyl"),
                      samples)


def test_corrupted_reduction_is_not_invariant_within_a_branch():
    branch = [p for p in sample_momenta(3, 12, 42) if p[2] > 0]
    with pytest.raises(ContentNotInvariant, match="not a half-integer"):
        irrep_content(catalog_equation("chi_plus", corrupt_reduction=True),
                      generator_set("chi2"), branch)


def test_content_that_varies_within_a_branch_raises_naming_it():
    # sign(p2) H: the energy signs, and so the labels, flip with p2 on
    # either p3 branch
    eq = catalog_equation("chi_plus")
    flipped = dataclasses.replace(
        eq, hamiltonian=eq.hamiltonian.scale(lambda p: np.sign(p[1])))
    branch = [p for p in sample_momenta(3, 12, 42) if p[2] < 0]
    assert {np.sign(p[1]) for p in branch} == {-1.0, 1.0}
    with pytest.raises(ContentNotInvariant, match="on the p3 - branch"):
        irrep_content(flipped, generator_set("chi2"), branch)


def test_content_invariant_under_conjugation():
    # U1 carries dirac_massless to chi_4c and U2 carries chi_4c to phi_diag;
    # their generator sets give dirac_massless's content on both branches
    base = irrep_content(catalog_equation("dirac_massless"),
                         generator_set("psi"), S3)
    for uname, gs in (("U1", "chi"), ("U2", "phi")):
        eq = catalog_equation(catalog_unitary(uname).target)
        assert irrep_content(eq, generator_set(gs), S3) == base


def per_sample_content(eq, gs, samples):
    """The earlier content, one eigvalsh per sample and energy sign, kept as
    the reference for the stacked one."""
    p = as_batch(samples)
    w_all, v_all = np.linalg.eigh(eq.hamiltonian(p))
    hel_all = helicity_field(gs, samples[:2])(p)
    out = {}
    for key, rows in (("+", p[2] > 0), ("-", p[2] < 0)):
        for w, v, hel_p in zip(w_all[rows], v_all[rows], hel_all[rows]):
            blocks = [(eps, v[:, np.sign(w) == eps]) for eps in (1, -1)]
            content = tuple(sorted(
                (eps, _half_integer(x)) for eps, q in blocks
                for x in np.linalg.eigvalsh(q.conj().T @ hel_p @ q)))
            assert out.setdefault(key, content) == content
    return out


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("seed", [42, 5, 7])
@pytest.mark.parametrize("name", sorted(CONTENT_SETS))
def test_stacked_content_equals_the_per_sample_loop(name, seed, n):
    eq, gs = catalog_equation(name), generator_set(CONTENT_SETS[name][0])
    samples = sample_momenta(3, n, seed)
    assert irrep_content(eq, gs, samples) == per_sample_content(eq, gs,
                                                                samples)
    # the helicities themselves are the per-sample ones bit for bit
    p = as_batch(samples)
    w, v = np.linalg.eigh(eq.hamiltonian(p))
    hel = helicity_field(gs, samples[:2])(p)
    for eps in (1, -1):
        stacked = _block_helicities(w, v, hel, eps)
        assert isinstance(stacked, np.ndarray) and stacked.shape[0] == n
        for x, ws, vs, hs in zip(stacked, w, v, hel):
            q = vs[:, np.sign(ws) == eps]
            assert np.array_equal(x, np.linalg.eigvalsh(q.conj().T @ hs @ q))


def test_unequal_block_sizes_take_the_per_sample_path(monkeypatch):
    # H = sign(p2) E: both eigenvalues positive where p2 > 0 and both
    # negative where p2 < 0, so the energy-sign blocks differ in size across
    # the branch; each sample is solved on its own, and the content varies
    branch = [p for p in sample_momenta(3, 12, 42) if p[2] < 0]
    signs = [np.sign(p[1]) for p in branch]
    assert set(signs) == {-1.0, 1.0}
    eq = dataclasses.replace(
        catalog_equation("chi_plus"), hamiltonian=OperatorField.scalar(
            lambda p: np.sign(p[1]) * energy(p), 2, 3))
    gs, p = generator_set("chi2"), as_batch(branch)
    w, v = np.linalg.eigh(eq.hamiltonian(p))
    hel = helicity_field(gs, branch[:2])(p)
    for eps in (1, -1):
        got = _block_helicities(w, v, hel, eps)
        assert isinstance(got, list)
        assert [len(x) for x in got] == [2 if s == eps else 0 for s in signs]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or eigvalsh(a))
    with pytest.raises(ContentNotInvariant, match="on the p3 - branch"):
        irrep_content(eq, gs, branch)
    assert calls and all(len(shape) == 2 for shape in calls)


@pytest.mark.parametrize("n", ["8", "16"])
def test_corrupted_content_fails_in_one_line_on_a_stacked_branch(capsys, n):
    assert cli.main(["content", "--equation", "chi_plus", "--samples", n,
                     "--corrupt-reduction"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("content not invariant:") and err.count("\n") == 1


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
    J[(1, 2)] = DiffOp1(j12.a, (j12.b[0] + poison,) + j12.b[1:], j12.x0)
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
    resid, _ = algebra_residual(dataclasses.replace(gs, J=flipped), S3)
    assert resid > 1e-8


def test_closure_fails_closed_on_nan():
    # a NaN at one sample, in a P part (A) and in a J part (B)
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    p1, j12 = gs.P[1], gs.J[(1, 2)]
    for P, J in (
            ({**gs.P, 1: DiffOp1(p1.a + poison, p1.b, p1.x0)}, gs.J),
            (gs.P, {**gs.J, (1, 2): DiffOp1(
                j12.a, (j12.b[0] + poison,) + j12.b[1:], j12.x0)})):
        resid, _ = algebra_residual(dataclasses.replace(gs, P=P, J=J), S3)
        assert math.isnan(resid)


def test_closure_fails_closed_on_nan_in_a_boost_x0_part():
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    j01 = gs.J[(0, 1)]
    J = {**gs.J, (0, 1): DiffOp1(j01.a, j01.b, j01.x0 + poison)}
    resid, _ = algebra_residual(dataclasses.replace(gs, J=J), S3)
    assert math.isnan(resid)


def test_closure_fails_closed_on_nan_in_a_zero_b_part():
    # P1 has no B part, so its B products are skipped unless the NaN counts
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    p1 = gs.P[1]
    P = {**gs.P, 1: DiffOp1(p1.a, (p1.b[0] + poison,) + p1.b[1:], p1.x0)}
    poisoned = dataclasses.replace(gs, P=P)
    resid, _ = algebra_residual(poisoned, S3)
    assert math.isnan(resid)
    # the commutators themselves, not only the right-hand sides, carry it
    jet = stacked_jet([op for _, op in poisoned.members()], as_batch(S3))
    assert math.isnan(mat_max(diffop_commutator(jet).a))


def test_closure_fails_closed_on_nan_in_a_member_without_x0_part():
    # P1's x0 part is the zero field; a NaN one makes it live for the x0 terms
    gs = generator_set("psi")
    poison = OperatorField(4, 3, [(nan_at(S3[1]), np.eye(4))])
    p1 = gs.P[1]
    P = {**gs.P, 1: DiffOp1(p1.a, p1.b, poison)}
    resid, _ = algebra_residual(dataclasses.replace(gs, P=P), S3)
    assert math.isnan(resid)


def test_closure_fails_on_an_x0_part_that_vanishes_at_two_values_of_x0():
    # a planted x0 part x0 (x0 - 1.37) X is zero at x0 = 0 and at 1.37, and
    # not identically: its x0^1 and x0^2 coefficients read |X| or more
    closure = _closure(generator_set("psi"), as_batch(S3))
    comm, signs = closure[0], structure_signs(3)
    x = np.full_like(comm.a, 1e-3)
    planted = dataclasses.replace(comm, x0_a=comm.x0_a - 1.37 * x,
                                  x0_sq=comm.x0_sq + x)
    assert _tensor_residual(closure, *signs) <= 1e-8
    assert _tensor_residual((planted, *closure[1:]), *signs) >= 1e-3


def all_pairs_residual(closure, sign_jj, sign_jp) -> float:
    """The earlier closure residual, kept as the reference for the pairs-only
    one: every pair (i, j) of a (G, G) commutator at full size, each x0
    coefficient on its own, with the right-hand sides of A, C and B from one
    GEMM."""
    comm, a, c, b = closure
    f_jj, f_jp = structure_constants(len(comm.b))
    size = len(f_jj)
    f = (1j * (sign_jj * f_jj + sign_jp * f_jp)).reshape(size * size, size)
    values = np.concatenate([a[:, None], c[:, None], b], axis=1)
    rhs = (f @ values.reshape(size, -1)).reshape(
        (size, size) + values.shape[1:])
    return mat_max(comm.a - rhs[:, :, 0], comm.x0_a - rhs[:, :, 1],
                   comm.x0_sq, comm.b - np.moveaxis(rhs[:, :, 2:], 2, 0),
                   comm.x0_b)


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
        p = as_batch(sample_momenta(gs.d, 8, seed))
        closure = _closure(gs, p)
        # the all-pairs reference reads the (G, G) dense commutator
        jet = stacked_jet([op for _, op in gs.members()], p)
        dense = (dense_commutator(jet),) + closure[1:]
        for signs in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
            want = all_pairs_residual(dense, *signs)
            assert _tensor_residual(closure, *signs) == want, gs.name


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
    with pytest.raises(NotUnitary) as raised:
        set_covariance_residual(chi, phi, u2.scale(1.5), S3[:4])
    assert str(raised.value).endswith(f"not unitary at {S3[0]}")


def test_closure_peak_memory():
    # 2.11 MB with the second-order term on the live B slots and no zero
    # field evaluated (2.44 MB on every slot of the live members, 3.48 MB
    # with every (G, G) pair), plus 10% headroom
    gs, pts = generator_set("psi"), sample_momenta(3, 8, 5)
    algebra_residual(gs, pts)             # lazy set-up outside the window
    tracemalloc.start()
    try:
        algebra_residual(gs, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.35e6


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
    # 0.24 MB from the values of the components alone (1.05 MB with their
    # jet and commutator, 1.80 MB with one jet per component), plus headroom
    pts = sample_momenta(3, 12, 5)
    assert _peak_bytes(lambda: verify_position("Xpsi", pts)) <= 0.3e6


def test_covariance_peak_memory():
    # 0.035 MB when each member was evaluated on its own, plus headroom for
    # the values that one shared evaluation of the ten members keeps
    chi, phi = generator_set("chi"), generator_set("phi")
    u2, pts = catalog_unitary("U2").closed, sample_momenta(3, 8, 5)[:4]
    assert _peak_bytes(lambda: set_covariance_residual(chi, phi, u2,
                                                       pts)) <= 0.5e6
