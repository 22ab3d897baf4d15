import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import kept, nan_at, product_residuals, proportional
from spinorlab import symmetry
from spinorlab.clifford import pauli
from spinorlab.equations import (EQUATION_NAMES, EquationSpec,
                                 catalog_equation, energy)
from spinorlab.linalg import cond2, mat_max, polar_unitary, svd_nullspace
from spinorlab.opcalc import OperatorField, as_batch, sample_momenta
from spinorlab.symmetry import (Indeterminate, Intertwiner,
                                NonInvariance, SymmetryElement,
                                classify_equation, group_elements,
                                intertwine_condition, random_search_oracle,
                                solve_intertwiner,
                                verify_projection_relations)

REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "bench"
                        / "reference.json").read_text())


# -- element algebra -----------------------------------------------------------

def test_label_round_trip():
    for g in group_elements(3):
        assert SymmetryElement.parse(g.label, 3) == g


def test_parse_is_order_insensitive():
    assert SymmetryElement.parse("C*P3", 3) == SymmetryElement.parse("P3*C", 3)


def test_time_reversal_product_is_conjugation():
    assert SymmetryElement.parse("T1*T2", 3).label == "C"
    assert SymmetryElement.parse("T2*C", 3) == SymmetryElement.parse("T1", 3)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_composition_is_xor_of_codes(d):
    elements = group_elements(d)
    assert sorted(g.code for g in elements) == list(range(4 << d))
    for a in elements:
        for b in elements:
            # "Id" cannot stand inside a product: leave it out of the label
            label = "*".join(g.label for g in (a, b) if g.label != "Id")
            assert SymmetryElement.parse(label, d).code == a.code ^ b.code


@pytest.mark.parametrize("d", [2, 3])
def test_keeps_is_a_parity_character(d):
    # keeping B is a homomorphism onto {+1, -1}: a product keeps B iff both
    # factors keep it or both break it; every element keeps Id, and B = Id
    # is the only label every element keeps
    group = group_elements(d)
    identity = SymmetryElement.parse("Id", d)
    for b in group:
        assert all(g.keeps(b) for g in group) == (b == identity)
        for g in group:
            for h in group:
                gh = SymmetryElement(d, g.code ^ h.code)
                assert gh.keeps(b) == (g.keeps(b) == h.keeps(b))


def test_canonicalization_folds_conjugation_pairs():
    # P1*C*T1 has two antilinear factors: they cancel to a linear element
    g = SymmetryElement.parse("P1*C*T1", 3)
    assert g.label == "P1*T2"
    assert not g.conjugate and g.time_flip


def test_group_sizes():
    assert len(group_elements(2)) == 16
    assert len(group_elements(3)) == 32
    assert len(group_elements(4)) == 64


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        SymmetryElement.parse("P5", 3)
    with pytest.raises(ValueError):
        SymmetryElement.parse("Q1", 3)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_group_data_is_built_once_and_equals_its_formulas(d):
    elements = group_elements(d)
    again = group_elements(d)
    assert again == elements and again is not elements
    assert all(a is b for a, b in zip(elements, again))
    for g in elements:
        assert g.code == (sum(1 << (k - 1) for k in g.flips)
                          | g.time_flip << d | g.conjugate << (d + 1))
        assert g.signs == tuple(-1.0 if (k in g.flips) != g.conjugate else 1.0
                                for k in range(1, d + 1))
        assert g.signs is g.signs
        parsed = SymmetryElement.parse(g.label, d)
        assert parsed.code == g.code and parsed == g
        assert SymmetryElement.parse(g.label, d) is parsed


def test_editing_the_group_list_reaches_no_later_call():
    eq = catalog_equation("weyl_plus")
    want = _fingerprint(classify_equation(eq))
    before = group_elements(3)
    elements = group_elements(3)
    elements.reverse()
    elements[0] = SymmetryElement.parse("P1*P2", 3)
    del elements[5:]
    assert group_elements(3) == before and len(before) == 32
    assert _fingerprint(classify_equation(eq)) == want


# -- intertwining condition ------------------------------------------------------

def test_condition_charge_conjugation_on_chi_plus():
    eq = catalog_equation("chi_plus")
    g = SymmetryElement.parse("C", 3)
    ht, h = intertwine_condition(eq, g, (1.0, 1.0, 1.0))
    # -conj(H(-p)) = s2*p1 + s1*p2 - s3*|p3|
    want = pauli(2) + pauli(1) - pauli(3)
    assert mat_max(ht - want) == 0.0
    assert mat_max(h - (-pauli(2) + pauli(1) + pauli(3))) == 0.0


def test_condition_p3_is_even():
    eq = catalog_equation("chi_plus")
    g = SymmetryElement.parse("P3", 3)
    for p in sample_momenta(3, 4, 3):
        ht, h = intertwine_condition(eq, g, p)
        assert mat_max(ht - h) == 0.0


def test_wigner_reversal_of_weyl_solved_by_sigma2():
    eq = catalog_equation("weyl_plus")
    out = solve_intertwiner(eq, SymmetryElement.parse("T1", 3))
    assert isinstance(out, Intertwiner)
    assert proportional(out.unitary_rep, pauli(2), 1e-10)


# -- solver ---------------------------------------------------------------------

def test_solver_chi_plus_examples():
    eq = catalog_equation("chi_plus")
    out = solve_intertwiner(eq, SymmetryElement.parse("C", 3))
    assert isinstance(out, Intertwiner)
    assert proportional(out.unitary_rep, pauli(1), 1e-10)
    assert out.holdout_residual <= 1e-7
    assert out.nullity == 1

    out = solve_intertwiner(eq, SymmetryElement.parse("P3", 3))
    assert isinstance(out, Intertwiner)
    assert proportional(out.unitary_rep, np.eye(2), 1e-10)

    out = solve_intertwiner(eq, SymmetryElement.parse("P1", 3))
    assert isinstance(out, NonInvariance)
    assert out.relative > 1e-2


def test_fit_points_are_at_least_2d_plus_4_for_every_equation():
    # the fit size is one constant: an added equation of larger d fails
    # here instead of fitting on fewer than 2d + 4 momenta
    for name in EQUATION_NAMES:
        d = catalog_equation(name).d
        assert symmetry.FIT_POINTS >= 2 * d + 4, (name, d)


def test_invariant_nullspaces_are_one_dimensional_2x2():
    for name in ("weyl_plus", "chi_plus", "flat_plus"):
        eq = catalog_equation(name)
        for g in group_elements(eq.d):
            out = solve_intertwiner(eq, g)
            if isinstance(out, Intertwiner):
                assert out.nullity == 1, (name, g.label)


# -- classification ---------------------------------------------------------------

def test_classify_weyl_plus():
    rep = classify_equation(catalog_equation("weyl_plus"))
    assert rep.agreement and rep.coherence_ok
    assert not rep.verdict_for("P1*P2*P3").invariant
    assert not rep.verdict_for("C").invariant
    assert rep.verdict_for("P1*P2*P3*C").invariant
    assert rep.verdict_for("T1").invariant
    assert not rep.verdict_for("T2").invariant


def test_classify_chi_plus_matches_claims():
    rep = classify_equation(catalog_equation("chi_plus"))
    assert rep.agreement and rep.coherence_ok
    assert rep.claims_checked == len(rep.verdicts) == 32


def test_classify_dirac_massless_fully_invariant():
    rep = classify_equation(catalog_equation("dirac_massless"))
    assert rep.agreement
    assert len(rep.verdicts) == 32
    assert all(v.invariant for v in rep.verdicts)


def test_classify_reports_flat_tp_combinations():
    # all four T^a P^b products hold for the 2+1-dimensional pair
    rep = classify_equation(catalog_equation("flat_plus"))
    assert rep.agreement
    for a in (1, 2):
        for b in (1, 2):
            assert rep.verdict_for(f"T{a}*P{b}").invariant


def test_classify_desitter():
    rep = classify_equation(catalog_equation("desitter", kappa=1.5))
    assert rep.agreement and rep.coherence_ok
    assert rep.verdict_for("T1").invariant
    assert rep.verdict_for("T2*C").invariant        # same group element as T1
    for lab in ("P1", "P2", "P3", "P4", "T2", "C"):
        assert not rep.verdict_for(lab).invariant


def test_classify_kappa_pair():
    for name in ("kappa_plus", "kappa_minus"):
        rep = classify_equation(catalog_equation(name, kappa=0.8))
        assert rep.agreement, name
        assert rep.verdict_for("P3").invariant
        assert rep.verdict_for("C").invariant
        assert not rep.verdict_for("T1").invariant


def test_corruption_flips_a_verdict():
    good = classify_equation(catalog_equation("chi_plus"))
    bad = classify_equation(catalog_equation("chi_plus", corrupt_reduction=True))
    gv = {v.element.label: v.invariant for v in good.verdicts}
    bv = {v.element.label: v.invariant for v in bad.verdicts}
    assert any(gv[k] != bv[k] for k in gv)
    assert not bad.agreement
    assert bv["T1"] and not gv["T1"]


# -- oracle and projector relations ------------------------------------------------

def _oracle_pool(eq, n, seed=11):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, eq.dim ** 2))
            + 1j * rng.normal(size=(n, eq.dim ** 2)))


def test_oracle_agrees_on_spot_checks():
    eq = catalog_equation("chi_plus")
    pts, pool = sample_momenta(3, 12, 42), _oracle_pool(eq, 20_000, 5)
    best, verdict = random_search_oracle(eq, SymmetryElement.parse("C", 3),
                                         pts, pool)
    assert verdict and best < 1e-3
    best, verdict = random_search_oracle(eq, SymmetryElement.parse("P1", 3),
                                         pts, pool)
    assert not verdict and best > 1e-2


def _stepwise_oracle(eq, g, points, pool, polish_iters=1500, n_polish=8):
    """Reference oracle: a per-point Gram sum, a normalised copy of the pool,
    a full sort, the 2-norm shift and ``polish_iters`` explicit steps of
    normalised power iteration."""
    eye = np.eye(eq.dim)
    gram = 0
    scale2 = 0.0
    for ht, h in zip(*intertwine_condition(eq, g, as_batch(points))):
        k = np.kron(h, eye) - np.kron(eye, ht.T)
        gram = gram + k.conj().T @ k
        scale2 += np.linalg.norm(h) ** 2
    v = pool / np.linalg.norm(pool, axis=1, keepdims=True)
    rel = np.sqrt(np.maximum(np.real(np.einsum("ni,ni->n", v.conj(),
                                               v @ gram.T)), 0.0) / scale2)
    w = v[np.argsort(rel)[:n_polish]].T
    shifted = np.linalg.norm(gram, 2) * np.eye(len(gram)) - gram
    for _ in range(polish_iters):
        w = shifted @ w
        w /= np.linalg.norm(w, axis=0, keepdims=True)
    quad_w = np.real(np.einsum("in,in->n", w.conj(), gram @ w))
    return min(rel.min(), np.sqrt(np.maximum(quad_w, 0.0) / scale2).min())


@pytest.mark.parametrize("name,label", [
    ("chi_plus", "C"), ("chi_plus", "P1"), ("weyl_plus", "T1"),
    ("weyl_plus", "C"), ("flat_plus", "P1*C"), ("flat_minus", "T2"),
    ("spinless_plus", "P1*P2*P3"), ("desitter", "C"), ("desitter", "T1")])
def test_squared_polish_equals_the_step_loop(name, label):
    eq = catalog_equation(name)
    g = SymmetryElement.parse(label, eq.d)
    pts = sample_momenta(eq.d, 12, 42)
    rng = np.random.default_rng(7)
    pool = (rng.normal(size=(5_000, eq.dim ** 2))
            + 1j * rng.normal(size=(5_000, eq.dim ** 2)))
    best, verdict = random_search_oracle(eq, g, pts, pool=pool)
    ref = _stepwise_oracle(eq, g, pts, pool)
    assert verdict == (ref < 1e-3)
    if verdict:
        assert best <= 1e-12 and ref <= 1e-12, (best, ref)
    else:
        assert abs(best - ref) <= 1e-12 * ref, (best, ref)


def test_oracle_makes_no_svd_or_eigensolver_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not factor a matrix")

    for module in (np.linalg, np.linalg._linalg):
        for fn in ("svd", "eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(module, fn, forbidden)
    eq = catalog_equation("chi_plus")
    pts = sample_momenta(3, 12, 42)
    for label, want in (("C", True), ("P1", False)):
        best, verdict = random_search_oracle(
            eq, SymmetryElement.parse(label, 3), pts,
            _oracle_pool(eq, 2_000, 42))
        assert verdict == want and np.isfinite(best)


def test_oracle_raises_on_nan_in_h():
    eq = catalog_equation("chi_plus")
    pts = sample_momenta(3, 12, 42)
    with pytest.raises(ValueError,
                       match="^chi_plus: non-finite H at sample 3$"):
        random_search_oracle(_poisoned(eq, pts[3]),
                             SymmetryElement.parse("P1", 3), pts,
                             _oracle_pool(eq, 2_000, 42))


def test_oracle_best_propagates_nan():
    # a NaN residual must not read as a non-invariance verdict
    eq = catalog_equation("chi_plus")
    pool = np.random.default_rng(3).normal(size=(2_000, 4)) + 0j
    pool[17, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite oracle residual"):
        random_search_oracle(eq, SymmetryElement.parse("P1", 3),
                             sample_momenta(3, 12, 42), pool=pool)


def _scalar_equation(fn, dim, d):
    return EquationSpec("scalar", dim, d, OperatorField.scalar(fn, dim, d))


def test_oracle_zero_gram_is_invariant_without_polish():
    # H = |p|^2 on 2x2: every M intertwines P1, so the Gram matrix is 0
    eq = _scalar_equation(lambda p: p[0] ** 2 + p[1] ** 2 + p[2] ** 2, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert random_search_oracle(eq, SymmetryElement.parse("P1", 3),
                                    sample_momenta(3, 12, 42),
                                    _oracle_pool(eq, 2_000, 42)) == (0.0, True)


def test_oracle_zero_shift_keeps_the_start_vectors():
    # 1x1 H = p1 under P1: G = 4 sum p1^2 is a multiple of the identity, so
    # I - G/lambda = 0 and every candidate's residual is exactly 2
    eq = _scalar_equation(lambda p: p[0], 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, verdict = random_search_oracle(
            eq, SymmetryElement.parse("P1", 1), sample_momenta(1, 12, 42),
            _oracle_pool(eq, 2_000, 42))
    assert not verdict and abs(best - 2.0) <= 1e-15


def test_oracle_agrees_with_nullspace_on_4x4_equations():
    rng = np.random.default_rng(4404)
    pool = rng.normal(size=(20_000, 16)) + 1j * rng.normal(size=(20_000, 16))
    mismatches, worst_invariant, least_noninvariant = [], 0.0, np.inf
    for name in EQUATION_NAMES:
        eq = catalog_equation(name)
        if eq.dim != 4:
            continue
        pts = sample_momenta(eq.d, 12, 42)
        elements = group_elements(eq.d)
        for g, out in zip(elements, solve_intertwiner(eq, elements)):
            best, verdict = random_search_oracle(eq, g, pts, pool=pool)
            if verdict != isinstance(out, Intertwiner):
                mismatches.append(f"{name}/{g.label}")
            if verdict:
                worst_invariant = max(worst_invariant, best)
            else:
                least_noninvariant = min(least_noninvariant, best)
    assert not mismatches, (
        f"{len(mismatches)} oracle/nullspace mismatches: {mismatches}; "
        f"worst invariant best {worst_invariant:.2e}, smallest "
        f"non-invariant best {least_noninvariant:.2e} (threshold 1e-3)")


def _one_pass_oracle(eq, g, points, pool):
    """Reference oracle: the pool scored in one pass, with pool-sized
    temporaries, and the top candidates chosen by the relative residual.
    Returns (best, verdict, set of polished rows, quadratic form per row)."""
    ht, h = intertwine_condition(eq, g, as_batch(points))
    eye = np.eye(eq.dim)[None]
    k = np.kron(h, eye) - np.kron(eye, np.swapaxes(ht, 1, 2))
    k = k.reshape(-1, k.shape[-1])
    gram = k.conj().T @ k
    n2, scale2 = len(gram), np.vdot(h, h).real
    u = np.ascontiguousarray(pool, dtype=complex).view(float)
    r = np.kron(gram.real, np.eye(2)) + np.kron(gram.imag, [[0.0, -1.0],
                                                            [1.0, 0.0]])
    quad = np.einsum("ni,ni->n", u @ r, u) / np.einsum("ni,ni->n", u, u)
    rel = np.sqrt(np.maximum(quad, 0.0) / scale2)
    chosen = np.argpartition(rel, min(8, len(rel)) - 1)[:8]
    top = pool[chosen]
    w = (top / np.linalg.norm(top, axis=1, keepdims=True)).T
    shifted = np.eye(n2) - gram / symmetry._spectral_norm(gram)
    if shifted.any():
        w = symmetry._normalised_power(shifted, 1500, w)
    quad_w = np.real(np.einsum("in,in->n", w.conj(), gram @ w))
    rel_w = np.sqrt(np.maximum(quad_w, 0.0) / scale2)
    best = float(np.minimum(rel.min(), rel_w.min()))
    return best, best < 1e-3, set(chosen.tolist()), quad


def _oracle_scan(eq, g, points, pool, monkeypatch):
    """The oracle's (best, verdict), the candidates it polishes and the
    quadratic form per row it chose them from, read by a spy on
    ``np.argpartition``."""
    seen = []

    def spy(a, kth):
        out = argpartition(a, kth)
        seen.append((a.copy(), set(out[:8].tolist())))
        return out

    argpartition = np.argpartition
    with monkeypatch.context() as m:
        m.setattr(np, "argpartition", spy)
        best, verdict = random_search_oracle(eq, g, points, pool=pool)
    (quad, chosen), = seen
    return best, verdict, chosen, quad


_ORACLE_CASES = [("chi_plus", "C"), ("chi_plus", "P1"), ("desitter", "T1"),
                 ("desitter", "P1")]


def _assert_scan_matches_one_pass(eq, g, n, monkeypatch):
    pts, pool = sample_momenta(eq.d, 12, 42), _oracle_pool(eq, n)
    best, verdict, chosen, quad = _oracle_scan(eq, g, pts, pool, monkeypatch)
    ref_best, ref_verdict, ref_chosen, ref_quad = _one_pass_oracle(eq, g, pts,
                                                                   pool)
    assert quad.tobytes() == ref_quad.tobytes(), n
    assert (best.hex(), verdict) == (ref_best.hex(), ref_verdict), n
    assert chosen == ref_chosen, n


@pytest.mark.parametrize("name,label", _ORACLE_CASES)
def test_blocked_oracle_is_bit_identical_across_block_edges(name, label,
                                                           monkeypatch):
    eq = catalog_equation(name)
    g = SymmetryElement.parse(label, eq.d)
    block = symmetry.STACK_BYTES // (16 * eq.dim ** 2)  # 8,192 or 2,048 rows
    for n in (1, 7, 8, block - 1, block, block + 1, 100_000):
        _assert_scan_matches_one_pass(eq, g, n, monkeypatch)


@pytest.mark.parametrize("name,label", _ORACLE_CASES)
def test_oracle_with_one_row_blocks_is_bit_identical(name, label,
                                                     monkeypatch):
    # every block a single row, which numpy alone would hand to GEMV; 3,001
    # one-row blocks meet every kind of edge that 1e5 would, in 1/30 the time
    eq = catalog_equation(name)
    g = SymmetryElement.parse(label, eq.d)
    monkeypatch.setattr(symmetry, "STACK_BYTES", 1)
    for n in (1, 2, 7, 8, 3_001):
        _assert_scan_matches_one_pass(eq, g, n, monkeypatch)


@pytest.mark.parametrize("where", ["first", "last_of_block", "first_of_block",
                                   "last"])
def test_oracle_nan_row_raises_in_any_block(where):
    eq = catalog_equation("chi_plus")
    block = symmetry.STACK_BYTES // (16 * eq.dim ** 2)
    pool = _oracle_pool(eq, 2 * block + 100)     # a partial final block
    row = dict(first=0, last_of_block=block - 1, first_of_block=block,
               last=len(pool) - 1)[where]
    pool[row, 1] = np.nan
    with pytest.raises(ValueError,
                       match="^chi_plus/P1: non-finite oracle residual$"):
        random_search_oracle(eq, SymmetryElement.parse("P1", 3),
                             sample_momenta(3, 12, 42), pool=pool)


@pytest.mark.parametrize("pool", [
    np.zeros((0, 4), dtype=complex),                 # an empty pool
    np.ones((5, 3), dtype=complex),                  # 3 wide, not 2^2
    np.ones(4, dtype=complex)],                      # not a pool of rows
    ids=["empty", "width_3", "one_axis"])
def test_oracle_rejects_a_pool_it_cannot_scan(pool, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the pool must be checked before any scan")

    monkeypatch.setattr(symmetry, "intertwine_condition", unreachable)
    with pytest.raises(ValueError, match="^chi_plus/P1: oracle pool of shape"):
        random_search_oracle(catalog_equation("chi_plus"),
                             SymmetryElement.parse("P1", 3),
                             sample_momenta(3, 12, 42), pool=pool)


def test_oracle_peak_memory():
    # 7.2 MB with three pool-sized temporaries (u @ r and two einsums of a
    # 1e5x4 pool), 1.6 MB scanned in blocks: quad and argpartition's (n,)
    # arrays, one block's product (symmetry.STACK_BYTES) and the polish
    eq = catalog_equation("chi_plus")
    g, pts = SymmetryElement.parse("P1", 3), sample_momenta(3, 12, 42)
    pool = _oracle_pool(eq, 100_000)
    random_search_oracle(eq, g, pts, pool=pool)   # lazy set-up outside
    tracemalloc.start()
    try:
        random_search_oracle(eq, g, pts, pool=pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_projection_relations():
    res = verify_projection_relations()
    assert set(res) == {"P1", "P2", "P3", "T1", "T2", "C"}
    for key, val in res.items():
        assert val <= 1e-9, key


# which elements exchange Q+ and Q- (True) or fix them, written out
SWAPS = dict(P1=True, P2=True, T1=True, T2=True, P3=False, C=False)


def test_projection_swaps_are_the_elements_that_break_chi_plus():
    breaks = SymmetryElement.parse(catalog_equation("chi_plus").breaks, 3)
    assert {label: not SymmetryElement.parse(label, 3).keeps(breaks)
            for label in SWAPS} == SWAPS


@pytest.mark.parametrize("seed", [5, 7])      # 42: test_projection_relations
def test_projection_relations_follow_the_derived_swaps(seed):
    res = verify_projection_relations(seed=seed)
    assert list(res) == list(SWAPS)
    for key, val in res.items():
        assert val <= 1e-9, (key, seed)


def test_projection_relation_of_an_unsolved_element_is_nan(monkeypatch):
    # an element whose solve is undecided gives a failing NaN residual and
    # leaves the other labels' residuals as they were
    want, solve = verify_projection_relations(), symmetry.solve_intertwiner

    def t1_undecided(eq, elements, **kwargs):
        return [Indeterminate(1e-6, "planted") if g.label == "T1" else out
                for g, out in zip(elements, solve(eq, elements, **kwargs))]

    monkeypatch.setattr(symmetry, "solve_intertwiner", t1_undecided)
    got = verify_projection_relations()
    assert list(got) == list(want) and math.isnan(got.pop("T1"))
    assert got == {k: v for k, v in want.items() if k != "T1"}


def test_no_invariant_element_reads_incoherent():
    # the invariant elements must form a group, and an empty set holds no
    # identity: with every element undecided, coherence is inf, not an error
    eq = catalog_equation("weyl_plus")
    ht, h = intertwine_condition(eq, group_elements(eq.d), as_batch(
        sample_momenta(eq.d, 4, 5)))
    verdicts = [dataclasses.replace(v, invariant=None, intertwiner=None)
                for v in classify_equation(eq).verdicts]
    assert symmetry._coherence(verdicts, ht, h) == np.inf


def test_coherence_check_fails_closed_on_nan():
    # H is NaN at one of the four coherence check points only: row 12 + 4 + 2
    eq = catalog_equation("weyl_plus")
    bad = sample_momenta(eq.d, 4, 42 + 31)[2]
    h = eq.hamiltonian + OperatorField(2, 3, [(nan_at(bad), np.eye(2))])
    with pytest.raises(ValueError, match="^weyl_plus: non-finite H at sample "
                                         "18$"):
        classify_equation(dataclasses.replace(eq, hamiltonian=h), seed=42)


def _poisoned(eq, point):
    """``eq`` with H NaN at ``point`` (and its images keeping p1), else equal."""
    nan = OperatorField(eq.dim, eq.d, [(nan_at(point), np.eye(eq.dim))])
    return dataclasses.replace(eq, hamiltonian=eq.hamiltonian + nan)


def test_nan_at_a_fit_point_raises_value_error_naming_it():
    eq = catalog_equation("weyl_plus")
    bad = _poisoned(eq, sample_momenta(eq.d, 12, 42)[5])
    with pytest.raises(ValueError,                    # exit 2 in the CLI
                       match="^weyl_plus: non-finite H at sample 5$"):
        classify_equation(bad, seed=42)


def test_nan_at_a_holdout_point_raises_value_error_naming_it():
    # the holdout rows follow the 12 fit rows
    eq = catalog_equation("weyl_plus")
    bad = _poisoned(eq, sample_momenta(eq.d, 4, 42 + 7919)[1])
    with pytest.raises(ValueError,
                       match="^weyl_plus: non-finite H at sample 13$"):
        classify_equation(bad, seed=42)


@pytest.mark.parametrize("name", ["weyl_plus", "dirac_massless"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, complex(0, math.inf),
                                   math.nan],
                         ids=["inf", "-inf", "1j*inf", "nan"])
@pytest.mark.parametrize("target", ["h", "htilde"])
@pytest.mark.parametrize("row", ["fit", "holdout", "check"])
def test_one_non_finite_off_diagonal_entry_fails_closed(name, value, target,
                                                        row, monkeypatch):
    # entry (0, 1) of H, or of every element's Htilde, at one of the 12 fit,
    # 4 holdout and 4 check points: the Sylvester maps hold it in dim entries
    # each, without a warning, and classification raises one ValueError that
    # names the equation and the point, wherever it lands
    eq = catalog_equation(name)
    point = {"fit": 5, "holdout": 12 + 1, "check": 16 + 2}[row]
    condition = symmetry.intertwine_condition

    def poisoned(eq, g, p):
        htilde, h = (a.copy() for a in condition(eq, g, p))
        (h[point] if target == "h" else htilde[:, point])[..., 0, 1] = value
        return htilde, h

    htilde, h = poisoned(eq, group_elements(eq.d), as_batch(
        sample_momenta(eq.d, point + 1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = symmetry._sylvester(htilde, h)
    assert np.count_nonzero(~np.isfinite(k)) == len(k) * eq.dim

    monkeypatch.setattr(symmetry, "intertwine_condition", poisoned)
    with pytest.raises(ValueError,
                       match=f"^{name}: non-finite H at sample {point}$"):
        classify_equation(eq)


def test_coherence_rejects_a_wrong_intertwiner(monkeypatch):
    # T1 on weyl_plus is solved by sigma_2; the identity is invertible but
    # intertwines nothing T1 composes to, so coherence must fail
    solve = symmetry.solve_intertwiner

    def corrupt(g, out):
        if g.label != "T1":
            return out
        return dataclasses.replace(out, matrix=np.eye(2, dtype=complex))

    def spy(eq, g, *args, **kwargs):
        out = solve(eq, g, *args, **kwargs)
        if isinstance(g, SymmetryElement):
            return corrupt(g, out)
        return [corrupt(e, o) for e, o in zip(g, out)]

    monkeypatch.setattr(symmetry, "solve_intertwiner", spy)
    rep = symmetry.classify_equation(catalog_equation("weyl_plus"))
    assert rep.agreement and rep.verdict_for("T1").invariant
    assert rep.coherence_ok is False


def test_classify_desitter_peak_memory():
    # 1.25 MB with 256 KB solve and coherence chunks, 1.59 MB with 512 KB
    # chunks (symmetry.STACK_BYTES), plus 10% headroom
    eq = catalog_equation("desitter")
    classify_equation(eq)                 # lazy set-up outside the window
    tracemalloc.start()
    try:
        classify_equation(eq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75e6


@pytest.mark.parametrize("seed", range(5))
def test_verdict_tables_match_the_benchmark_reference(seed):
    for name in EQUATION_NAMES:
        rep = classify_equation(catalog_equation(name), seed=seed)
        assert rep.agreement and rep.coherence_ok, name
        table = {v.element.label: v.invariant for v in rep.verdicts}
        assert table == REFERENCE["verdicts"][name], name


def test_the_breaking_labels_derive_every_reference_verdict():
    # reads only the file: the verdicts each catalog equation's one breaking
    # label gives are the recorded table in group order, 544 in all
    got = {name: kept(catalog_equation(name)) for name in EQUATION_NAMES}
    assert got == {name: list(table.items())
                   for name, table in REFERENCE["verdicts"].items()}
    assert sum(map(len, got.values())) == 544


@pytest.mark.parametrize("name", ["chi_plus", "chi_minus"])
def test_the_headline_chi_is_p_and_t_non_invariant_but_c_invariant(name):
    eq = catalog_equation(name)
    claims, rep = dict(kept(eq)), classify_equation(eq)
    for label, invariant in (("P1", False), ("P2", False), ("T1", False),
                             ("T2", False), ("C", True)):
        assert claims[label] is invariant, label
        assert rep.verdict_for(label).invariant is invariant, label


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
def test_classification_equals_single_element_solves(seed):
    # the batched classification and a solve of each element on its own
    # evaluate H on different batches; verdicts (undecided ones with their
    # reasons) and matrices must agree bit for bit, residuals to rounding
    kinds = {Intertwiner: True, NonInvariance: False, Indeterminate: None}
    for name in EQUATION_NAMES:
        eq = catalog_equation(name)
        rep = classify_equation(eq, seed=seed)
        for v in rep.verdicts:
            out = solve_intertwiner(eq, v.element, seed=seed)
            where = (name, seed, v.element.label)
            assert kinds[type(out)] is v.invariant, where
            assert getattr(out, "reason", None) == v.reason, where
            if v.invariant:
                assert out.matrix.tobytes() == v.intertwiner.matrix.tobytes()
                assert (out.unitary_rep.tobytes()
                        == v.intertwiner.unitary_rep.tobytes()), where
                assert out.nullity == v.intertwiner.nullity, where
                assert abs(out.holdout_residual - v.residual) <= 1e-28, where
            else:
                assert abs(out.relative - v.residual) <= 1e-14 * v.residual


# -- chunked solves ---------------------------------------------------------------

def _kron_map(ht, h):
    """Rows of M -> H M - M Htilde, kron(H, 1) - kron(1, Htilde^T) per point
    written out, for one element's (n, dim, dim) stacks."""
    eye = np.eye(h.shape[-1])
    k = (h[:, :, None, :, None] * eye[:, None, :]
         - eye[:, None, :, None] * np.swapaxes(ht, 1, 2)[:, None, :, None, :])
    return k.reshape(-1, h.shape[-1] ** 2)


def _assert_kron_maps(ht, h):
    """``symmetry._sylvester`` equals :func:`_kron_map` for every element, in
    a new writable array."""
    k, dim = symmetry._sylvester(ht, h), h.shape[-1]
    assert k.shape == (len(ht), len(h) * dim ** 2, dim ** 2)
    for e in range(len(ht)):
        assert np.array_equal(k[e], _kron_map(ht[e], h)), e
    assert k.flags.writeable
    assert not (np.shares_memory(k, ht) or np.shares_memory(k, h))


@pytest.mark.parametrize("n_elements", [1, 3, 32])
@pytest.mark.parametrize("n", [1, 4, 12])
@pytest.mark.parametrize("dim", [2, 4])
def test_sylvester_maps_equal_the_kron_reference(n_elements, n, dim):
    rng = np.random.default_rng([n_elements, n, dim])
    _assert_kron_maps(rng.normal(size=(n_elements, n, dim, dim, 2)) @ [1, 1j],
                      rng.normal(size=(n, dim, dim, 2)) @ [1, 1j])


@pytest.mark.parametrize("name", EQUATION_NAMES)
def test_sylvester_maps_equal_the_kron_reference_on_catalog_pairs(name):
    eq = catalog_equation(name)
    ht, h = intertwine_condition(eq, group_elements(eq.d), as_batch(
        sample_momenta(eq.d, 12, 42)))
    for n_elements in (1, 3, 32):
        for n in (1, 4, 12):
            _assert_kron_maps(ht[:n_elements, :n], h[:n])


def _solve_one_by_one(eq, g, seed, nullspace=svd_nullspace):
    """Reference: one element solved on its own as before the chunked solve,
    scoring every candidate, with the same 2-D linalg calls."""
    ht, h = intertwine_condition(eq, g, as_batch(
        sample_momenta(eq.d, 12, seed) + sample_momenta(eq.d, 4, seed + 7919)))
    fit, hold = slice(12), slice(12, 16)
    s, vh, nullity = nullspace(_kron_map(ht[fit], h[fit]))
    smax, smin = s[0], s[-1]
    if not nullity:
        if smin > symmetry.CERTIFICATE_TOL * smax:
            return NonInvariance(float(smin), float(smax))
        return Indeterminate(float(smin / smax), f"sigma_min/sigma_max = "
                             f"{smin / smax:.3e} falls between thresholds")
    candidates = vh[len(vh) - nullity:].conj()
    if nullity > 1:     # the random members first, the basis last
        w = np.random.default_rng(seed + 1).normal(size=(32, 2, nullity))
        candidates = np.vstack([(w[:, 0] + 1j * w[:, 1]) @ candidates,
                                candidates])
    candidates = candidates.reshape(-1, eq.dim, eq.dim)
    hres = symmetry._residuals(_kron_map(ht[hold], h[hold])[None],
                               candidates[None],
                               np.linalg.norm(h[hold], axis=(1, 2)))[0]
    good = np.flatnonzero((cond2(candidates) <= 1e6)
                          & (hres <= symmetry.HOLDOUT_TOL))
    if not good.size:
        return Indeterminate(float(smin / smax), "nullspace found but no "
                             "invertible member passed the holdout test")
    m = candidates[good[0]]
    m = m / np.linalg.norm(m) * np.sqrt(eq.dim)
    return Intertwiner(m, polar_unitary(m), float(hres[good[0]]),
                       int(nullity))


def _same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, Intertwiner):
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.unitary_rep.tobytes() == want.unitary_rep.tobytes()
        assert (got.holdout_residual, got.nullity) == (
            want.holdout_residual, want.nullity)
    elif isinstance(want, Indeterminate):
        assert got == want
    else:
        assert (got.certificate, got.sigma_max) == (want.certificate,
                                                    want.sigma_max)


@pytest.mark.parametrize("seed", [5, 42])
def test_chunked_solve_equals_the_one_by_one_reference(seed):
    for name in EQUATION_NAMES:
        eq = catalog_equation(name)
        elements = group_elements(eq.d)
        for g, got in zip(elements, solve_intertwiner(eq, elements,
                                                      seed=seed)):
            _same_result(got, _solve_one_by_one(eq, g, seed))


@pytest.mark.parametrize("seed", [5, 42])
def test_holdout_residuals_equal_the_product_formula(seed):
    # the reported residual, read from the holdout Sylvester map, against
    # |H M - M Htilde| / (|H| |M|) formed by matrix products at the same
    # holdout points, for every invariant element of every equation
    for name in EQUATION_NAMES:
        eq = catalog_equation(name)
        rep = classify_equation(eq, seed=seed)
        ht, h = intertwine_condition(eq, group_elements(eq.d), as_batch(
            sample_momenta(eq.d, 4, seed + 7919)))
        for v, t in zip(rep.verdicts, ht):
            if v.invariant:
                want = product_residuals(v.intertwiner.matrix, t, h)
                assert abs(v.residual - want) <= 1e-15, (name, v.element.label)


def _fingerprint(rep):
    """Every verdict, residual and matrix of a report, bit for bit."""
    out = [rep.agreement, rep.coherence_ok]
    for v in rep.verdicts:
        out += [v.element.label, v.invariant, float(v.residual).hex()]
        if v.invariant:
            it = v.intertwiner
            out += [it.matrix.tobytes(), it.unitary_rep.tobytes(),
                    it.holdout_residual.hex(), it.nullity]
    return out


def _chunk_budget(eq, elements_per_chunk):
    """A ``STACK_BYTES`` that fits that many elements' Sylvester stacks."""
    return elements_per_chunk * 16 * 12 * eq.dim ** 4


@pytest.mark.parametrize("name", ["weyl_plus", "weyl_canonical", "chi_4c",
                                  "phi_diag", "desitter"])
def test_classification_is_bit_identical_at_every_chunk_length(name,
                                                               monkeypatch):
    # nullity 1 (2x2 and 4x4, 64 elements), 2 and 8: one element per chunk,
    # three (an odd count that leaves a short last chunk) and all at once
    eq = catalog_equation(name)
    n = len(group_elements(eq.d))
    want = _fingerprint(classify_equation(eq, seed=7))
    lengths = []
    nullspace = symmetry.svd_nullspace

    def spy(m, *args):
        lengths.append(len(m))
        return nullspace(m, *args)

    monkeypatch.setattr(symmetry, "svd_nullspace", spy)
    for per_chunk, expected in ((1, [1] * n),
                                (3, [3] * (n // 3) + [n % 3]),
                                (n, [n])):
        monkeypatch.setattr(symmetry, "STACK_BYTES",
                            _chunk_budget(eq, per_chunk))
        lengths.clear()
        assert _fingerprint(classify_equation(eq, seed=7)) == want, per_chunk
        assert lengths == expected
    monkeypatch.setattr(symmetry, "STACK_BYTES", 1)
    assert _fingerprint(classify_equation(eq, seed=7)) == want


@pytest.mark.parametrize("per_chunk", [1, 3, 32])
def test_indeterminate_elements_are_results_in_place_across_chunks(
        per_chunk, monkeypatch):
    # a finite error at a holdout point of two invariant elements (NaN stops
    # at the finiteness gate) leaves both without an accepted member; the
    # later one (in a later chunk of three, but earlier within its chunk)
    # would be solved first if the order were lost.  Both are undecided in
    # their own rows, every other verdict is the unpoisoned one, and the
    # invariant pairs that compose onto them read incoherent
    eq = catalog_equation("weyl_plus")
    clean = classify_equation(eq)
    invariant = [i for i, v in enumerate(clean.verdicts) if v.invariant]
    early = next(i for i in invariant if i % 3 == 2)
    late = next(i for i in invariant if i // 3 > early // 3 and i % 3 == 0)
    condition = symmetry.intertwine_condition

    def poisoned(eq, g, p):
        htilde, h = condition(eq, g, p)
        htilde = htilde.copy()
        htilde[[early, late], 12 + 1] += 1.0
        return htilde, h

    monkeypatch.setattr(symmetry, "intertwine_condition", poisoned)
    monkeypatch.setattr(symmetry, "STACK_BYTES", _chunk_budget(eq, per_chunk))
    rep = classify_equation(eq)
    assert [i for i, v in enumerate(rep.verdicts) if v.invariant is None] == [
        early, late]
    for i in (early, late):
        v = rep.verdicts[i]
        assert v.element == clean.verdicts[i].element
        assert v.reason == ("nullspace found but no invertible member passed "
                            "the holdout test")
        assert v.intertwiner is None and v.residual < symmetry.HOLDOUT_TOL
    keep = [i for i in range(len(rep.verdicts)) if i not in (early, late)]
    assert (_fingerprint(dataclasses.replace(
        rep, verdicts=[rep.verdicts[i] for i in keep]))[2:]
        == _fingerprint(dataclasses.replace(
            clean, verdicts=[clean.verdicts[i] for i in keep]))[2:])
    assert rep.agreement and not rep.coherence_ok


def test_open_elements_fall_back_to_every_member(monkeypatch):
    # chi_4c's nullspaces are two-dimensional: the first random member is
    # scored first, and all 34 candidates (32 random members, then the
    # basis) when it is not good.  Marking all but the listed candidates
    # singular forces that fallback; the element must keep its first good
    # candidate
    eq = catalog_equation("chi_4c")
    default = _fingerprint(classify_equation(eq))
    cond2 = symmetry.cond2

    def keeping(*columns):
        def only(block):
            keep = np.isin(np.arange(block.shape[1]), columns)
            return np.where(keep, cond2(block), np.inf)

        monkeypatch.setattr(symmetry, "cond2", only)
        rep = classify_equation(eq)
        assert all(v.invariant for v in rep.verdicts)
        return _fingerprint(rep)

    fourth = keeping(3)
    assert keeping(3, 7) == fourth != keeping(7)
    assert keeping(0) == default != fourth     # the first random member


@pytest.mark.parametrize("seed", [42, 5, 7])
def test_the_first_round_scores_one_candidate_per_element(seed, monkeypatch):
    # a generic member of a nullspace is invertible almost surely if any
    # member is, so the first candidate (the basis vector at nullity 1, the
    # first random member above) decides every catalog element: one cond2
    # stack per (chunk, nullity) group, one matrix per element, no fallback
    nullspace, cond2, groups, blocks = (symmetry.svd_nullspace,
                                        symmetry.cond2, [], [])

    def spy_nullspace(m, *args):
        s, vh, nullity = nullspace(m, *args)
        groups.append(nullity[nullity > 0].tolist())
        return s, vh, nullity

    def spy_cond2(block):
        blocks.append(block.shape[:2])
        return cond2(block)

    monkeypatch.setattr(symmetry, "svd_nullspace", spy_nullspace)
    monkeypatch.setattr(symmetry, "cond2", spy_cond2)
    for name in EQUATION_NAMES:
        groups.clear()
        blocks.clear()
        classify_equation(catalog_equation(name), seed=seed)
        assert len(blocks) == sum(len(set(g)) for g in groups) > 0, name
        assert [w for _, w in blocks] == [1] * len(blocks), name
        assert sum(e for e, _ in blocks) == sum(map(len, groups)), name


def test_the_fallback_scores_the_basis_last(monkeypatch):
    # every random member marked singular: the basis, scored last in the
    # fallback round, still decides.  dirac_massless's elements keep their
    # first invertible basis vector; chi_4c's basis vectors are singular,
    # so its elements are left open
    cond2 = symmetry.cond2

    def random_members_singular(block):
        # nullity 2 throughout: column 0 alone in the first round, then 32
        # random members and the basis in columns 32 and 33
        return np.where(np.arange(block.shape[1]) < 32, np.inf, cond2(block))

    monkeypatch.setattr(symmetry, "cond2", random_members_singular)
    for name in ("dirac_massless", "chi_4c"):
        eq = catalog_equation(name)
        elements = group_elements(eq.d)
        ht, h = intertwine_condition(eq, elements, as_batch(
            symmetry._fit_and_holdout(eq.d, 42)))
        _, vh, nullity = svd_nullspace(symmetry._sylvester(ht[:, :12], h[:12]))
        assert (nullity == 2).all()
        bases = vh[:, -2:].conj().reshape(-1, 2, eq.dim, eq.dim)
        for basis, got in zip(bases, solve_intertwiner(eq, elements)):
            invertible = basis[cond2(basis) <= 1e6]
            if name == "chi_4c":
                assert not len(invertible)
                assert got.reason == ("nullspace found but no invertible "
                                      "member passed the holdout test")
                continue
            want = invertible[0] / np.linalg.norm(invertible[0])
            assert got.matrix.tobytes() == (want * np.sqrt(eq.dim)).tobytes()
            assert got.holdout_residual <= symmetry.HOLDOUT_TOL


def _random_scoring(name, width):
    """Every element's Htilde, H, Sylvester map and |H| at 4 points, and
    ``width`` random candidates per element."""
    eq = catalog_equation(name)
    ht, h = intertwine_condition(eq, group_elements(eq.d), as_batch(
        sample_momenta(eq.d, 4, 3)))
    c = np.random.default_rng(3).normal(
        size=(len(ht), width, eq.dim, eq.dim, 2)) @ [1, 1j]
    return ht, h, symmetry._sylvester(ht, h), np.linalg.norm(h, axis=(1, 2)), c


@pytest.mark.parametrize("name, widths", [("chi_4c", (1, 34)),
                                          ("phi_diag", (1, 40))])
def test_a_candidates_residual_does_not_depend_on_its_width(name, widths,
                                                            monkeypatch):
    # the first width (the first random member) is made to fail, so
    # every element is scored again among all its members: the same first
    # good candidate is kept with the same residual, bit for bit
    eq = catalog_equation(name)
    want, cond2, seen = _fingerprint(classify_equation(eq)), symmetry.cond2, []

    def first_fails(block):
        seen.append(block.shape[1])
        c = cond2(block)
        return np.full(c.shape, np.inf) if c.shape[1] == widths[0] else c

    monkeypatch.setattr(symmetry, "cond2", first_fails)
    assert _fingerprint(classify_equation(eq)) == want
    assert set(seen) == set(widths)
    # and on random candidates at every element's holdout map
    _, _, k, h_norms, c = _random_scoring(name, widths[1])
    full = symmetry._residuals(k, c, h_norms)
    for width in (1, widths[0], widths[1] - 1):
        assert (symmetry._residuals(k, c[:, :width], h_norms).tobytes()
                == full[:, :width].tobytes()), width


@pytest.mark.parametrize("name", ["weyl_canonical", "dirac_massless"])
def test_residuals_are_the_same_on_every_slice_and_target(name):
    # single solves score slices of candidates and coherence scores chunks of
    # targets: every contiguous slice (width 1 included) and every target on
    # its own gives the bits of the full call
    _, _, k, h_norms, c = _random_scoring(name, 32)
    full = symmetry._residuals(k, c, h_norms)
    assert full.shape == (32, 32)
    for lo in range(32):
        for hi in range(lo + 1, 33):
            assert (symmetry._residuals(k, c[:, lo:hi], h_norms).tobytes()
                    == full[:, lo:hi].tobytes()), (lo, hi)
    for i in range(32):
        assert (symmetry._residuals(k[i:i + 1], c[i:i + 1], h_norms).tobytes()
                == full[i:i + 1].tobytes()), i


@pytest.mark.parametrize("name", ["weyl_canonical", "dirac_massless"])
def test_residuals_equal_the_product_formula_on_failing_candidates(name):
    # random candidates fail with O(1) residuals, so a misread row or point
    # shows here, where true intertwiners' rounding-level residuals hide it
    ht, h, k, h_norms, c = _random_scoring(name, 8)
    got = symmetry._residuals(k, c, h_norms)
    want = product_residuals(c, ht[:, None], h)
    assert want.min() > 1e-2
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("k_scale, m_scale", [(1e200, 1.0), (1e-160, 1e160)])
def test_residuals_warn_when_a_squared_norm_overflows(k_scale, m_scale):
    # finite inputs whose |r|^2 (first case) or |M|^2 (second) overflows:
    # the warning that pytest.ini and CI's warning-as-error runs turn into
    # an error must still be raised
    _, _, k, h_norms, c = _random_scoring("weyl_canonical", 3)
    with pytest.raises(RuntimeWarning, match="overflow"):
        symmetry._residuals(k * k_scale, c * m_scale, h_norms * k_scale)


def test_a_nullity_one_group_is_scored_once(monkeypatch):
    # a nullity-1 group has no random members, so its one candidate is its
    # every width: shifting weyl_plus's holdout rows of H by 0.3 sigma3 fails
    # every element there, and the 16 of nullity 1 are still scored once
    eq = catalog_equation("weyl_plus")
    elements = group_elements(eq.d)
    ht, h = intertwine_condition(eq, elements, as_batch(
        symmetry._fit_and_holdout(eq.d, 42)))
    h = h + (np.arange(len(h)) >= 12)[:, None, None] * 0.3 * pauli(3)
    residuals, shapes = symmetry._residuals, []
    monkeypatch.setattr(symmetry, "_residuals", lambda k, ms, h_norms: (
        shapes.append(ms.shape), residuals(k, ms, h_norms))[1])
    out = solve_intertwiner(eq, elements, conditions=(ht, h))
    assert shapes == [(16, 1, 2, 2)]
    assert sum("no invertible member" in getattr(r, "reason", "")
               for r in out) == 16


def _edited(null, at, truncate, singular):
    """Element ``at``'s nullspace arrays (s, vh, nullity) with the last basis
    vector dropped if ``at`` is in ``truncate``, or the basis swapped for
    matrix units (every member singular) if ``at`` is in ``singular``."""
    s, vh, nullity = null
    rows = vh[len(vh) - nullity:]            # the conjugated basis
    if len(rows) and at in truncate:
        rows = rows[:-1]
    if len(rows) and at in singular:
        rows = np.eye(len(vh), dtype=complex)[:len(rows)]
    vh = vh.copy()
    vh[len(vh) - len(rows):] = rows
    return s, vh, np.array(len(rows))


@pytest.mark.parametrize("per_chunk, singular", [(3, {4, 5}), (32, {3, 4})])
def test_two_nullities_in_one_chunk_equal_the_one_by_one_reference(
        per_chunk, singular, monkeypatch):
    # every phi_diag element is invariant with an eight-dimensional
    # nullspace; dropping the last basis vector of each odd element puts
    # nullities 8 and 7 side by side in every chunk, each with its own
    # random members.  Singular bases for one element of each nullity then
    # leave both open: each is undecided in its own row, the earlier one
    # though its nullity's group is scored second in its chunk
    eq = catalog_equation("phi_diag")
    elements = group_elements(eq.d)
    truncate = set(range(1, len(elements), 2))
    nullspace, plant, chunks = symmetry.svd_nullspace, [set()], []

    def edited(m, *args):
        # each member's arrays edited as its own 2-D result, then written back
        start = sum(map(len, chunks))
        s, vhs, nullity = nullspace(m, *args)
        for j in range(len(vhs)):
            _, vhs[j], nullity[j] = _edited((s[j], vhs[j], nullity[j]),
                                            start + j, truncate, plant[0])
        chunks.append(nullity.copy())
        return s, vhs, nullity

    monkeypatch.setattr(symmetry, "svd_nullspace", edited)
    monkeypatch.setattr(symmetry, "STACK_BYTES", _chunk_budget(eq, per_chunk))

    def reference(at):
        return _solve_one_by_one(eq, elements[at], 42, lambda m: _edited(
            svd_nullspace(m), at, truncate, plant[0]))

    for at, got in enumerate(solve_intertwiner(eq, elements)):
        assert got.nullity == (7 if at in truncate else 8)
        _same_result(got, reference(at))
    assert [set(c.tolist()) for c in chunks] == [{7, 8}] * len(chunks)

    plant[0] = singular
    chunks.clear()
    got = solve_intertwiner(eq, elements)
    assert [at for at, r in enumerate(got)
            if isinstance(r, Indeterminate)] == sorted(singular)
    for at, r in enumerate(got):
        _same_result(r, reference(at))


def test_coherence_composes_with_the_conjugate_of_the_second_intertwiner():
    # in a generic complex basis V, H' = V H V^dagger has the intertwiners
    # V M V^dagger (linear elements) and V M V^T (antilinear ones), most of
    # them no longer a phase times a real or an imaginary matrix: M1 M2 in
    # place of M1 conj(M2), or the conjugation of the wrong factor, fails
    eq = catalog_equation("weyl_plus")
    rng = np.random.default_rng(5)
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    h = (OperatorField.constant(v, eq.d) @ eq.hamiltonian
         @ OperatorField.constant(v.conj().T, eq.d))
    rep = classify_equation(dataclasses.replace(eq, hamiltonian=h))
    assert rep.agreement and rep.coherence_ok
    complex_ones = {v.element.conjugate for v in rep.verdicts if v.invariant
                    and not proportional(v.intertwiner.matrix,
                                         v.intertwiner.matrix.conj())}
    assert complex_ones == {False, True}


def test_an_empty_element_sequence_gives_no_results(monkeypatch):
    def unexpected(*args):
        raise AssertionError("H evaluated for no elements")

    monkeypatch.setattr(symmetry, "intertwine_condition", unexpected)
    eq = catalog_equation("weyl_plus")
    assert solve_intertwiner(eq, []) == []
    assert solve_intertwiner(eq, iter(())) == []


def test_zero_sylvester_maps_take_the_rank_zero_branch():
    # H = E(p) 1: an element with Htilde = H (time flip and conjugation both
    # or neither) has an exactly zero Sylvester map, so every 2x2 matrix
    # intertwines; the others see Htilde = -H, a map of full rank
    eq = EquationSpec("energy_times_one", 2, 3,
                      OperatorField.scalar(energy, 2, 3),
                      breaks="T1")
    elements = group_elements(3)
    zero = [g.time_flip == g.conjugate for g in elements]
    ht, h = intertwine_condition(eq, elements, as_batch(
        sample_momenta(3, 12, 42)))
    s, vh, nullity = svd_nullspace(symmetry._sylvester(ht, h))
    assert np.array_equal(nullity, np.where(zero, 4, 0))
    assert np.array_equal(vh[zero], np.broadcast_to(np.eye(4), (16, 4, 4)))
    assert not s[zero].any()

    rep = classify_equation(eq)
    assert rep.agreement and rep.coherence_ok
    assert [v.invariant for v in rep.verdicts] == zero
    for g, v, got in zip(elements, rep.verdicts,
                         solve_intertwiner(eq, elements)):
        want = _solve_one_by_one(eq, g, 42)
        _same_result(got, want)
        if v.invariant:
            assert want.nullity == 4
            assert v.intertwiner.matrix.tobytes() == want.matrix.tobytes()
            assert (v.intertwiner.unitary_rep.tobytes()
                    == want.unitary_rep.tobytes())
            assert v.residual == want.holdout_residual


# -- coherence in GEMMs ------------------------------------------------------------

def _coherence_pair_by_pair(verdicts, check_t, check_h):
    """Reference: the worst coherence residual as before the GEMM form, one
    product and one residual per ordered pair of invariant elements."""
    position = {v.element.code: at for at, v in enumerate(verdicts)}
    invariant = [v for v in verdicts if v.invariant]
    out = []
    for v1 in invariant:
        for v2 in invariant:
            at = position[v1.element.code ^ v2.element.code]
            if not verdicts[at].invariant:
                return math.inf
            m2 = v2.intertwiner.matrix
            prod = v1.intertwiner.matrix @ (np.conj(m2) if v1.element.conjugate
                                            else m2)
            out.append(product_residuals(prod, check_t[at], check_h))
    return mat_max(*out)


def _coherence_calls(monkeypatch):
    """Every (arguments, worst residual) of ``symmetry._coherence`` from now."""
    coherence, calls = symmetry._coherence, []

    def spy(*args):
        calls.append((args, coherence(*args)))
        return calls[-1][1]

    monkeypatch.setattr(symmetry, "_coherence", spy)
    return calls


@pytest.mark.parametrize("seed", [5, 42])
def test_coherence_equals_the_pair_by_pair_reference(seed, monkeypatch):
    calls = _coherence_calls(monkeypatch)
    for name in EQUATION_NAMES:
        rep = classify_equation(catalog_equation(name), seed=seed)
        (args, got), = calls
        calls.clear()
        want = _coherence_pair_by_pair(*args)
        assert want <= 1e-12 and abs(got - want) <= 1e-12, name
        assert rep.coherence_ok


def _plant(monkeypatch, solve, label, error):
    """Make the intertwiner of ``label`` that ``solve`` gives off by a
    relative ``error`` (Frobenius norm) in a random complex direction."""

    def planted(eq, g, *args, **kwargs):
        out = solve(eq, g, *args, **kwargs)
        for at, e in enumerate(g):
            if e.label == label:
                m = out[at].matrix
                step = (np.random.default_rng(3).normal(size=m.shape + (2,))
                        @ [1, 1j])
                out[at] = dataclasses.replace(out[at], matrix=m + error * (
                    np.linalg.norm(m) / np.linalg.norm(step)) * step)
        return out

    monkeypatch.setattr(symmetry, "solve_intertwiner", planted)


@pytest.mark.parametrize("name, label", [("weyl_canonical", "P1*C"),
                                         ("chi_4c", "T1"),
                                         ("desitter", "P2*P4")])
def test_planted_intertwiner_errors_fail_and_pass_in_both(name, label,
                                                          monkeypatch):
    calls, solve = _coherence_calls(monkeypatch), symmetry.solve_intertwiner
    for error, fails in ((1e-5, True), (1e-10, False)):
        _plant(monkeypatch, solve, label, error)
        rep = classify_equation(catalog_equation(name))
        args, got = calls.pop()
        assert rep.agreement and rep.verdict_for(label).invariant
        assert rep.coherence_ok is not fails, error
        want = _coherence_pair_by_pair(*args)
        assert (got > 1e-6) == (want > 1e-6) == fails, error
        assert got == pytest.approx(want, rel=1e-6), error


def test_coherence_is_inf_when_a_product_is_not_invariant(monkeypatch):
    # dropping P1's verdict leaves every pair composing to P1 without a
    # target: coherence fails before any residual is formed
    calls = _coherence_calls(monkeypatch)
    classify_equation(catalog_equation("weyl_canonical"))
    (verdicts, check_t, check_h), _ = calls[0]
    at = [v.element.label for v in verdicts].index("P1")
    open_p1 = list(verdicts)
    open_p1[at] = dataclasses.replace(verdicts[at], invariant=False,
                                      intertwiner=None)
    for coherence in (symmetry._coherence, _coherence_pair_by_pair):
        assert coherence(open_p1, check_t, check_h) == math.inf


def _coherence_budget(eq, n, targets):
    """A ``STACK_BYTES`` that fits that many coherence targets' Sylvester
    maps, residuals and products, of n invariant elements."""
    return targets * 16 * eq.dim ** 2 * (4 * (eq.dim ** 2 + n) + n)


@pytest.mark.parametrize("name", ["weyl_canonical", "chi_4c", "desitter"])
def test_coherence_is_identical_at_every_chunk_length(name, monkeypatch):
    eq = catalog_equation(name)
    calls = _coherence_calls(monkeypatch)
    want = classify_equation(eq, seed=7).coherence_ok, calls[-1][1]
    n = sum(v.invariant for v in calls[-1][0][0])
    targets, inside = [], []
    sylvester, coherence = symmetry._sylvester, symmetry._coherence

    def within(*args):
        inside.append(True)
        try:
            return coherence(*args)
        finally:
            inside.pop()

    def spy(htilde, h):
        if inside:                  # coherence's maps, not the solve's
            targets.append(len(htilde))
        return sylvester(htilde, h)

    monkeypatch.setattr(symmetry, "_coherence", within)
    monkeypatch.setattr(symmetry, "_sylvester", spy)
    for budget, lengths in ((1, [1] * n),
                            (_coherence_budget(eq, n, 1), [1] * n),
                            (symmetry.STACK_BYTES, None),
                            (_coherence_budget(eq, n, n), [n])):
        monkeypatch.setattr(symmetry, "STACK_BYTES", budget)
        targets.clear()
        rep = classify_equation(eq, seed=7)
        assert (rep.coherence_ok, calls[-1][1]) == want, budget
        assert lengths is None or targets == lengths, budget
    assert want[0] and want[1] <= 1e-12
