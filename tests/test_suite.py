import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from spinorlab import equations as eqs
from spinorlab import opcalc, poincare, position, suite
from spinorlab.cli import build_parser
from spinorlab.opcalc import sample_momenta
from spinorlab.suite import REGISTRY, RunConfig, run_checks, run_verify_all

CFG = RunConfig()

# the check-name prefixes of each subcommand's registry rows
PREFIXES = {"algebra": {"algebra", "algebra_second_order"},
            "transform": {"unitary", "exp_vs_closed", "transform"},
            "position": {"position", "position_canonical"}}

FILTERED = (
    [("algebra", "--generators", n) for n in poincare.GENERATOR_NAMES]
    + [("transform", "--name", n)
       for n in eqs.UNITARY_NAMES + ("tU2*tU1", "tU2_alt_norm_p3pos")]
    + [("position", "--name", n) for n in position.POSITION_NAMES])


@pytest.fixture(scope="module")
def verify_all():
    return {c.name: c for c in run_verify_all(CFG)}


def _filtered(command, flag, subject):
    args = build_parser().parse_args([command, flag, subject])
    return run_checks(CFG, args.command, args.subject)


@pytest.mark.parametrize("command,flag,subject", FILTERED)
def test_filtered_checks_equal_verify_all(verify_all, command, flag, subject):
    checks = _filtered(command, flag, subject)
    assert checks
    for c in checks:
        assert c.name.partition("/")[0] in PREFIXES[command]
        assert c == verify_all[c.name]          # exact residuals and tols


@pytest.mark.parametrize("command", ["algebra", "transform", "position"])
def test_filters_reach_every_check_of_their_groups(verify_all, command):
    names = []
    for cmd, flag, subject in FILTERED:
        if cmd == command:
            names += [c.name for c in _filtered(cmd, flag, subject)]
    assert sorted(names) == sorted(n for n in verify_all
                                   if n.partition("/")[0] in PREFIXES[command])


def test_every_config_field_is_read_by_some_entry():
    reads = frozenset().union(*(e.reads for e in REGISTRY))
    assert reads == {f.name for f in fields(RunConfig)}


_S = frozenset({"seed", "samples"})
# the RunConfig fields each registry entry reads, by its first check's name
READS = {
    "clifford/rep26": frozenset(),
    **{f"unitary/{n}": _S for n in ("U1", "U2", "tU1", "tU2", "V")},
    "unitary/V1": _S | {"corrupt_reduction"},
    "unitary/V2": _S | {"mass"},
    "transform/tU2*tU1": _S, "transform/tU2_alt_norm_p3pos": _S,
    "projector/q_idempotent": _S | {"mass"},
    **{f"algebra/{n}": {"seed"} for n in poincare.GENERATOR_NAMES},
    "algebra/flat": {"seed", "mass"},
    "covariance/chi_to_phi_by_U2": {"seed"},
    **{f"position/{n}": _S for n in position.POSITION_NAMES},
    "content/dirac_massless": _S,
    "dispersion/dirac_massless": _S | {"mass", "kappa"},
}


def test_every_entry_reads_its_pinned_fields():
    assert len(REGISTRY) == len(READS)
    assert {next(iter(e.run(CFG))).name: e.reads for e in REGISTRY} == READS


@pytest.mark.parametrize("field", ["mass", "kappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_config_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError):
        RunConfig(**{field: value})


def test_memoised_builds_leave_no_trace_of_a_corrupted_run():
    # default, then the negative control, then default again, in one process:
    # the default runs equal a run in a fresh interpreter
    alone = subprocess.run(
        [sys.executable, "-c", "from spinorlab.suite import RunConfig, "
         "run_verify_all; print(repr(run_verify_all(RunConfig())))"],
        capture_output=True, text=True, check=True).stdout.strip()
    first = run_verify_all(CFG)
    corrupted = run_verify_all(RunConfig(corrupt_reduction=True))
    again = run_verify_all(CFG)
    assert repr(first) == repr(again) == alone
    assert [c.name for c in corrupted if not c.passed] == ["transform/V1"]


def test_a_composed_map_that_is_not_unitary_fails_its_check(monkeypatch):
    # at p_perp = 1e-4 the closed tU2 is unitary only to about 3e-7: its
    # unitary/ check fails, and tU2*tU1 fails its transform/ check with a NaN
    # residual instead of raising NotUnitary out of the run
    draw = suite.sample_momenta
    monkeypatch.setattr(suite, "sample_momenta", lambda d, n, seed=42: [
        (0.6e-4, 0.8e-4) + p[2:] for p in draw(d, n, seed)])
    failed = {c.name: c.residual for c in run_verify_all(CFG) if not c.passed}
    assert sorted(failed) == ["transform/tU2*tU1", "unitary/tU2"]
    assert math.isnan(failed["transform/tU2*tU1"])


def test_each_set_of_points_is_one_argument_per_run(monkeypatch):
    # U2's closed form is computed once per distinct argument: 2 times on the
    # 12 sample points (plainly and seeded along every axis; 11 times when
    # each check built its own argument), once on the 2-point unitarity
    # probe (3 times), 2 times on the covariance check's 4 points and once on
    # the 6 points with p3 > 0 of tU2_alt_norm_p3pos
    u2, ev = eqs.catalog_unitary("U2").closed, opcalc.OperatorField._eval
    computed = Counter()

    def spy(self, p):
        p = opcalc._Argument.of(p)
        if self is u2 and id(self) not in p.values:
            computed[p.batch] += 1
        return ev(self, p)

    monkeypatch.setattr(opcalc.OperatorField, "_eval", spy)
    monkeypatch.setattr(opcalc.OperatorField, "__call__", spy)
    run_verify_all(CFG)
    assert computed == {(12,): 2, (2,): 1, (4,): 2, (6,): 1}


def test_bitwise_equal_points_share_an_argument():
    pts = [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)]
    with opcalc.shared_batches():
        p = opcalc.as_batch(pts)
        assert opcalc.as_batch([tuple(q) for q in pts]) is p
        assert opcalc.as_batch(np.array(pts)) is p
        for other in ([(-0.0, 1.0, 2.0), pts[1]],          # -0.0 is not 0.0
                      [(0, 1, 2), (3, 4, 5)],              # ints are not floats
                      pts[:1]):
            assert opcalc.as_batch(other) is not p
        # int and float zeros have the same bytes, but not the same dtype
        assert opcalc.as_batch([(0, 0, 0)]) is not opcalc.as_batch(
            [(0.0, 0.0, 0.0)])
        assert not p[0].flags.writeable
        with pytest.raises(ValueError):
            p[0][0] = 1.0


def test_outside_a_run_every_batch_is_a_new_argument():
    pts = sample_momenta(3, 4, 5)
    p, q = opcalc.as_batch(pts), opcalc.as_batch(pts)
    assert isinstance(p, opcalc._Argument) and p is not q


def test_a_nested_run_restores_the_outer_scope():
    pts = sample_momenta(3, 8, CFG.seed)        # the points algebra/chi reads
    with opcalc.shared_batches():
        p = opcalc.as_batch(pts)
        run_checks(CFG, "algebra", "chi")
        assert not p.values                     # the nested run had its own
        assert opcalc.as_batch(pts) is p
    assert opcalc.as_batch(pts) is not p


def test_the_run_scope_closes_when_an_entry_raises(monkeypatch):
    def boom(cfg):
        opcalc.as_batch(sample_momenta(3, 4, 5))
        raise RuntimeError("boom")

    entry = suite.Entry("algebra", "boom", frozenset(), boom)
    monkeypatch.setattr(suite, "REGISTRY", suite.REGISTRY + (entry,))
    with pytest.raises(RuntimeError):
        run_checks(CFG, "algebra", "boom")
    pts = sample_momenta(3, 4, 5)
    assert opcalc.as_batch(pts) is not opcalc.as_batch(pts)


def test_verify_all_peak_memory():
    # 3.4 MB with every set of points shared by the whole run (2.2 MB with one
    # argument per check), plus 10% headroom; the memos die with the run
    run_verify_all(CFG)                   # lazy set-up outside the window
    tracemalloc.start()
    try:
        run_verify_all(CFG)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.75e6
    assert left <= 0.1e6


@pytest.mark.parametrize("name", ["dirac_massless", "weyl_plus"])
def test_a_content_row_fails_unless_the_content_is_as_stated(
        verify_all, monkeypatch, name):
    gs_name, stated = poincare.CONTENT_SETS[name]
    assert verify_all[f"content/{name}"].passed
    # the other branch's labels stated for the + branch
    monkeypatch.setitem(poincare.CONTENT_SETS, name, (gs_name, {
        "+": ((-1, 0.5), (1, -0.5)), "-": stated["-"]}))
    failing = [c.name for c in run_checks(CFG) if not c.passed]
    assert failing == [f"content/{name}"]


# the public residuals that take sample points, each on one catalog subject
RESIDUALS = {
    "verify_transform": lambda s: eqs.verify_transform(
        eqs.catalog_unitary("U1"), s),
    "unitarity_residual": lambda s: eqs.unitarity_residual(
        eqs.catalog_unitary("U2"), s),
    "exp_closed_residual": lambda s: eqs.exp_closed_residual(
        eqs.catalog_unitary("U2"), s),
    "verify_projectors": eqs.verify_projectors,
    "block_reduction_residual": eqs.block_reduction_residual,
    "dispersion_residual": lambda s: eqs.dispersion_residual(
        eqs.catalog_equation("chi_plus"), s),
    "lambda_consistency_residual": eqs.lambda_consistency_residual,
    "hermiticity_residual": lambda s: eqs.hermiticity_residual(
        eqs.catalog_equation("chi_plus"), s),
    "algebra_residual": lambda s: poincare.algebra_residual(
        poincare.generator_set("chi"), s),
    "set_covariance_residual": lambda s: poincare.set_covariance_residual(
        poincare.generator_set("chi"), poincare.generator_set("phi"),
        eqs.catalog_unitary("U2").closed, s),
    "irrep_content": lambda s: poincare.irrep_content(
        eqs.catalog_equation("weyl_plus"),
        poincare.generator_set(poincare.CONTENT_SETS["weyl_plus"][0]), s),
    "verify_position": lambda s: position.verify_position("Xpsi", s),
}


@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_an_empty_batch_fails_closed_naming_it(name):
    with pytest.raises(ValueError, match="empty batch"):
        RESIDUALS[name]([])
