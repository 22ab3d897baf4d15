import math
import subprocess
import sys
from dataclasses import fields

import pytest

from spinorlab import equations as eqs
from spinorlab import poincare, position, suite, symmetry
from spinorlab.cli import build_parser
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
_ST = _S | {"tol"}
# the RunConfig fields each registry entry reads, by its first check's name
READS = {
    "clifford/rep26": frozenset(),
    **{f"unitary/{n}": _ST for n in ("U1", "U2", "V")},
    "unitary/tU1": _S, "unitary/tU2": _S,
    "unitary/V1": _ST | {"corrupt_reduction"},
    "unitary/V2": _ST | {"mass"},
    "transform/tU2*tU1": _ST, "transform/tU2_alt_norm_p3pos": _ST,
    "projector/q_idempotent": _ST | {"holdout", "mass"},
    **{f"algebra/{n}": {"seed"} for n in poincare.GENERATOR_NAMES},
    "algebra/flat": {"seed", "mass"},
    "covariance/chi_to_phi_by_U2": {"seed"},
    **{f"position/{n}": _ST for n in position.POSITION_NAMES},
    "content/dirac_massless": _S,
    "dispersion/dirac_massless": _ST | {"mass", "kappa"},
}


def test_every_entry_reads_its_pinned_fields():
    assert len(REGISTRY) == len(READS)
    assert {next(iter(e.run(CFG))).name: e.reads for e in REGISTRY} == READS


def test_holdout_reaches_the_intertwiner_solver(monkeypatch):
    seen = []
    solve = symmetry.solve_intertwiner

    def spy(*args, **kwargs):
        seen.append(kwargs["n_holdout"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(symmetry, "solve_intertwiner", spy)
    entry, = [e for e in REGISTRY if e.run is suite._projectors]
    list(entry.run(RunConfig(holdout=9)))
    assert seen and set(seen) == {9}


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
