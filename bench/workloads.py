"""The benchmark's three workloads, their set-up and their per-op correctness gates.

Each workload is a stream of passes; pass ``k`` draws its own spinorlab seed
from the benchmark seed, so the same benchmark seed always gives the same
inputs.  An op returns an :class:`OpResult`; any miss of a gate is an error
string, and the op counts as failed.

* ``verify_suite``: op = ``run_verify_all(RunConfig(seed=s))``, one op per
  pass.  Chosen because it is the paper's headline run and spends most of its
  time in ``opcalc`` derivatives (``diffop_commutator``), with light SVD use.
* ``classify_catalog``: op = ``classify_equation(catalog_equation(name),
  seed=s)``, one pass over all 17 names.  Chosen because it drives the
  symmetry engine: SVD-heavy intertwiner solves on value-only field
  evaluations, no derivatives.
* ``oracle_crosscheck``: op = one (2x2 equation, group element) pair,
  nullspace solve plus the random-search oracle on a shared 1e5-candidate
  pool, 256 ops per pass.  Chosen as the control for derivative and SVD
  work: bulk numpy dominates, so changes there should not move it.
"""

import json
import math
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

import spinorlab.equations as equations
import spinorlab.poincare as poincare
import spinorlab.suite as suite
import spinorlab.symmetry as symmetry
from spinorlab.opcalc import sample_momenta

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

ORACLE_THRESHOLD = 1e-3       # decision threshold inside random_search_oracle
ORACLE_POOL = 100_000


class OpResult(NamedTuple):
    checks: int               # verified results the op produced
    margin: float             # min over its checks of log10(tol/residual)
    error: Optional[str]      # first gate it missed, None when correct


def pass_seed(seed: int, k: int) -> int:
    """spinorlab seed of pass ``k`` under benchmark seed ``seed``."""
    return int(np.random.default_rng([seed, k]).integers(2 ** 31))


def _decades(tol, residual):
    return math.log10(tol / residual) if residual > 0 else math.inf


def _verdict_margin(v):
    """Distance in decades from an element verdict to its threshold."""
    if v.invariant:
        return _decades(symmetry.HOLDOUT_TOL, v.residual)
    return _decades(v.residual, symmetry.CERTIFICATE_TOL)


def _build_catalog():
    eqs = {n: equations.catalog_equation(n) for n in equations.EQUATION_NAMES}
    for n in equations.UNITARY_NAMES:
        equations.catalog_unitary(n)
    return eqs


class Workload:
    """A stream of passes of ops; set-up work happens in ``__init__``."""

    name = ""
    exercises = ()            # layer metrics that must be nonzero when traced
    margin_passes = 1         # passes always run; worst_margin_dec uses these
    compared = 0              # oracle-vs-nullspace comparisons made
    agreed = 0                # ... and how many of them agreed

    def pass_ops(self, k):
        raise NotImplementedError


class VerifySuite(Workload):
    name = "verify_suite"
    margin_passes = 4
    exercises = ("suite.run_verify_all", "opcalc.diffop_commutator",
                 "opcalc.field_eval", "opcalc.field_deriv", "dual.seed",
                 "linalg.svd", "linalg.svd_nullspace", "linalg.cond2",
                 "symmetry.solve_intertwiner", "equations.verify_transform",
                 "equations.exp_closed_residual", "equations.catalog_equation",
                 "poincare.algebra_residual",
                 "poincare.set_covariance_residual", "poincare.irrep_content",
                 "poincare.generator_set", "position.verify_position")

    def __init__(self, seed):
        self.seed = seed
        _build_catalog()
        for name in poincare.GENERATOR_NAMES:
            poincare.generator_set(name)
        for d in (2, 3):
            poincare.structure_signs(d)

    def pass_ops(self, k):
        s = pass_seed(self.seed, k)
        return [lambda: self._op(s)]

    @staticmethod
    def _op(s):
        results = suite.run_verify_all(suite.RunConfig(seed=s))
        margin = min(_decades(c.tol, c.residual) for c in results)
        if [c.name for c in results] != REFERENCE["checks"]:
            return OpResult(len(results), margin, "check list differs")
        for c in results:
            if not (math.isfinite(c.residual) and c.residual <= c.tol):
                return OpResult(len(results), margin,
                                f"{c.name}: residual {c.residual!r} > {c.tol}")
        return OpResult(len(results), margin, None)


def _classification_error(name, rep):
    table = {v.element.label: v.invariant for v in rep.verdicts}
    if not rep.agreement:
        return f"{name}: verdicts disagree with attached claims"
    if not rep.coherence_ok:
        return f"{name}: invariant elements are not closed under composition"
    if any(not math.isfinite(v.residual) for v in rep.verdicts):
        return f"{name}: non-finite verdict residual"
    if table != REFERENCE["verdicts"][name]:
        return f"{name}: verdict table differs from the reference"
    return None


class ClassifyCatalog(Workload):
    name = "classify_catalog"
    margin_passes = 3
    exercises = ("symmetry.classify_equation", "symmetry.solve_intertwiner",
                 "symmetry.coherence_pairs", "opcalc.field_eval",
                 "linalg.svd", "linalg.svd_nullspace", "linalg.cond2",
                 "equations.catalog_equation")

    def __init__(self, seed):
        self.seed = seed
        _build_catalog()

    def pass_ops(self, k):
        s = pass_seed(self.seed, k)
        return [lambda n=n: self._op(n, s) for n in equations.EQUATION_NAMES]

    @staticmethod
    def _op(name, s):
        try:
            rep = symmetry.classify_equation(equations.catalog_equation(name),
                                             seed=s)
        except symmetry.IndeterminateVerdict as exc:
            return OpResult(0, math.inf, f"{name}: indeterminate: {exc}")
        margin = min(_verdict_margin(v) for v in rep.verdicts)
        return OpResult(len(rep.verdicts), margin,
                        _classification_error(name, rep))


class OracleCrosscheck(Workload):
    name = "oracle_crosscheck"
    exercises = ("symmetry.random_search_oracle", "symmetry.solve_intertwiner",
                 "linalg.svd", "linalg.svd_nullspace",
                 "equations.catalog_equation")

    def __init__(self, seed):
        self.seed = seed
        eqs = _build_catalog()
        self.pairs = [(eqs[n], g) for n in equations.TWO_BY_TWO_NAMES
                      for g in symmetry.group_elements(eqs[n].d)]
        rng = np.random.default_rng(seed)
        self.pool = (rng.normal(size=(ORACLE_POOL, 4))
                     + 1j * rng.normal(size=(ORACLE_POOL, 4)))

    def pass_ops(self, k):
        s = pass_seed(self.seed, k)
        return [lambda eq=eq, g=g: self._op(eq, g, s) for eq, g in self.pairs]

    def _op(self, eq, g, s):
        where = f"{eq.name}/{g.label}"
        try:
            solved = symmetry.solve_intertwiner(eq, g, seed=s)
        except symmetry.IndeterminateVerdict as exc:
            return OpResult(0, math.inf, f"{where}: indeterminate: {exc}")
        best, oracle = symmetry.random_search_oracle(
            eq, g, sample_momenta(eq.d, 12, s), pool=self.pool)
        if isinstance(solved, symmetry.Intertwiner):
            nullspace, residual = True, solved.holdout_residual
            margin = _decades(symmetry.HOLDOUT_TOL, residual)
        else:
            nullspace, residual = False, solved.relative
            margin = _decades(residual, symmetry.CERTIFICATE_TOL)
        margin = min(margin, _decades(ORACLE_THRESHOLD, best) if oracle
                     else _decades(best, ORACLE_THRESHOLD))
        if not (math.isfinite(best) and math.isfinite(residual)):
            return OpResult(1, margin, f"{where}: non-finite residual")
        self.compared += 1
        self.agreed += oracle == nullspace
        if oracle != nullspace:
            return OpResult(1, margin, f"{where}: oracle says {oracle}, "
                            f"nullspace says {nullspace}")
        if nullspace != REFERENCE["verdicts"][eq.name][g.label]:
            return OpResult(1, margin, f"{where}: verdict differs from the "
                            "reference")
        return OpResult(1, margin, None)


WORKLOADS = {w.name: w for w in (VerifySuite, ClassifyCatalog,
                                 OracleCrosscheck)}
