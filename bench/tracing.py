"""In-memory span tracer that wraps spinorlab layers where their callers bind them.

A layer function is replaced, for the duration of a traced phase, by a
wrapper that records one span per call: layer, parent span, phase, op id,
start and end.  Functions are patched on every module that looks them up
(``poincare.diffop_commutator`` and ``position.diffop_commutator`` are two
bindings of one function), on ``OperatorField`` for the per-evaluation
methods, and on ``numpy.linalg`` for ``svd``.  ``dual.seed`` is counted
without a span: it runs once per coefficient derivative and a span would
dominate its cost.  Spans stay in compact arrays until :meth:`Tracer.save`.
"""

import time
from array import array
from collections import Counter

import numpy as np

import spinorlab.dual as dual
import spinorlab.equations as equations
import spinorlab.linalg as linalg
import spinorlab.opcalc as opcalc
import spinorlab.poincare as poincare
import spinorlab.position as position
import spinorlab.suite as suite
import spinorlab.symmetry as symmetry


def _count_terms(counts, args, out, exc):
    counts["opcalc.coeff_evals"] += len(args[0].terms)


def _solve_outcome(counts, args, out, exc):
    if isinstance(exc, symmetry.IndeterminateVerdict):
        counts["symmetry.solve_intertwiner.indeterminate"] += 1
    elif isinstance(out, symmetry.Intertwiner):
        counts["symmetry.solve_intertwiner.invariant"] += 1
    elif isinstance(out, symmetry.NonInvariance):
        counts["symmetry.solve_intertwiner.noninvariant"] += 1


def _coherence_pairs(counts, args, out, exc):
    if out is not None:
        n_inv = sum(1 for v in out.verdicts if v.invariant)
        counts["symmetry.coherence_pairs"] += n_inv * n_inv


# layer -> (bindings to patch, tally hook run after each call)
SPAN_LAYERS = {
    "suite.run_verify_all": ([(suite, "run_verify_all")], None),
    "opcalc.diffop_commutator": ([(poincare, "diffop_commutator"),
                                  (position, "diffop_commutator"),
                                  (opcalc, "diffop_commutator")], None),
    "opcalc.field_eval": ([(opcalc.OperatorField, "__call__")], _count_terms),
    "opcalc.field_deriv": ([(opcalc.OperatorField, "deriv")], _count_terms),
    "linalg.svd": ([(np.linalg, "svd")], None),
    "linalg.svd_nullspace": ([(symmetry, "svd_nullspace"),
                              (linalg, "svd_nullspace")], None),
    "linalg.cond2": ([(symmetry, "cond2"), (linalg, "cond2")], None),
    "symmetry.solve_intertwiner": ([(symmetry, "solve_intertwiner")],
                                   _solve_outcome),
    "symmetry.classify_equation": ([(symmetry, "classify_equation")],
                                   _coherence_pairs),
    "symmetry.random_search_oracle": ([(symmetry, "random_search_oracle")],
                                      None),
    "equations.verify_transform": ([(equations, "verify_transform")], None),
    "equations.exp_closed_residual": ([(equations, "exp_closed_residual")],
                                      None),
    "equations.catalog_equation": ([(equations, "catalog_equation"),
                                    (poincare, "catalog_equation")], None),
    "poincare.algebra_residual": ([(poincare, "algebra_residual")], None),
    "poincare.set_covariance_residual": (
        [(poincare, "set_covariance_residual")], None),
    "poincare.irrep_content": ([(poincare, "irrep_content")], None),
    "poincare.generator_set": ([(poincare, "generator_set")], None),
    "position.verify_position": ([(position, "verify_position")], None),
}

COUNT_LAYERS = {
    "dual.seed": [(dual, "seed")],
}


class Tracer:
    """Records spans and counters for the phases run between install/uninstall."""

    def __init__(self):
        self.layers = list(SPAN_LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.op = array("i")
        self.outer = array("b")        # 1 unless nested in a span of its layer
        self.t0 = array("d")
        self.t1 = array("d")
        self.phases = []
        self.counts = []               # one Counter per phase
        self.current_op = -1
        self._stack = [-1]
        self._active = [0] * len(self.layers)
        self._saved = []

    # -- phases ---------------------------------------------------------------
    def begin_phase(self, name):
        self.phases.append(name)
        self.counts.append(Counter())
        self.current_op = -1

    def phase_counts(self, name):
        """Work counters of one phase: span counts per layer plus tallies."""
        k = self.phases.index(name)
        a = self._arrays()
        layer = a["layer"][a["phase"] == k]
        out = Counter(self.counts[k])
        for lid, n in zip(*np.unique(layer, return_counts=True)):
            out[self.layers[lid] + ".calls"] += int(n)
        return out

    # -- patching -------------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for lid, (bindings, tally) in enumerate(SPAN_LAYERS.values()):
            for owner, attr in bindings:
                self._patch(owner, attr, self._span_wrapper(lid, tally))
        for name, bindings in COUNT_LAYERS.items():
            for owner, attr in bindings:
                self._patch(owner, attr, self._count_wrapper(name + ".calls"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span_wrapper(self, lid, tally):
        def make(fn):
            def traced(*args, **kwargs):
                i = len(self.t0)
                self.layer.append(lid)
                self.parent.append(self._stack[-1])
                self.phase.append(len(self.phases) - 1)
                self.op.append(self.current_op)
                self.outer.append(self._active[lid] == 0)
                self.t1.append(0.0)
                self._stack.append(i)
                self._active[lid] += 1
                out = exc = None
                self.t0.append(time.perf_counter())
                try:
                    out = fn(*args, **kwargs)
                    return out
                except Exception as e:
                    exc = e
                    raise
                finally:
                    self.t1[i] = time.perf_counter()
                    self._active[lid] -= 1
                    self._stack.pop()
                    if tally is not None:
                        tally(self.counts[-1], args, out, exc)
            return traced
        return make

    def _count_wrapper(self, key):
        def make(fn):
            def counted(*args, **kwargs):
                self.counts[-1][key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    # -- analysis -------------------------------------------------------------
    def _arrays(self):
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
        }

    def layer_times(self, phases):
        """{layer: (calls, inclusive s, self s)} over the named phases.

        Inclusive time counts only the outermost span of a recursive layer;
        self time is a span's duration minus that of its direct children.
        """
        a = self._arrays()
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        sel = np.isin(a["phase"], [self.phases.index(p) for p in phases])
        out = {}
        for lid, name in enumerate(self.layers):
            mine = sel & (a["layer"] == lid)
            out[name] = (int(mine.sum()),
                         float(dur[mine & (a["outer"] == 1)].sum()),
                         float(self_s[mine].sum()))
        return out

    def save(self, path):
        """Write every span (and the layer and phase names) as a .npz file."""
        np.savez_compressed(path, layers=np.array(self.layers),
                            phases=np.array(self.phases), **self._arrays())
