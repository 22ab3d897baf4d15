"""The check registry: every verification, in order, behind every check subcommand.

``REGISTRY`` is the one table of checks.  Each :class:`Entry` yields the
:class:`CheckResult` s of one subject (a unitary, a generator set, a position
operator, ...) and names the :class:`RunConfig` fields that can change them.
``verify-all`` runs every entry; ``algebra``, ``transform`` and ``position``
each run the entry that :func:`run_checks` picks by subcommand and subject.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from . import equations as eqs
from . import poincare, position, symmetry
from .clifford import gamma_set, verify_clifford
from .linalg import NotUnitary
from .opcalc import sample_momenta, shared_batches

TOL = 1e-9          # the tolerance of every check without its own


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    samples: int = 12
    mass: float = 1.0
    kappa: float = 1.0
    corrupt_reduction: bool = False

    def __post_init__(self):
        if self.samples < 8:
            raise ValueError("samples must be >= 8")
        if not (math.isfinite(self.mass) and math.isfinite(self.kappa)):
            raise ValueError("mass and kappa must be finite")


@dataclass(frozen=True)
class Entry:
    """One row of the registry: ``run(cfg)`` yields the checks of ``subject``."""
    command: Optional[str]     # subcommand that selects it; None: verify-all
    subject: Optional[str]     # check-name suffix; None when command is None
    reads: frozenset           # RunConfig fields that can change the checks
    run: Callable              # RunConfig -> iterable of CheckResult


def _s3(cfg):
    return sample_momenta(3, cfg.samples, cfg.seed)


def _unitary(name, cfg):
    s3 = _s3(cfg)
    u = eqs.catalog_unitary(name, m=cfg.mass)
    yield CheckResult(f"unitary/{name}", eqs.unitarity_residual(u, s3), 1e-10)
    if u.exponent is not None:
        yield CheckResult(f"exp_vs_closed/{name}",
                          eqs.exp_closed_residual(u, s3), TOL)
    if u.source is not None and u.target is not None:
        yield CheckResult(f"transform/{name}", _transform(
            u, s3, m=cfg.mass, kappa=cfg.kappa,
            corrupt_reduction=cfg.corrupt_reduction), TOL)


def _transform(u, samples, **params):
    """verify_transform's residual; NaN (a failed check) if u isn't unitary."""
    try:
        return eqs.verify_transform(u, samples, **params)
    except NotUnitary:
        return math.nan


def _projectors(cfg):
    for key, val in eqs.verify_projectors(_s3(cfg), m=cfg.mass).items():
        yield CheckResult(f"projector/{key}", val, TOL)
    for key, val in symmetry.verify_projection_relations(cfg.seed).items():
        yield CheckResult(f"projection_relations/{key}", val, TOL)


def _algebra(name, cfg):
    gs = poincare.generator_set(name, m=cfg.mass)
    resid, second = poincare.algebra_residual(
        gs, sample_momenta(gs.d, 8, cfg.seed))
    yield CheckResult(f"algebra/{name}", resid, 1e-8)
    yield CheckResult(f"algebra_second_order/{name}", second, 1e-10)


def _covariance(cfg):
    u2 = eqs.catalog_unitary("U2").closed
    yield CheckResult("covariance/chi_to_phi_by_U2",
                      poincare.set_covariance_residual(
                          poincare.generator_set("chi"),
                          poincare.generator_set("phi"), u2,
                          sample_momenta(3, 8, cfg.seed)[:4]), 1e-8)


def _position(name, cfg):
    rep = position.verify_position(name, _s3(cfg))
    yield CheckResult(f"position/{name}", rep["closed_vs_conjugation"], TOL)
    yield CheckResult(f"position_canonical/{name}",
                      rep["canonical_commutator"], 1e-10)


def _content(cfg):
    for name in ("dirac_massless", "weyl_plus"):    # against CONTENT_SETS
        gs_name, stated = poincare.CONTENT_SETS[name]
        content = poincare.irrep_content(eqs.catalog_equation(name),
                                         poincare.generator_set(gs_name),
                                         _s3(cfg))
        yield CheckResult(f"content/{name}",
                          0.0 if content == stated else 1.0, 0.5)


def _dispersion_and_structure(cfg):
    for name in eqs.EQUATION_NAMES:
        eq = eqs.catalog_equation(name, m=cfg.mass, kappa=cfg.kappa)
        samples = sample_momenta(eq.d, cfg.samples, cfg.seed)
        yield CheckResult(f"dispersion/{name}",
                          eqs.dispersion_residual(eq, samples), 1e-10)
    s3 = _s3(cfg)
    yield CheckResult("structure/chi_4c_block_reduction",
                      eqs.block_reduction_residual(s3), TOL)
    yield CheckResult("structure/lambda_minus_2i",
                      eqs.lambda_consistency_residual(s3), 1e-14)


def _registry():
    sampled = frozenset({"seed", "samples"})
    out = [Entry(None, None, frozenset(), lambda cfg: [
        CheckResult(f"clifford/{name}", verify_clifford(gamma_set(name)),
                    1e-12) for name in ("rep26", "weyl")])]
    for name in eqs.UNITARY_NAMES:
        u = eqs.catalog_unitary(name)
        reads = sampled
        if u.source is not None and u.target is not None:
            # transform/ reads its equations' parameters
            reads = reads.union(*(eqs.catalog_equation(e).params for e in (
                u.source, u.target) if isinstance(e, str)))
        out.append(Entry("transform", name, reads, partial(_unitary, name)))
    out += [
        Entry("transform", "tU2*tU1", sampled, lambda cfg: [
            CheckResult("transform/tU2*tU1", _transform(
                eqs.composed_tu(), _s3(cfg)), TOL)]),
        Entry("transform", "tU2_alt_norm_p3pos", sampled,
              lambda cfg: [CheckResult(
                  "transform/tU2_alt_norm_p3pos",
                  eqs.tu2_alt_normalization_residual(_s3(cfg)), TOL)]),
        Entry(None, None, sampled | {"mass"}, _projectors),
    ]
    out += [Entry("algebra", name,
                  frozenset({"seed", "mass"} if name == "flat" else {"seed"}),
                  partial(_algebra, name))
            for name in poincare.GENERATOR_NAMES]
    out.append(Entry(None, None, frozenset({"seed"}), _covariance))
    out += [Entry("position", name, sampled, partial(_position, name))
            for name in position.POSITION_NAMES]
    out += [
        Entry(None, None, sampled, _content),
        Entry(None, None, sampled | {"mass", "kappa"},
              _dispersion_and_structure),
    ]
    return tuple(out)


REGISTRY = _registry()


def run_checks(cfg: RunConfig, command: Optional[str] = None,
               subject: Optional[str] = None, given=()) -> list:
    """The checks of the entries of subcommand ``command`` for ``subject``
    (every entry when ``command`` is None), in registry order, in one run
    scope (:func:`~spinorlab.opcalc.shared_batches`): what one check computes
    on a set of sample points serves every later check, until the run ends.

    Raises ValueError on an empty selection, or when no selected entry reads
    a RunConfig field named in ``given``.
    """
    chosen = [e for e in REGISTRY if command is None
              or (e.command, e.subject) == (command, subject)]
    if not chosen:
        raise ValueError(f"no {command} check for {subject!r}")
    reject_unread(given, frozenset().union(*(e.reads for e in chosen)))
    with shared_batches():
        return [c for e in chosen for c in e.run(cfg)]


def reject_unread(given, reads) -> None:
    """Raise ValueError when a RunConfig field named in ``given`` is not read."""
    unread = sorted(set(given) - set(reads))
    if unread:
        raise ValueError(f"no selected check reads {', '.join(unread)}")


def run_verify_all(cfg: RunConfig) -> list:
    """One CheckResult per verification, deterministically ordered."""
    return run_checks(cfg)
