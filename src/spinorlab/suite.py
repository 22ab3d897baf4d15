"""The check registry: every verification, in order, behind every check subcommand.

``REGISTRY`` is the one table of checks.  Each :class:`Entry` yields the
:class:`CheckResult` s of one subject (a unitary, a generator set, a position
operator, ...) and names the :class:`RunConfig` fields that can change them.
``verify-all`` runs every entry; ``algebra``, ``transform`` and ``position``
run the entries that :func:`run_checks` picks by check group and subject.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from . import equations as eqs
from . import poincare, position, symmetry
from .clifford import gamma_set, verify_clifford
from .linalg import NotUnitary
from .opcalc import sample_momenta


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
    holdout: int = 4
    tol: float = 1e-9
    mass: float = 1.0
    kappa: float = 1.0
    corrupt_reduction: bool = False

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-6):
            raise ValueError("tol must lie in (0, 1e-6]")
        if self.samples < 8:
            raise ValueError("samples must be >= 8")
        if self.holdout < 4:
            raise ValueError("holdout must be >= 4")
        if not (math.isfinite(self.mass) and math.isfinite(self.kappa)):
            raise ValueError("mass and kappa must be finite")


@dataclass(frozen=True)
class Entry:
    """One row of the registry: ``run(cfg)`` yields the checks of ``subject``."""
    groups: tuple              # check-name prefixes, in the order run yields them
    subject: Optional[str]     # check-name suffix; None when no filter needs one
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
                          eqs.exp_closed_residual(u, s3), cfg.tol)
    if u.source is not None and u.target is not None:
        yield CheckResult(f"transform/{name}", _transform(
            u, s3, m=cfg.mass, kappa=cfg.kappa,
            corrupt_reduction=cfg.corrupt_reduction), cfg.tol)


def _transform(u, samples, **params):
    """verify_transform's residual; NaN (a failed check) if u isn't unitary."""
    try:
        return eqs.verify_transform(u, samples, **params)
    except NotUnitary:
        return math.nan


def _projectors(cfg):
    for key, val in eqs.verify_projectors(_s3(cfg), m=cfg.mass).items():
        yield CheckResult(f"projector/{key}", val, cfg.tol)
    for key, val in symmetry.verify_projection_relations(
            seed=cfg.seed, n_holdout=cfg.holdout).items():
        yield CheckResult(f"projection_relations/{key}", val, cfg.tol)


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
    yield CheckResult(f"position/{name}", rep["closed_vs_conjugation"], cfg.tol)
    yield CheckResult(f"position_canonical/{name}",
                      rep["canonical_commutator"], 1e-10)


def _content(cfg):
    def content(name):
        gs = poincare.generator_set(poincare.CONTENT_SETS[name])
        return poincare.irrep_content(eqs.catalog_equation(name), gs, _s3(cfg))
    psi = ((-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5))
    yield CheckResult("content/dirac_massless",
                      0.0 if content("dirac_massless") == psi else 1.0, 0.5)
    yield CheckResult("content/weyl_plus",
                      0.0 if len(content("weyl_plus")) == 2 else 1.0, 0.5)


def _dispersion_and_structure(cfg):
    for name in eqs.EQUATION_NAMES:
        eq = eqs.catalog_equation(name, m=cfg.mass, kappa=cfg.kappa)
        samples = sample_momenta(eq.d, cfg.samples, cfg.seed)
        yield CheckResult(f"dispersion/{name}",
                          eqs.dispersion_residual(eq, samples), 1e-10)
    s3 = _s3(cfg)
    yield CheckResult("structure/chi_4c_block_reduction",
                      eqs.block_reduction_residual(s3), cfg.tol)
    yield CheckResult("structure/lambda_minus_2i",
                      eqs.lambda_consistency_residual(s3), 1e-14)


def _registry():
    sampled = frozenset({"seed", "samples"})
    out = [Entry(("clifford",), None, frozenset(), lambda cfg: [
        CheckResult(f"clifford/{name}", verify_clifford(gamma_set(name)),
                    1e-12) for name in ("rep26", "weyl")])]
    for name in eqs.UNITARY_NAMES:
        u = eqs.catalog_unitary(name)
        groups, reads = ("unitary",), sampled
        if u.exponent is not None:
            groups += ("exp_vs_closed",)
        if u.source is not None and u.target is not None:
            groups += ("transform",)     # reads its equations' parameters
            reads = reads.union(*(eqs.catalog_equation(e).params for e in (
                u.source, u.target) if isinstance(e, str)))
        tol = {"tol"} if len(groups) > 1 else set()  # unitary/ has its own
        out.append(Entry(groups, name, reads | tol, partial(_unitary, name)))
    out += [
        Entry(("transform",), "tU2*tU1", sampled | {"tol"}, lambda cfg: [
            CheckResult("transform/tU2*tU1", _transform(
                eqs.composed_tu(), _s3(cfg)), cfg.tol)]),
        Entry(("transform",), "tU2_alt_norm_p3pos", sampled | {"tol"},
              lambda cfg: [CheckResult(
                  "transform/tU2_alt_norm_p3pos",
                  eqs.tu2_alt_normalization_residual(_s3(cfg)), cfg.tol)]),
        Entry(("projector", "projection_relations"), None,
              sampled | {"holdout", "tol", "mass"}, _projectors),
    ]
    out += [Entry(("algebra", "algebra_second_order"), name,
                  frozenset({"seed", "mass"} if name == "flat" else {"seed"}),
                  partial(_algebra, name))
            for name in poincare.GENERATOR_NAMES]
    out.append(Entry(("covariance",), None, frozenset({"seed"}), _covariance))
    out += [Entry(("position", "position_canonical"), name, sampled | {"tol"},
                  partial(_position, name))
            for name in position.POSITION_NAMES]
    out += [
        Entry(("content",), None, sampled, _content),
        Entry(("dispersion", "structure"), None,
              sampled | {"mass", "kappa", "tol"}, _dispersion_and_structure),
    ]
    return tuple(out)


REGISTRY = _registry()


def run_checks(cfg: RunConfig, groups: Optional[tuple] = None,
               subject: Optional[str] = None, given=()) -> list:
    """The checks of the entries of any of ``groups`` for ``subject`` (every
    entry when ``groups`` is None), in registry order.

    Raises ValueError on an empty selection, or when no selected entry reads
    a RunConfig field named in ``given``.
    """
    chosen = [e for e in REGISTRY if groups is None
              or (e.subject == subject and set(groups) & set(e.groups))]
    if not chosen:
        raise ValueError(f"no {'/'.join(groups)} check for {subject!r}")
    reject_unread(given, frozenset().union(*(e.reads for e in chosen)))
    return [c for e in chosen for c in e.run(cfg)]


def reject_unread(given, reads) -> None:
    """Raise ValueError when a RunConfig field named in ``given`` is not read."""
    unread = sorted(set(given) - set(reads))
    if unread:
        raise ValueError(f"no selected check reads {', '.join(unread)}")


def run_verify_all(cfg: RunConfig) -> list:
    """One CheckResult per verification, deterministically ordered."""
    return run_checks(cfg)
