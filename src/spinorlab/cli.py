"""Command-line surface: verification runs and classification reports.

Subcommands: ``report``, ``verify-all``, ``algebra``, ``transform``,
``position``, ``content``.  ``algebra``, ``transform`` and ``position`` run
the matching rows of the check registry and print the ``verify-all``
document.  JSON output is byte-deterministic for a fixed configuration; every
float is serialized with 17 significant digits.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 a ``report`` failing
nothing with an element undecided (``"invariant": null``, a ``"reason"``).
"""

import argparse
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import equations as eqs
from . import poincare, position
from .opcalc import sample_momenta
from .suite import RunConfig, reject_unread, run_checks
from .symmetry import classify_equation


# -- deterministic JSON ------------------------------------------------------

def _json_scalar(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError(f"{x!r} has no JSON form")
        return format(float(x), ".17g")
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(x)}")


def dumps(obj) -> str:
    if isinstance(obj, dict):
        items = (f"{_json_scalar(str(k))}: {dumps(v)}"
                 for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    return _json_scalar(obj)


def _matrix_json(m):
    if m is None:
        return None
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]


# -- report assembly ----------------------------------------------------------

def _report_doc(report):
    elements = [{"label": v.element.label, "invariant": v.invariant,
                 "residual": v.residual,
                 "matrix": _matrix_json(v.intertwiner.unitary_rep
                                        if v.intertwiner else None),
                 **({"reason": v.reason} if v.invariant is None else {})}
                for v in report.verdicts]
    return {"equation": report.equation, "elements": elements,
            "agreement": report.agreement,
            "claims_checked": report.claims_checked,
            "coherence_ok": report.coherence_ok}


def _report_markdown(report):
    lines = [f"# Classification: {report.equation}", "",
             "| element | invariant | residual |",
             "|---|---|---|"]
    for v in report.verdicts:
        lines.append(f"| {v.element.label} | {dumps(v.invariant)} "
                     f"| {v.residual:.3e} |")
    lines += ["", f"claims checked: {report.claims_checked}",
              f"agreement: {str(report.agreement).lower()}",
              f"coherence: {str(report.coherence_ok).lower()}"]
    return "\n".join(lines) + "\n"


def _checks_doc(checks):
    return {"pass": all(c.passed for c in checks),
            "checks": [{"name": c.name, "residual": c.residual,
                        "tol": c.tol, "pass": c.passed} for c in checks]}


def _checks_markdown(checks, title):
    lines = [f"# {title}", "", "| check | residual | tol | pass |",
             "|---|---|---|---|"]
    for c in checks:
        lines.append(f"| {c.name} | {c.residual:.3e} | {c.tol:.0e} "
                     f"| {str(c.passed).lower()} |")
    lines += ["", f"overall: {'pass' if all(c.passed for c in checks) else 'FAIL'}"]
    return "\n".join(lines) + "\n"


def _emit(args, doc, markdown):
    print(dumps(doc) if args.format == "json" else markdown, end="\n")


# -- subcommands ---------------------------------------------------------------

def _given(args) -> dict:
    """The RunConfig fields set on the command line (flags default to absent)."""
    return {f.name: getattr(args, f.name) for f in fields(RunConfig)
            if hasattr(args, f.name)}


def _equation(args, reads):
    """(RunConfig, catalog equation) of the command line.

    Raises ValueError on a flag that neither ``reads`` nor the equation's
    construction reads (the RunConfig fields named in its ``params``).
    """
    given = _given(args)
    cfg = RunConfig(**given)
    eq = eqs.catalog_equation(args.equation, m=cfg.mass, kappa=cfg.kappa,
                              corrupt_reduction=cfg.corrupt_reduction)
    reject_unread(given, set(reads) | eq.params)
    return cfg, eq


def cmd_report(args) -> int:
    cfg, eq = _equation(args, {"seed", "samples", "holdout"})
    report = classify_equation(eq, seed=cfg.seed, n_fit=cfg.samples,
                               n_holdout=cfg.holdout)
    undecided = any(v.invariant is None for v in report.verdicts)
    if args.element is not None:    # the summary stays the full group's
        report = replace(report,
                         verdicts=(report.verdict_for(args.element),))
    _emit(args, _report_doc(report), _report_markdown(report))
    if not (report.agreement and report.coherence_ok):
        return 1
    return 3 if undecided else 0


def cmd_checks(args) -> int:
    """verify-all, or the registry rows of ``args.command`` for ``args.subject``."""
    given = _given(args)
    command = None if args.command == "verify-all" else args.command
    checks = run_checks(RunConfig(**given), command, args.subject, given)
    failing = [c.name for c in checks if not c.passed]
    if failing:      # before the output, which may fail on a non-finite value
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
    _emit(args, _checks_doc(checks), _checks_markdown(checks, args.command))
    return 1 if failing else 0


def cmd_content(args) -> int:
    cfg, eq = _equation(args, {"seed", "samples"})
    gs = poincare.generator_set(poincare.CONTENT_SETS[args.equation])
    samples = sample_momenta(3, cfg.samples, cfg.seed)
    try:
        branches = poincare.irrep_content_by_branch(eq, gs, samples)
    except poincare.ContentNotInvariant as exc:
        print(f"content not invariant: {exc}", file=sys.stderr)
        return 1
    doc = {"equation": args.equation,
           "content_by_p3_branch": {
               k: [[s, h] for s, h in v] for k, v in sorted(branches.items())}}
    md_lines = [f"# Irrep content: {args.equation}", ""]
    for k, v in sorted(branches.items()):
        md_lines.append(f"p3 {k}: " + ", ".join(
            f"(eps={s:+d}, s={h:+.1f})" for s, h in v))
    _emit(args, doc, "\n".join(md_lines) + "\n")
    return 0


_HELP = {"corrupt_reduction": "negative control: rebuild the two-component "
                              "reduction with the inconsistent sigma_2 p2 term"}


def _add_common(p):
    """One flag per RunConfig field; an absent flag takes the field's default."""
    p.add_argument("--format", choices=("json", "md"), default="json")
    for f in fields(RunConfig):
        kind = {"action": "store_true"} if f.type is bool else {"type": f.type}
        p.add_argument("--" + f.name.replace("_", "-"), help=_HELP.get(f.name),
                       default=argparse.SUPPRESS, **kind)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinorlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="classify one equation over the full "
                                      "discrete group")
    p.add_argument("--equation", required=True)
    p.add_argument("--element", default=None,
                   help="restrict the output to one element, e.g. P3*C")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify-all", help="run every verification check")
    _add_common(p)
    p.set_defaults(func=cmd_checks, subject=None)

    # the registry rows of each subcommand, one per subject
    for command, flag, choices in (
            ("algebra", "--generators", poincare.GENERATOR_NAMES),
            ("transform", "--name", None),
            ("position", "--name", position.POSITION_NAMES)):
        p = sub.add_parser(command, help=f"the {command} checks of one subject")
        p.add_argument(flag, dest="subject", required=True, choices=choices)
        _add_common(p)
        p.set_defaults(func=cmd_checks)

    p = sub.add_parser("content", help="energy-sign/helicity irrep content")
    p.add_argument("--equation", required=True,
                   choices=sorted(poincare.CONTENT_SETS))
    _add_common(p)
    p.set_defaults(func=cmd_content)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
