import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import kept
from spinorlab.cli import dumps, main
from spinorlab.equations import EQUATION_NAMES, catalog_equation
from spinorlab.poincare import CONTENT_SETS
from spinorlab.suite import RunConfig


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "spinorlab.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spinorlab.cli; "
         "sys.exit('scipy' in sys.modules)"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dumps_is_sorted_and_17g():
    s = dumps({"b": 1.0 / 3.0, "a": True, "c": [1, None, "x"]})
    assert s == '{"a": true, "b": 0.33333333333333331, "c": [1, null, "x"]}'
    assert json.loads(s) == {"a": True, "b": 1.0 / 3.0, "c": [1, None, "x"]}


def test_report_chi_plus_agrees():
    code, out, _ = run_cli("report", "--equation", "chi_plus")
    assert code == 0
    doc = json.loads(out)
    assert doc["equation"] == "chi_plus"
    assert doc["agreement"] is True
    by_label = {e["label"]: e for e in doc["elements"]}
    assert by_label["C"]["invariant"] is True
    assert by_label["C"]["matrix"] is not None
    assert by_label["P1"]["invariant"] is False
    assert by_label["P1"]["matrix"] is None
    assert len(doc["elements"]) == 32


def test_report_weyl_plus_rows():
    code, out, _ = run_cli("report", "--equation", "weyl_plus")
    assert code == 0
    doc = json.loads(out)
    by_label = {e["label"]: e["invariant"] for e in doc["elements"]}
    assert by_label["P1*P2*P3*C"] and by_label["T1"]
    assert not by_label["P1*P2*P3"] and not by_label["C"]


def test_report_desitter_kappa():
    code, out, _ = run_cli("report", "--equation", "desitter",
                           "--kappa", "1.5")
    assert code == 0
    doc = json.loads(out)
    by_label = {e["label"]: e["invariant"] for e in doc["elements"]}
    assert by_label["T1"]
    assert not by_label["C"] and not by_label["P4"]


def test_report_unknown_equation_exits_2():
    code, _, err = run_cli("report", "--equation", "bogus")
    assert code == 2
    assert "bogus" in err


def test_report_output_deterministic():
    _, out1, _ = run_cli("report", "--equation", "weyl_plus")
    _, out2, _ = run_cli("report", "--equation", "weyl_plus")
    assert out1 == out2


@pytest.mark.slow
def test_verify_all_passes_and_is_deterministic():
    code, out1, _ = run_cli("verify-all")
    assert code == 0
    doc = json.loads(out1)
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])
    code2, out2, _ = run_cli("verify-all")
    assert out1 == out2


@pytest.mark.slow
def test_verify_all_negative_control_fails():
    code, out, err = run_cli("verify-all", "--corrupt-reduction")
    assert code == 1
    doc = json.loads(out)
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert "transform/V1" in failing
    assert "transform/V1" in err


def test_verify_all_markdown_mirror():
    code, out, _ = run_cli("verify-all", "--format", "md", "--samples", "8")
    assert code == 0
    assert out.startswith("# verify-all")
    assert "| clifford/rep26 |" in out


@pytest.mark.slow
def test_verify_all_sample_count_robust():
    code, out, _ = run_cli("verify-all", "--samples", "32")
    assert code == 0
    assert json.loads(out)["pass"] is True


def checks_by_name(out):
    return {c["name"]: c for c in json.loads(out)["checks"]}


def test_algebra_command():
    code, out, _ = run_cli("algebra", "--generators", "chi2")
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert checks_by_name(out)["algebra/chi2"]["residual"] <= 1e-8


def test_transform_command():
    code, out, _ = run_cli("transform", "--name", "U2")
    assert code == 0
    checks = checks_by_name(out)
    assert checks["transform/U2"]["residual"] <= 1e-9
    assert checks["exp_vs_closed/U2"]["residual"] <= 1e-9


def test_position_command():
    code, out, _ = run_cli("position", "--name", "XW")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_content_command_reports_branches():
    code, out, _ = run_cli("content", "--equation", "chi_plus")
    assert code == 0
    doc = json.loads(out)
    branches = doc["content_by_p3_branch"]
    assert branches["+"] == [[-1, -0.5], [1, 0.5]]
    assert branches["-"] == [[-1, 0.5], [1, -0.5]]


def test_content_chi_minus_has_half_integer_helicities(capsys):
    # labelled by the lower-block reduction "chi2_lower"
    assert main(["content", "--equation", "chi_minus"]) == 0
    branches = json.loads(capsys.readouterr().out)["content_by_p3_branch"]
    assert branches["+"] == [[-1, 0.5], [1, -0.5]]
    assert branches["-"] == [[-1, -0.5], [1, 0.5]]


@pytest.mark.parametrize("seed", ["42", "5", "7"])
@pytest.mark.parametrize("equation", sorted(CONTENT_SETS))
def test_content_exits_0_printing_its_stated_content(capsys, equation, seed):
    assert main(["content", "--equation", equation, "--seed", seed]) == 0
    out, err = capsys.readouterr()
    stated = CONTENT_SETS[equation][1]
    assert json.loads(out)["content_by_p3_branch"] == {
        k: [list(label) for label in v] for k, v in stated.items()}
    assert err == ""


@pytest.mark.parametrize("stated, branches", [
    (CONTENT_SETS["chi_minus"][1], "+, -"),   # differs on both branches
    (CONTENT_SETS["weyl_plus"][1], "-"),      # +eps/2 on both: - differs
])
def test_content_not_as_stated_exits_1_naming_the_branch(capsys, monkeypatch,
                                                         stated, branches):
    monkeypatch.setitem(CONTENT_SETS, "chi_plus", ("chi2", stated))
    assert main(["content", "--equation", "chi_plus"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"content not as stated on p3 branch {branches}:")
    assert err.count("\n") == 1
    # the document still prints what was found
    assert json.loads(out)["content_by_p3_branch"] == {
        "+": [[-1, -0.5], [1, 0.5]], "-": [[-1, 0.5], [1, -0.5]]}


def test_invalid_config_rejected():
    code, _, _ = run_cli("verify-all", "--mass", "-1")
    assert code == 2
    code, _, _ = run_cli("verify-all", "--samples", "4")
    assert code == 2


def test_main_entry_returns_int():
    assert main(["report", "--equation", "weyl_plus"]) == 0


@pytest.mark.parametrize("name, samples", [("chi_plus", 9), ("desitter", 16)])
def test_report_with_samples_exits_2_with_one_error_line(name, samples,
                                                         capsys):
    # the fit size is a constant: report reads no --samples, at any value
    assert main(["report", "--equation", name, "--samples", str(samples)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no selected check reads samples\n"
    assert main(["report", "--equation", name]) == 0
    assert json.loads(capsys.readouterr().out)["equation"] == name


@pytest.mark.parametrize("x", [float("nan"), float("inf"), np.float64("-inf")])
def test_dumps_rejects_non_finite_floats(x):
    with pytest.raises(ValueError):
        dumps({"checks": [{"residual": x}]})


@pytest.mark.parametrize("argv", [
    ["position", "--name", "XW", "--mass", "7"],
    ["algebra", "--generators", "psi", "--samples", "16"],
    ["report", "--equation", "chi_plus", "--samples", "16"],
    ["transform", "--name", "U1", "--corrupt-reduction"],
    ["transform", "--name", "bogus"],
    ["algebra", "--generators", "flat", "--mass", "nan"],
    ["content", "--equation", "chi_plus", "--mass", "7"],
    ["report", "--equation", "weyl_plus", "--kappa", "2"],
    ["report", "--equation", "weyl_plus", "--mass", "7"],
    ["report", "--equation", "flat_plus", "--corrupt-reduction"],
    ["content", "--equation", "weyl_plus", "--corrupt-reduction"],
    ["report", "--equation", "chi_plus", "--element", "P9"],
    ["report", "--equation", "chi_plus", "--element", "P9", "--format", "md"],
])
def test_unread_flag_empty_selection_or_bad_value_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


# every subcommand but report, one subject each (flat and V2 read --mass)
SUBCOMMANDS = [["verify-all"], ["algebra", "--generators", "flat"],
               ["transform", "--name", "V2"], ["position", "--name", "XW"],
               ["content", "--equation", "chi_plus"]]


def test_config_fields_are_the_only_flags(capsys):
    assert {f.name for f in dataclasses.fields(RunConfig)} == {
        "seed", "samples", "mass", "kappa", "corrupt_reduction"}
    for argv in SUBCOMMANDS + [["report", "--equation", "chi_plus"]]:
        for flag in (["--tol", "1e-9"], ["--holdout", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2, argv + flag
            assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, param, reader", [
    ("--mass", "m", "flat_plus"), ("--kappa", "kappa", "desitter")])
def test_negative_mass_or_kappa_exits_2_with_one_error_line(flag, param,
                                                            reader, capsys):
    with pytest.raises(ValueError, match="non-negative"):
        catalog_equation(reader, **{param: -1.0})
    for argv in SUBCOMMANDS + [["report", "--equation", reader]]:
        assert main(argv + [flag, "-1"]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    # argparse reads -1e-300 as a missing argument: a usage error as well
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", flag, "-1e-300"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_swallowed_nan_fails_and_never_prints_invalid_json(capsys):
    argv = ["transform", "--name", "V2", "--mass", "1e200"]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "failing checks: " in err and "transform/V2" in err
        assert main(argv + ["--format", "md"]) == 1
    out, err = capsys.readouterr()
    assert "failing checks: " in err and "transform/V2" in err
    assert "| transform/V2 | nan | 1e-09 | false |" in out
    assert "| true |" not in out


@pytest.mark.parametrize("argv", [
    ["verify-all", "--kappa", "1e308"], ["verify-all", "--kappa", "1e200"],
    ["verify-all", "--mass", "3e150", "--kappa", "1e160"],
    ["verify-all", "--mass", "1e200"],
    ["algebra", "--generators", "flat", "--mass", "1e160"],
    ["report", "--equation", "dirac_massive", "--mass", "1e200"]])
def test_overflowing_parameters_exit_2_without_a_traceback(argv, capsys):
    # desitter's mass_sq = kappa^2 overflows to inf, not to an OverflowError.
    # The suite raises numpy's RuntimeWarnings as errors, as CI's determinism
    # step does: the first one is an error line
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    if argv[0] != "report":         # report prints its NaN residuals
        # with the warnings ignored, the NaN residuals have no JSON form
        with np.errstate(all="ignore"):
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: nan has no JSON form"


def test_report_reads_the_parameter_of_its_equation(capsys):
    assert main(["report", "--equation", "flat_plus", "--mass", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["equation"] == "flat_plus"


def test_content_of_corrupted_reduction_fails_in_one_line(capsys):
    assert main(["content", "--equation", "chi_plus",
                 "--corrupt-reduction"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("content not invariant:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "md"])
@pytest.mark.parametrize("equation", ["chi_plus", "chi_minus"])
def test_report_of_the_corrupted_reduction_disagrees(capsys, equation, fmt):
    # the negative control keeps chi_+-'s breaking label, which the
    # corrupted Hamiltonian's verdicts no longer follow
    assert main(["report", "--equation", equation, "--corrupt-reduction",
                 "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["agreement"] is False
    else:
        assert "agreement: false" in out


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_report_exits_1_on_incoherent_classification(monkeypatch, capsys, fmt):
    import dataclasses
    import spinorlab.cli as cli
    classify = cli.classify_equation
    monkeypatch.setattr(cli, "classify_equation", lambda *a, **k: (
        dataclasses.replace(classify(*a, **k), agreement=True,
                            coherence_ok=False)))
    assert main(["report", "--equation", "weyl_plus", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
        assert doc["agreement"] is True and doc["coherence_ok"] is False
        assert doc["claims_checked"] > 0
    else:
        assert "agreement: true" in out and "coherence: false" in out


def _rows_and_rest(md):
    """The element rows of a report's markdown, and its other lines."""
    lines = md.splitlines()
    rows = [x for x in lines[4:] if x.startswith("| ")]
    return rows, [x for x in lines if x not in rows]


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_report_element_narrows_both_formats(capsys, fmt):
    argv = ["report", "--equation", "chi_plus", "--format", fmt]
    assert main(argv) == 0
    full = capsys.readouterr().out
    assert main(argv + ["--element", "C*P3"]) == 0
    one = capsys.readouterr().out
    if fmt == "json":
        full, one = json.loads(full), json.loads(one)
        want = [e for e in full.pop("elements") if e["label"] == "P3*C"]
        assert one.pop("elements") == want and len(want) == 1
        assert one == full          # agreement, claims_checked, coherence_ok
    else:
        rows, rest = _rows_and_rest(one)
        full_rows, full_rest = _rows_and_rest(full)
        assert len(full_rows) == 32
        assert rows == [x for x in full_rows if x.startswith("| P3*C |")]
        assert len(rows) == 1 and rest == full_rest


def test_report_element_keeps_the_exit_code_of_the_group(monkeypatch,
                                                        capsys):
    import dataclasses
    import spinorlab.cli as cli
    classify = cli.classify_equation
    monkeypatch.setattr(cli, "classify_equation", lambda *a, **k: (
        dataclasses.replace(classify(*a, **k), coherence_ok=False)))
    assert main(["report", "--equation", "weyl_plus", "--element", "T1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [e["label"] for e in doc["elements"]] == ["T1"]
    assert doc["coherence_ok"] is False and doc["claims_checked"] == 32


@pytest.mark.parametrize("seed", ["42", "5", "7"])
@pytest.mark.parametrize("equation, flag", [
    ("flat_plus", "--mass"), ("flat_minus", "--mass"), ("desitter", "--kappa"),
    ("kappa_plus", "--kappa"), ("kappa_minus", "--kappa"),
    ("dirac_massive", "--mass"), ("hprime", "--mass"),
    ("spinless_plus", "--mass"), ("spinless_minus", "--mass")])
def test_report_at_parameter_zero_reads_its_group(capsys, equation, flag,
                                                  seed):
    # flat_+-, desitter and kappa_+- become fully invariant; the others keep
    # the group of their default parameter
    assert main(["report", "--equation", equation, flag, "0",
                 "--seed", seed]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True
    assert doc["claims_checked"] == len(doc["elements"])
    want = kept(catalog_equation(equation))
    if equation in ("flat_plus", "flat_minus", "desitter", "kappa_plus",
                    "kappa_minus"):
        want = [(label, True) for label, _ in want]
    assert [(e["label"], e["invariant"]) for e in doc["elements"]] == want


# the equations whose construction reads each parameter flag
READERS = {
    "mass": {"flat_plus", "flat_minus", "dirac_massive", "hprime",
             "spinless_plus", "spinless_minus"},
    "kappa": {"desitter", "kappa_plus", "kappa_minus"},
    "corrupt_reduction": {"chi_plus", "chi_minus"},
}
FLAGS = {"mass": ["--mass", "2"], "kappa": ["--kappa", "2"],
         "corrupt_reduction": ["--corrupt-reduction"]}


@pytest.mark.parametrize("field", sorted(FLAGS))
@pytest.mark.parametrize("command, equation",
                         [("report", e) for e in EQUATION_NAMES]
                         + [("content", e) for e in sorted(CONTENT_SETS)])
def test_parameter_flag_exits_2_exactly_when_its_equation_does_not_read_it(
        capsys, command, equation, field):
    code = main([command, "--equation", equation, *FLAGS[field]])
    out = capsys.readouterr().out
    assert (code == 2) == (equation not in READERS[field])
    assert code != 2 or out == ""


def _run(argv):
    """main(argv) in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(EQUATION_NAMES),
       st.sampled_from(["0", "1e-12", "1e-9", "1e-6", "1e-3", "1", "1e3",
                        "1e6"]),
       st.sampled_from(["42", "5", "7"]))
@example("flat_plus", "1e6", "42")
@example("desitter", "1e-3", "42")
@example("kappa_plus", "1e-3", "42")
def test_report_exit_code_is_the_verdict_of_its_document(equation, value,
                                                         seed):
    # a parametrised equation takes the drawn mass or kappa, the others run
    # at their defaults: exit 0 when every element is decided and the
    # report passes, 3 when it passes but some element is undecided (null),
    # 1 on a disagreement or incoherence; JSON and markdown exit alike
    flag = [f"--{f}" for f in ("mass", "kappa") if equation in READERS[f]]
    argv = ["report", "--equation", equation, "--seed", seed,
            *(flag + [value] if flag else [])]
    code, out = _run(argv)
    assert code in (0, 1, 3)
    doc = json.loads(out)
    assert len(doc["elements"]) == doc["claims_checked"]
    undecided = any(e["invariant"] is None for e in doc["elements"])
    passes = doc["agreement"] and doc["coherence_ok"]
    assert (code == 0) == (not undecided and passes)
    assert (code == 3) == (undecided and passes)
    assert _run(argv + ["--format", "md"])[0] == code


@pytest.mark.parametrize("equation, flag, value, undecided", [
    ("flat_plus", "--mass", "1e6", 8), ("desitter", "--kappa", "1e-3", 32),
    ("kappa_plus", "--kappa", "1e-3", 16)])
def test_an_undecided_element_is_a_row_not_an_abort(capsys, equation, flag,
                                                    value, undecided):
    # the elements the equation's breaking label keeps are decided and
    # right; exactly the others are undecided, each row with its reason
    assert main(["report", "--equation", equation, flag, value]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True and doc["coherence_ok"] is True
    want = kept(catalog_equation(equation))
    assert [e["label"] for e in doc["elements"]] == [x for x, _ in want]
    for e, (label, invariant) in zip(doc["elements"], want):
        assert e["invariant"] is (invariant or None), label
        assert ("reason" in e) == (not invariant), label
        assert (e["matrix"] is None) != invariant, label
    assert sum(not invariant for _, invariant in want) == undecided
    assert main(["report", "--equation", equation, flag, value,
                 "--format", "md"]) == 3
    md = capsys.readouterr().out
    assert md.count(" | null | ") == undecided


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_a_disagreement_beside_an_undecided_element_exits_1(monkeypatch,
                                                            capsys, fmt):
    # flat_plus at m = 1e6 leaves half its group undecided; a breaking
    # label that P1 breaks as well makes the decided P1*T2 disagree
    import spinorlab.cli as cli
    catalog = cli.eqs.catalog_equation
    monkeypatch.setattr(cli.eqs, "catalog_equation", lambda *a, **k: (
        dataclasses.replace(catalog(*a, **k), breaks="P1")))
    assert main(["report", "--equation", "flat_plus", "--mass", "1e6",
                 "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
        assert doc["agreement"] is False
        assert any(e["invariant"] is None for e in doc["elements"])
    else:
        assert "agreement: false" in out and " | null | " in out
