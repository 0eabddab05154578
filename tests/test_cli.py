import random

import pytest

from pisupport.cli import run_command
from pisupport.library import klein_truncation
from pisupport.modfile import emit_module_file, parse_module_file
from pisupport.reps import make_spec

from conftest import _dense_full_support, _record_testers


def run(*argv):
    return run_command(list(argv))


def test_check_library_name():
    code, out, err = run("check", "klein-M2")
    assert code == 0 and "ok" in out and err == ""


def test_check_bad_file(tmp_path):
    path = tmp_path / "bad.mod"
    path.write_text("format: modrep/1\nnope\n")
    code, out, err = run("check", str(path))
    assert code == 3
    assert err.startswith("error: ModuleFileSyntaxError")


def test_check_missing_file():
    code, out, err = run("check", "no/such/file.mod")
    assert code == 3 and "FileNotFoundError" in err


def test_jordan_point():
    code, out, err = run("jordan", "klein-M2", "--point", "0,1")
    assert code == 0 and out.strip() == "[2,1,1]"


def test_jordan_generic():
    code, out, err = run("jordan", "klein-M2", "--generic")
    assert code == 0 and out.strip() == "[2,2]"


def test_jordan_extension_point():
    code, out, err = run("jordan", "klein-M2", "--point", "[0,1],[1,0]")
    assert code == 0 and out.strip() == "[2,2]"


def test_jordan_library_free():
    code, out, err = run("jordan", "free:1", "--p", "3", "--r", "1",
                         "--point", "1")
    assert code == 0 and out.strip() == "[3]"


def test_support_command():
    code, out, err = run("support", "klein-M2", "--sample-degree", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert "point [0:1] in" in lines
    assert "generic out" in lines


def test_support_ideal_flag():
    code, out, err = run("support", "klein-M2", "--ideal")
    assert code == 0 and "ideal-generator s1^2" in out


def test_support_ideal_everything():
    code, out, err = run("support", "trivial", "--ideal", "--p", "2", "--r", "2")
    assert code == 0 and "ideal everything" in out


def test_cosupport_point():
    code, out, err = run("cosupport", "klein-M2", "--point", "0,1")
    assert code == 0 and out.strip() == "point [0:1] in"


def test_cosupport_generic_notes_fallback():
    code, out, err = run("cosupport", "klein-M2", "--generic")
    assert code == 0 and out.startswith("generic out")
    assert "via support" in out


def test_is_projective():
    code, out, err = run("is-projective", "free:3", "--p", "2", "--r", "2")
    assert (code, out.strip()) == (0, "true")
    code, out, err = run("is-projective", "klein-M2")
    assert (code, out.strip()) == (0, "false")


def test_tensor_hom_dual_write_files(tmp_path):
    m2 = tmp_path / "m2.mod"
    m2.write_text(emit_module_file(klein_truncation(2)))
    out_path = tmp_path / "t.mod"
    code, out, err = run("tensor", str(m2), str(m2), "-o", str(out_path))
    assert code == 0 and out_path.exists()
    t = parse_module_file(out_path.read_text())
    assert t.n == 16

    code, out, err = run("hom", str(m2), "klein-M3", "-o", str(tmp_path / "h.mod"))
    assert code == 0
    h = parse_module_file((tmp_path / "h.mod").read_text())
    assert h.n == 4 * 6

    code, out, err = run("dual", str(m2), "-o", str(tmp_path / "d.mod"))
    assert code == 0
    d = parse_module_file((tmp_path / "d.mod").read_text())
    assert d.n == 4


def test_verify_exit_zero_and_deterministic():
    argv = ["verify", "--suite", "flat", "--trials", "5", "--seed", "3"]
    code1, out1, err1 = run(*argv)
    code2, out2, err2 = run(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "RESULT: PASS" in out1


def test_verify_all_suites_small():
    code, out, err = run("verify", "--trials", "3", "--seed", "2")
    assert code == 0
    for name in ("dade", "tensor", "hom", "endo", "flat", "perturb"):
        assert f"suite {name}:" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(trials):
    code, out, err = run("verify", "--trials", trials)
    assert code == 3 and out == ""
    assert err == "error: ValueError: --trials must be >= 1\n"


def test_demo_klein():
    code, out, err = run("demo", "klein", "--n", "2")
    assert code == 0
    assert "support = {[0:1]}" in out
    assert "expected (infinite module)" in out
    assert "DISAGREE" not in out


def test_demo_deterministic():
    a = run("demo", "klein", "--n", "1")
    b = run("demo", "klein", "--n", "1")
    assert a == b


def test_usage_error_exit_two():
    code, out, err = run("jordan", "klein-M2")  # neither --point nor --generic
    assert code == 2 and "UsageError" in err


def test_input_error_exit_three():
    code, out, err = run("jordan", "klein-M2", "--point", "0,0")
    assert code == 3 and "AllCoefficientsZero" in err


def _dense_full_support_file(tmp_path, p, r, g):
    """A module file of conftest._dense_full_support(spec, g): one block,
    in the support at every point, the generic point included."""
    mod = _dense_full_support(make_spec(p, r), g, random.Random(f"dense:{p}:{r}:{g}"))
    path = tmp_path / f"dense_p{p}_r{r}_g{g}.mod"
    path.write_text(emit_module_file(mod))
    return str(path)


def test_support_generic_degree_cap_fails_before_sampling(monkeypatch, tmp_path):
    # trivial^2 + free:2 in a dense basis is one block of dimension 10, in
    # at every sampled point, and its generic scan needs F_{2^3}, past a cap
    # of 2: the cap fires after the sample and before any scan point
    from pisupport import fields

    path = _dense_full_support_file(tmp_path, 2, 2, 2)
    with monkeypatch.context() as m:
        m.setattr(fields, "MAX_EXTENSION_DEGREE", 2)
        built = _record_testers(m)
        code, out, err = run("support", path, "--sample-degree", "1")
    assert code == 3 and out == ""
    assert err == ("error: BudgetExceeded: generic scan needs extension "
                   "degree 3 over F_2, past the cap 2\n")
    assert built == [None]  # the sample over F_2, and no tester of the scan
    # free:128 (n = 512, whose whole scan would need F_{2^9}) is 128 blocks
    # of dimension 4, each decided over F_4: the first point of P^1(F_2) is
    # out of the support, so the generic point is out
    code, out, err = run("support", "free:128")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "generic out"


def test_support_of_one_free_block_past_the_budget_fails_before_sampling(
        monkeypatch, tmp_path):
    # free:1 at p = 2, r = 5 is one free block of dimension 32, whose
    # generic scan of P^4(F_{2^5}) would visit 31 + 1082401 tuples: the
    # Nakayama test of free blocks finds it free, so every point is out
    # with no rank, and the sample puts the generic point out with no scan
    built = _record_testers(monkeypatch)
    code, out, err = run("support", "free:1", "--p", "2", "--r", "5",
                         "--sample-degree", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "generic out"
    assert built == [None]
    # trivial^2 + free:1 in a dense basis is one block of dimension 34, in
    # at every sampled point, with a plan over the same fields: the guard
    # fails the call after the sample and before the first scan point
    built.clear()
    code, out, err = run("support", _dense_full_support_file(tmp_path, 2, 5, 1),
                         "--sample-degree", "1")
    assert code == 3 and out == ""
    assert err == ("error: BudgetExceeded: generic scan of 1082432 points "
                   "exceeds budget 200000\n")
    assert built == [None]


def test_internal_error_exit_four(monkeypatch):
    from pisupport import cli

    def broken(args, out):
        raise AssertionError("rank not a multiple of the degree")

    monkeypatch.setitem(cli._COMMANDS, "check", broken)
    code, out, err = run("check", "klein-M2")
    assert code == 4 and out == ""
    assert err == ("error: InternalError: AssertionError: "
                   "rank not a multiple of the degree\n")


def test_flat_suite_records_certificate_failures(monkeypatch):
    from pisupport import pipoints
    from pisupport.verify import verify_suites

    monkeypatch.setattr(pipoints, "flatness_certificate",
                        lambda spec, K, linear, higher: False)
    code, lines = verify_suites(1, 2, 2, 2, suite="flat")
    assert code == 1
    assert "suite flat: 2 passed, 2 failed" in lines
    failures = [line for line in lines if line.startswith("counterexample")]
    assert [line.split(":")[0] for line in failures] == [
        "counterexample trial=0", "counterexample trial=1"]
    assert all("failed its certificate" in line for line in failures)
    assert lines[-1] == "RESULT: FAIL (1 suites, 2 failures)"


FORMULAS = ["tensor", "hom"]


@pytest.mark.parametrize("suite", FORMULAS)
def test_formula_suites_build_each_product_once(suite, monkeypatch):
    from pisupport import reps
    from pisupport.verify import verify_suites

    built = []
    construct = getattr(reps, suite)

    def counted(m, n):
        built.append(construct(m, n))
        return built[-1]

    monkeypatch.setattr(reps, suite, counted)
    code, lines = verify_suites(1, 3, 2, 2, suite=suite)
    assert code == 0 and f"suite {suite}: 3 passed, 0 failed" in lines
    assert len(built) == 3


@pytest.mark.parametrize("suite", FORMULAS)
def test_failing_formula_trial_records_the_module_it_checked(suite):
    # each trial is forced to fail at the generic point; its counterexample
    # is the module file of the report's own tensor or Hom module
    import dataclasses
    import random

    from pisupport import reps, support
    from pisupport.verify import _suite_formula

    check = getattr(support, f"verify_{suite}_formula")
    reports = []

    def failing(m, n, e_max):
        rep = check(m, n, e_max)
        assert list(rep.module.Z) == list(getattr(reps, suite)(m, n).Z)
        reports.append(dataclasses.replace(rep, generic_lhs=not rep.generic_rhs))
        return reports[-1]

    res = _suite_formula(suite, failing)(random.Random("forced"), reps.make_spec(2, 2), 2)
    assert (res.passed, res.failed) == (0, 2)
    assert res.counterexamples == [
        (trial, f"mismatch at {rep.mismatches()}", emit_module_file(rep.module))
        for trial, rep in enumerate(reports)]
    assert all(rep.mismatches()[-1] == "generic" for rep in reports)


def test_counterexample_replay_format(tmp_path):
    # the mechanism: a failing trial serializes its module; replaying the file
    # reproduces the same verdicts
    from pisupport.verify import SuiteResult

    m = klein_truncation(2)
    res = SuiteResult("dade")
    res.record(7, False, "synthetic failure", m)
    lines = res.lines()
    assert lines[0] == "suite dade: 0 passed, 1 failed"
    assert lines[1].startswith("counterexample trial=7")
    text = "\n".join(lines[2:]) + "\n"
    replayed = parse_module_file(text)
    assert list(replayed.Z) == list(m.Z)
