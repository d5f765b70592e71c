"""Command-line interface: documents, exit codes, round trips."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bigstep.cli import main
from bigstep.extensions import divergence_certificate_check
from bigstep.lam import OMEGA, lambda_semantics, parse_expr, show_expr
from bigstep.pet import DivergenceCertificate

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    docs = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, docs, captured.err


def test_eval_ok(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--mode", "total", "(\\x:nat.x) 3")
    assert code == 0
    assert docs == [{"kind": "ok", "result": "3"}]


def test_eval_wrong_exit_code(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--mode", "total", "0 0")
    assert code == 2
    assert docs[0]["kind"] == "wrong"


def test_eval_omega_trace(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--mode", "trace", "omega")
    assert code == 3
    doc = docs[0]
    assert doc["kind"] == "infinity"
    assert doc["trace"]["prefix"] == []
    assert len(doc["trace"]["period"]) == 3
    assert doc["trace"]["period"][1] == doc["trace"]["period"][2]


def test_eval_timeout_exit(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--fuel", "3", "omega")
    assert code == 4
    assert docs[0]["kind"] == "timeout"


def test_eval_exhaustive_choice(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--exhaustive", "1 (+) 2")
    assert code == 0
    assert {d["result"] for d in docs} == {"1", "2"}


def test_step_emits_seven_documents_for_identity_application(capsys):
    code, docs, _ = run_cli(capsys, "step", "--lang", "lambda",
                            "--max-steps", "10", "(\\x:nat.x) 3")
    assert code == 0
    assert len(docs) == 7
    assert docs[-1]["result"] == "3"
    assert docs[0]["children"][0]["result"] == "?"
    for doc in docs:
        assert set(doc) == {"config", "result", "rule", "children"}


def test_typecheck_lambda(capsys):
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "lambda",
                            "\\x:nat. succ x")
    assert code == 0 and docs == [{"type": "nat -> nat"}]
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "lambda", "0 0")
    assert code == 2 and "error" in docs[0]


def test_typecheck_fj_goldens(capsys):
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "fj",
                            "new C(<I>\\x. x)")
    assert code == 0 and docs == [{"type": "C"}]
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "fj", "new C(\\x. x)")
    assert code == 2


@pytest.mark.parametrize("term, code, doc", [
    ("new B(new A()).get()", 0, {"type": "A"}),
    ("new B(new A()).f = new A()", 0, {"type": "A"}),
    ("new A().get()", 2, {"error": "[t-invk] A has no method get"}),
    ("new B(new B(new A()))", 2, {"error": "[t-sub] B not below A"}),
])
def test_typecheck_impfj_goldens(capsys, term, code, doc):
    assert run_cli(capsys, "typecheck", "--lang", "impfj", term)[:2] == (code, [doc])


def test_eval_fj_and_impfj(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "fj", "new C(<I>\\x. x)")
    assert code == 0 and docs[0]["result"] == "obj C(\\x. x)"
    code, docs, _ = run_cli(capsys, "eval", "--lang", "impfj",
                            "new B(new A()).test()")
    assert code == 0 and docs[0]["result"].endswith("#2>")


def test_soundness_fixtures(capsys):
    code, docs, _ = run_cli(capsys, "soundness", "--lang", "lambda",
                            "--fixture", "fool", "--fuel", "50")
    assert code == 5
    violation = docs[0]["violations"][0]
    assert violation["condition"] == "forall-progress"
    assert violation["premise"] == 1

    code, docs, _ = run_cli(capsys, "soundness", "--lang", "lambda",
                            "--fixture", "dropped-succ", "--fuel", "50")
    assert code == 5
    assert docs[0]["violations"][0]["condition"] == "exists-progress"

    code, docs, _ = run_cli(capsys, "soundness", "--lang", "lambda",
                            "--depth", "2", "--fuel", "100")
    assert code == 0
    assert docs[0]["violations"] == []


def test_corules_demo(capsys):
    code, docs, _ = run_cli(capsys, "corules", "--goal", "(1:2)*=2")
    assert code == 0 and docs[0]["corules"] and docs[0]["coinductive"]
    code, docs, _ = run_cli(capsys, "corules", "--goal", "(1:2)*=5")
    assert code == 2 and not docs[0]["corules"] and docs[0]["coinductive"]
    code, docs, _ = run_cli(capsys, "corules", "--goal", "1:2:nil=2")
    assert code == 0


def test_corules_over_ten_thousand_judgments(capsys):
    # quadratic fixpoints took about a minute on this goal
    goal = "(" + ":".join(map(str, range(100))) + ")*=99"
    code, docs, _ = run_cli(capsys, "corules", "--goal", goal, "--cap", "20000")
    assert code == 0
    assert docs[0]["universe"] == 10000 and docs[0]["corules"] is True


def test_parse_error_exit(capsys):
    code, _, err = run_cli(capsys, "eval", "--lang", "lambda", "succ )")
    assert code == 1
    assert "parse error" in err


def test_file_input(tmp_path, capsys):
    f = tmp_path / "term.lam"
    f.write_text("succ (succ 1)")
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda", str(f))
    assert code == 0 and docs[0]["result"] == "3"


@pytest.mark.parametrize("options", [[], ["--lang", "fj", "--table"]])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, options):
    f = tmp_path / "binary"
    f.write_bytes(b"\x7fELF\x80\xff\x00")
    argv = ["eval", *options, str(f)] + (["new A()"] if options else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {f}: ") and err.count("\n") == 1


def test_ill_formed_table_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "table.fj"
    f.write_text("class A extends Nope {}")
    code, docs, err = run_cli(capsys, "eval", "--lang", "fj", "--table", str(f),
                              "new A()")
    assert (code, docs, err) == (1, [], "class table: A: undeclared supertype Nope\n")


def test_bad_corules_goal_is_a_usage_error(capsys):
    code, docs, err = run_cli(capsys, "corules", "--goal", "garbage")
    assert code == 1 and docs == []
    assert err.startswith("bad goal 'garbage': ") and err.count("\n") == 1


def test_malformed_corules_period_is_a_usage_error(capsys):
    # the period's ')' right before '*', one ':' after the prefix, no empty item
    for goal in ("1:(2*=2", "1(2)*=2", "1::(2)*=2", "(1:2*=2", "(1:2))*=2",
                 "()*=2", "1:2nil=2", "1:2:=2"):
        code, docs, err = run_cli(capsys, "corules", "--goal", goal)
        assert code == 1 and docs == [], goal
        assert err.startswith(f"bad goal {goal!r}: ") and err.count("\n") == 1
    for good, shown in (("(1:2)*=2", "maxElem((1:2)*, 2)"),
                        ("1:2:nil=2", "maxElem(1:2:nil, 2)"),
                        ("1:2:(1:2)*=2", "maxElem((1:2)*, 2)"),
                        ("nil=0", "maxElem(nil, 0)")):
        code, docs, _ = run_cli(capsys, "corules", "--goal", good)
        assert code in (0, 2) and docs[0]["goal"] == shown


def test_negative_corules_goal_is_a_usage_error(capsys):
    # maxElem is over naturals: a negative item or value is no goal at all
    for goal in ("(-1)*=-1", "1:-2:nil=1", "(1:2)*=-1"):
        code, docs, err = run_cli(capsys, "corules", "--goal", goal)
        assert code == 1 and docs == [], goal
        assert err.startswith(f"bad goal {goal!r}: ") and err.count("\n") == 1


def test_closed_stdout_exits_1_without_a_traceback():
    deep = "succ (" * 150 + "0" + ")" * 150
    proc = subprocess.Popen(
        [sys.executable, "-m", "bigstep.cli", "step", "--max-steps", "2000", deep],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout.readline().startswith("{")
    proc.stdout.close()  # the reader goes away with most documents unwritten
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == "stdout closed early\n"


def test_inline_source_is_not_replaced_by_a_file_of_that_name(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "0").write_text("succ 0")
    monkeypatch.chdir(tmp_path)
    code, docs, _ = run_cli(capsys, "eval", "0")
    assert code == 0 and docs == [{"kind": "ok", "result": "0"}]


def test_table_builtin_name_then_inline_declarations(tmp_path, monkeypatch, capsys):
    (tmp_path / "interop").write_text("not a class table")
    monkeypatch.chdir(tmp_path)
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "fj",
                            "--table", "interop", "new C(<I>\\x. x)")
    assert code == 0 and docs == [{"type": "C"}]
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "fj", "--table",
                            "interface P { P id(P x); }", "<P>\\x. x")
    assert code == 0 and docs == [{"type": "P"}]


def test_table_from_file(tmp_path, capsys):
    f = tmp_path / "table.fj"
    f.write_text("""
    interface P { Q id(Q2 x); }
    interface Q {}
    class Q2 {}
    """)
    # table parses but the identity body has type Q2, not the required Q
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "fj",
                            "--table", str(f), "<P>\\x. x")
    assert code == 2
    f2 = tmp_path / "table2.fj"
    f2.write_text("interface P { P id(P x); }")
    code, docs, _ = run_cli(capsys, "typecheck", "--lang", "fj",
                            "--table", str(f2), "<P>\\x. x")
    assert code == 0 and docs == [{"type": "P"}]


def test_env_fuel_default(capsys, monkeypatch):
    monkeypatch.setenv("BSM_FUEL", "2")
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda", "omega")
    assert code == 4


@pytest.mark.parametrize("argv", [("eval", "0"), ("corules", "--goal", "(1:2)*=2")])
def test_non_integer_env_fuel_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("BSM_FUEL", "abc")
    code, docs, err = run_cli(capsys, *argv)
    assert (code, docs) == (1, [])
    assert err.strip() == "BSM_FUEL must be an integer"


def test_nonpositive_fuel_rejected(capsys):
    code, _, err = run_cli(capsys, "eval", "--lang", "lambda", "--fuel", "0", "1")
    assert code == 1 and "positive" in err


OMEGA_TEXT = show_expr(OMEGA)


def _check_certificate(doc):
    """The document's certificate, read back, replays against the oracle."""
    witness = tuple((parse_expr(e["config"]), e["rule"], e["premise"])
                    for e in doc["certificate"])
    assert witness
    cert = DivergenceCertificate(witness, witness[0][0])
    assert divergence_certificate_check(lambda_semantics(), cert, 60).passed


@pytest.mark.parametrize("mode", ["total", "div", "wrong"])
def test_exhaustive_infinity_carries_its_branch_certificate(capsys, mode):
    # the first-strategy run of this term converges to 0, so the
    # certificate must come from the diverging branch itself
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda", "--mode", mode,
                            "--exhaustive", f"0 (+) ({OMEGA_TEXT})")
    assert code == 3
    infinite = [d for d in docs if d["kind"] == "infinity"]
    assert infinite and {"kind": "ok", "result": "0"} in docs
    for doc in infinite:
        _check_certificate(doc)


def test_eval_omega_trace_carries_certificate(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--mode", "trace", "omega")
    assert code == 3
    assert docs[0]["kind"] == "infinity" and "trace" in docs[0]
    _check_certificate(docs[0])


def test_omega_is_known_inside_a_term(capsys):
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda", "--mode", "total",
                            "--exhaustive", "0 (+) omega")
    assert code == 3
    assert {"kind": "ok", "result": "0"} in docs
    infinite = [d for d in docs if d["kind"] == "infinity"]
    assert len(infinite) == 1
    _check_certificate(infinite[0])


def test_too_deep_input_exits_with_usage_error(capsys):
    code, docs, err = run_cli(capsys, "eval", "--lang", "lambda",
                              "(" * 2000 + "0" + ")" * 2000)
    assert code == 1 and docs == []
    assert err.strip() == "input too deep"


@pytest.mark.parametrize("argv", [
    ["eval", "--bogus", "1", "0"],
    ["eval", "--lang", "cobol", "0"],
    ["step", "--fuel", "3", "0"],
    ["typecheck", "--fuel", "3", "0"],
    ["corules", "--demo", "maxelem", "--goal", "(1:2)*=2"],
    ["soundness", "--lang", "fj", "--fixture", "fool"],
    ["soundness", "--lang", "impfj", "--fixture", "dropped-succ"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: bsm" in capsys.readouterr().err


def test_help_names_each_budget(capsys):
    helps = {}
    for command in ("eval", "step"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "--fuel FUEL transitions per branch" in helps["eval"]
    assert "premise order, lambda only; fj and impfj ignore it" in helps["eval"]
    assert "--max-steps MAX_STEPS transitions" in helps["step"]


def test_corules_help_names_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corules", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--cap CAP judgments in the premise closure" in out


def test_nonpositive_cap_rejected(capsys):
    code, docs, err = run_cli(capsys, "corules", "--cap", "0", "--goal", "(1:2)*=2")
    assert code == 1 and docs == []
    assert err.strip() == "cap must be positive"


def test_cap_overflow_exits_4(capsys):
    code, docs, err = run_cli(capsys, "corules", "--cap", "1", "--goal", "(1:2)*=2")
    assert code == 4 and docs == []
    assert err.strip() == "premise closure exceeded cap 1"


def test_exhaustive_eval_emits_each_document_once(capsys):
    # two diverging branches reach the same cycle: in every extended mode but
    # trace they give the same document, which is printed once
    term = f"(\\x:nat.x)((0 (+) ({OMEGA_TEXT})) (+) ({OMEGA_TEXT}))"
    printed = {}
    for mode in ("wrong", "total", "div", "trace"):
        code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda", "--mode",
                                mode, "--exhaustive", term)
        assert code == 3
        printed[mode] = docs
        assert [d["result"] for d in docs if d["kind"] == "ok"] == ["0"]
        for doc in docs:
            if doc["kind"] == "infinity":
                _check_certificate(doc)
    assert printed["wrong"] == printed["total"] == printed["div"]
    assert len(printed["wrong"]) == 2
    # the two infinite traces differ in their prefixes
    assert len(printed["trace"]) == 3


@pytest.mark.parametrize("term, kinds", [
    ("(\\x0:nat. 0) (3 (+) 0)", ["ok"]),
    (f"(\\x:nat.x)((0 (+) ({OMEGA_TEXT})) (+) ({OMEGA_TEXT}))",
     ["infinity", "ok"]),
], ids=["constant-function", "two-branches-one-cycle"])
def test_plain_exhaustive_eval_emits_each_document_once(capsys, term, kinds):
    # branches that differ only inside their trees give equal documents
    code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda",
                            "--exhaustive", term)
    assert code == (3 if "infinity" in kinds else 0)
    assert sorted(d["kind"] for d in docs) == kinds
    assert [d["result"] for d in docs if d["kind"] == "ok"] == ["0"]


def test_distinct_certificates_are_distinct_documents_in_every_mode(capsys):
    # omega and omega with its bound variable renamed diverge through
    # different cycles: two infinity documents, whatever the mode
    renamed = OMEGA_TEXT.replace("x", "y")
    term = f"({OMEGA_TEXT}) (+) ({renamed})"
    printed = {}
    for mode in ("plain", "wrong", "total", "div"):
        code, docs, _ = run_cli(capsys, "eval", "--lang", "lambda", "--mode",
                                mode, "--exhaustive", term)
        assert code == 3
        printed[mode] = docs
    assert (printed["plain"] == printed["wrong"] == printed["total"]
            == printed["div"])
    docs = printed["plain"]
    assert len(docs) == 2 and docs[0] != docs[1]
    for doc in docs:
        assert doc["kind"] == "infinity"
        _check_certificate(doc)


@pytest.mark.parametrize("argv, out", [
    (["eval", "0"], [{"kind": "ok", "result": "0"}]),
    (["step", "0"], [{"config": "0", "result": "0", "rule": "val",
                      "children": []}]),
    (["typecheck", "0"], [{"type": "nat"}]),
], ids=["eval", "step", "typecheck"])
def test_table_is_ignored_by_lambda(capsys, argv, out):
    code, docs, err = run_cli(capsys, argv[0], "--lang", "lambda",
                              "--table", "nosuch", *argv[1:])
    assert (code, docs, err) == (0, out, "")


def test_table_is_ignored_by_lambda_soundness(capsys):
    code, docs, _ = run_cli(capsys, "soundness", "--lang", "lambda",
                            "--table", "nosuch", "--depth", "1", "--fuel", "20")
    assert code == 0 and docs[0]["violations"] == []


def test_table_still_applies_to_fj(capsys):
    code, docs, err = run_cli(capsys, "eval", "--lang", "fj",
                              "--table", "nosuch", "new C(<I>\\x. x)")
    assert code == 1 and docs == [] and "parse error" in err
