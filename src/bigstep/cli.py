"""Command-line front end.

Structured documents go to stdout, one JSON object per line; diagnostics
go to stderr.  Exit codes: 0 converged/passed, 2 wrong or stuck, 3
divergence, 4 out of fuel or over the corules cap, 5 audit violations,
1 usage or parse errors, an unreadable input file, input too deep, or
stdout closed before every document was written (as by ``| head``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import extensions as ext
from .inference import (
    UniverseOverflow,
    interp_coinductive,
    interp_corules,
    reachable_universe,
)
from .maxelem import MaxElem, maxelem_gis
from .parsing import ParseError
from .pet import Diverges, run_history
from .predicates import soundness_may_audit, soundness_must_audit
from .rational import RationalList
from .serialize import report_doc, tree_doc, value_doc
from .util import EMPTY_MAP
from .lam import (
    LambdaTypeError,
    lambda_semantics,
    lambda_type_predicate,
    fool_predicate,
    parse_expr,
    show_expr,
    show_type,
    typecheck,
    typed_corpus,
)
from .lam.corpus import FOOL_TERM
from .lam.semantics import STRATEGIES
from .lam.syntax import Nat, Succ
from .fj import (
    EMPTY_MEMORY,
    EnvConfig,
    FJTypeError,
    IMP_TABLE,
    INTEROP_TABLE,
    MemConfig,
    TABLES,
    class_table_wf,
    fj_indexed_predicate,
    fj_semantics,
    fj_typecheck,
    fj_typed_corpus,
    impfj_indexed_predicate,
    impfj_semantics,
    impfj_typecheck,
    impfj_typed_corpus,
    parse_class_table,
    parse_fj_expr,
    show_fj,
)

EXIT_OK = 0
EXIT_WRONG = 2
EXIT_DIVERGES = 3
EXIT_TIMEOUT = 4
EXIT_AUDIT = 5
EXIT_USAGE = 1


class _UsageError(Exception):
    """A bad input file, class table or goal; ``main`` prints it, exit 1."""


def _parse_input(parse, text: str):
    """``text`` parsed as source or, if it does not parse, the file it names."""
    try:
        return parse(text)
    except ParseError:
        if not os.path.isfile(text):
            raise
    try:
        with open(text, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _UsageError(f"cannot read {text}: {err}")
    return parse(source)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _load_table(args):
    """The class table of an fj or impfj command; lambda has none."""
    if args.lang == "lambda":
        return None
    if args.table is None:
        return INTEROP_TABLE if args.lang == "fj" else IMP_TABLE
    if args.table in TABLES:
        return TABLES[args.table]
    table = _parse_input(parse_class_table, args.table)
    problems = class_table_wf(table)
    if problems:
        raise _UsageError("\n".join(f"class table: {p}" for p in problems))
    return table


def _parse_config(lang: str, text: str):
    if lang == "lambda":
        return _parse_input(parse_expr, text)
    expr = _parse_input(parse_fj_expr, text)
    if lang == "fj":
        return EnvConfig(EMPTY_MAP, expr)
    return MemConfig(EMPTY_MEMORY, expr)


def _semantics(lang: str, strategy: str, table):
    if lang == "lambda":
        return lambda_semantics(strategy)
    if lang == "fj":
        return fj_semantics(table)
    return impfj_semantics(table)


_KIND_EXIT = {"ok": EXIT_OK, "wrong": EXIT_WRONG, "stuck": EXIT_WRONG,
              "infinity": EXIT_DIVERGES, "timeout": EXIT_TIMEOUT}


def _exit_for(docs) -> int:
    kinds = {d["kind"] for d in docs}
    for kind in ("wrong", "stuck", "infinity", "timeout"):
        if kind in kinds:
            return _KIND_EXIT[kind]
    return EXIT_OK


def cmd_eval(args) -> int:
    sem = _semantics(args.lang, args.strategy, _load_table(args))
    config = _parse_config(args.lang, args.input)
    # every distinct document once, in the order the run first produces it;
    # a diverging branch's document carries that branch's certificate
    docs = {}
    for outcome, value in ext.evaluate(sem, config, args.fuel, args.mode,
                                       args.exhaustive):
        cert = outcome.certificate if isinstance(outcome, Diverges) else None
        doc = value_doc(sem, value, certificate=cert)
        docs.setdefault(json.dumps(doc), doc)
    for text in docs:
        sys.stdout.write(text + "\n")
    return _exit_for(docs.values())


def cmd_step(args) -> int:
    sem = _semantics(args.lang, "app", _load_table(args))
    config = _parse_config(args.lang, args.input)
    history, outcome = run_history(sem, config, args.max_steps)
    for t in history[1:]:  # one document per transition taken
        _emit(tree_doc(sem, t))
    return _exit_for([value_doc(sem, outcome)])


def cmd_typecheck(args) -> int:
    table = _load_table(args)
    expr = _parse_input(parse_expr if args.lang == "lambda" else parse_fj_expr,
                        args.input)
    try:
        if args.lang == "lambda":
            _emit({"type": show_type(typecheck({}, expr))})
        elif args.lang == "fj":
            _emit({"type": fj_typecheck(table, {}, expr)})
        else:
            _emit({"type": impfj_typecheck(table, {}, (), expr)})
    except (LambdaTypeError, FJTypeError) as err:
        _emit({"error": str(err)})
        return EXIT_WRONG
    return EXIT_OK


def _soundness_setup(args):
    table = _load_table(args)
    if args.lang == "lambda":
        if args.fixture == "dropped-succ":
            return (lambda_semantics(drop_succ=True), lambda_type_predicate(),
                    [Succ(Nat(2))], show_expr)
        if args.fixture == "fool":
            return lambda_semantics(), fool_predicate(), [FOOL_TERM], show_expr
        return (lambda_semantics(), lambda_type_predicate(),
                typed_corpus(args.depth), show_expr)
    if args.lang == "fj":
        return (fj_semantics(table), fj_indexed_predicate(table),
                fj_typed_corpus(table, args.depth), show_fj)
    return (impfj_semantics(table), impfj_indexed_predicate(table),
            impfj_typed_corpus(table, args.depth), show_fj)


def cmd_soundness(args) -> int:
    sem, pred, corpus, show = _soundness_setup(args)
    audit = soundness_must_audit if args.flavor == "must" else soundness_may_audit
    report = audit(sem, pred, corpus, args.fuel)
    _emit(report_doc(report, show=show))
    stats = " ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    print(f"audited {stats}", file=sys.stderr)
    if report.violations:
        width = max(len(v.condition.value) for v in report.violations)
        for v in report.violations:
            where = "" if v.rule_family is None else \
                f"  [{v.rule_family} premise {v.premise_index}]"
            print(f"  {v.condition.value:<{width}}  {show(v.config)}{where}",
                  file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_AUDIT


def _parse_maxelem_goal(goal: str):
    # list=value with list like 1:2:(1:2)* or 1:2:nil or (1:2)*; every item
    # and the value are naturals, and one ':' separates the prefix from the
    # period or nil
    try:
        lst, value = goal.rsplit("=", 1)
        lst = lst.strip()
        period: tuple = ()
        ended = lst.endswith(")*") or lst.endswith("nil")
        if lst.endswith(")*"):
            lst, paren = lst[:-2].rsplit("(", 1)
            period = tuple(int(x) for x in paren.split(":"))
        elif ended:
            lst = lst[:-len("nil")]
        if ended and lst:
            if not lst.endswith(":"):
                raise ValueError(f"no ':' after the prefix {lst!r}")
            lst = lst[:-1]
        prefix = tuple(int(x) for x in lst.split(":")) if lst else ()
        value = int(value.strip())
        least = min(prefix + period + (value,))
        if least < 0:
            raise ValueError(f"{least} is not a natural number")
        return MaxElem(RationalList(prefix, period), value)
    except (ValueError, IndexError) as err:
        raise _UsageError(f"bad goal {goal!r}: {err}")


def cmd_corules(args) -> int:
    goal = _parse_maxelem_goal(args.goal)
    gis = maxelem_gis()
    try:
        universe = reachable_universe(gis.combined(), {goal}, cap=args.cap)
    except UniverseOverflow as err:  # the cap bounds exploration as fuel does
        print(err, file=sys.stderr)
        return EXIT_TIMEOUT
    with_corules = goal in interp_corules(gis, universe)
    plain_coinductive = goal in interp_coinductive(gis.rules, universe)
    _emit({
        "goal": repr(goal),
        "universe": len(universe),
        "corules": with_corules,
        "coinductive": plain_coinductive,
    })
    return EXIT_OK if with_corules else EXIT_WRONG


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on usage errors, which here means wrong or stuck
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p) -> None:
    p.add_argument("--lang", choices=("lambda", "fj", "impfj"), default="lambda")
    p.add_argument("--table",
                   help="fj/impfj class table: file path or builtin name")


def main(argv=None) -> int:
    try:
        fuel_default = int(os.environ.get("BSM_FUEL", "100"))
    except ValueError:
        print("BSM_FUEL must be an integer", file=sys.stderr)
        return EXIT_USAGE
    top = _ArgumentParser(prog="bsm", description="big-step semantics workbench")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a configuration")
    _add_common(p)
    p.add_argument("--fuel", type=int, default=fuel_default,
                   help="transitions per branch")
    p.add_argument("--mode", choices=("plain", "wrong", "div", "trace", "total"),
                   default="plain")
    p.add_argument("--strategy", choices=STRATEGIES, default="app",
                   help="premise order, lambda only; fj and impfj ignore it")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("input", help="source text, or a file path if it does not parse")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("step", help="print the transition sequence")
    _add_common(p)
    p.add_argument("--max-steps", type=int, default=fuel_default, help="transitions")
    p.add_argument("input")
    p.set_defaults(fn=cmd_step)

    p = sub.add_parser("typecheck", help="typecheck an expression")
    _add_common(p)
    p.add_argument("input")
    p.set_defaults(fn=cmd_typecheck)

    soundness = p = sub.add_parser("soundness", help="run a soundness audit")
    _add_common(p)
    p.add_argument("--fuel", type=int, default=fuel_default,
                   help="oracle queries per member, pooled over the corpus")
    p.add_argument("--flavor", choices=("must", "may"), default="must")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--fixture", choices=("default", "dropped-succ", "fool"),
                   default="default")
    p.set_defaults(fn=cmd_soundness)

    p = sub.add_parser("corules", help="maxElem corules demo")
    p.add_argument("--goal", required=True,
                   help="e.g. '(1:2)*=2', '1:2:nil=2', '1:2:(1:2)*=2'")
    p.add_argument("--cap", type=int, default=1000,
                   help="judgments in the premise closure")
    p.set_defaults(fn=cmd_corules)

    args = top.parse_args(argv)
    if getattr(args, "fixture", "default") != "default" and args.lang != "lambda":
        soundness.error("--fixture applies only to --lang lambda")
    for name in ("fuel", "max_steps", "depth", "cap"):
        if getattr(args, name, 1) <= 0:
            print(f"{name.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a reader gone early fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is left, and the interpreter's
        # last flush, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("stdout closed early", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("input too deep", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
