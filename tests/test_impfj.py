"""Imperative FJ: memory threading, assignment, typing, divergence."""
import pytest

from bigstep.fj import (
    EMPTY_MEMORY,
    FJTypeError,
    IMP_LOOP_TABLE,
    IMP_TABLE,
    MemConfig,
    MemResult,
    Memory,
    ObjIdRef,
    ObjState,
    class_table_wf,
    impfj_indexed_predicate,
    impfj_semantics,
    impfj_typecheck,
    impfj_typed_corpus,
    memory_sigma,
    memory_well_typed,
    parse_fj_expr,
    show_fj,
)
from bigstep.extensions import divergence_certificate_check
from bigstep.pet import Converged, Diverges, Stuck, run_exhaustive, run_first
from bigstep.predicates import soundness_must_audit
from bigstep.util import FrozenMap

SEM = impfj_semantics(IMP_TABLE)


def _conf(src):
    return MemConfig(EMPTY_MEMORY, parse_fj_expr(src))


def _run(src, fuel=120):
    return run_first(SEM, _conf(src), fuel)


def test_imp_tables_well_formed():
    assert class_table_wf(IMP_TABLE) == ()
    assert class_table_wf(IMP_LOOP_TABLE) == ()


def test_allocation_is_deterministic():
    out = _run("new B(new A())")
    assert isinstance(out, Converged)
    # argument allocates id 0, then the B object takes id 1
    assert out.result == MemResult(
        Memory((ObjState("A", ()), ObjState("B", (0,)))), 1)


def test_assignment_updates_and_returns_new_id():
    # hand-run: new A -> id0, B(id0) -> id1, new A -> id2, update B.f := id2
    out = _run("new B(new A()).f = new A()")
    assert isinstance(out, Converged)
    mem = out.result.memory
    assert out.result.oid == 2
    assert mem.get(1) == ObjState("B", (2,))
    assert mem.get(2) == ObjState("A", ())
    assert len(mem) == 3


def test_update_then_read_through_method():
    # body this.getafter(this.f = new A()) reads the field after the update
    out = _run("new B(new A()).test()")
    assert isinstance(out, Converged)
    assert out.result.oid == 2
    assert out.result.memory.get(1) == ObjState("B", (2,))


def test_field_read_golden():
    out = _run("new B(new A()).f")
    assert isinstance(out, Converged)
    assert out.result.oid == 0


def test_memory_lists_ids_in_numeric_order():
    # twelve objects: a store sorted by key repr listed 10 and 11 before 2
    mem = EMPTY_MEMORY
    for _ in range(12):
        mem, _ = mem.allocate(ObjState("A", ()))
    store = "{" + ", ".join(f"{oid}->A()" for oid in range(12)) + "}"
    assert repr(mem) == store
    assert show_fj(MemResult(mem, 11)) == f"<{store}, #11>"


def test_obj_axiom_and_stuck_var():
    mem, oid = EMPTY_MEMORY.allocate(ObjState("A", ()))
    out = run_first(SEM, MemConfig(mem, ObjIdRef(oid)), 10)
    assert isinstance(out, Converged) and out.result == MemResult(mem, oid)
    assert isinstance(run_first(SEM, _conf("x"), 10), Stuck)


def test_memory_threading_along_premises():
    # each premise starts in the memory the previous one produced, and the
    # allocated id set only grows along the run
    out = _run("new B(new A()).set(new A())")
    assert isinstance(out, Converged)

    def walk(node):
        if not node.children:
            return
        prev = node.config.memory
        for child in node.children:
            assert child.config.memory == prev
            assert prev.domain <= child.res.memory.domain
            prev = child.res.memory
        walk_children(node)

    def walk_children(node):
        for child in node.children:
            walk(child)

    walk(out.tree)


def test_receiver_class_read_after_receiver_premise():
    # the invocation stores the class it resolved from the post-receiver memory
    out = _run("new B(new A()).get()")
    assert isinstance(out, Converged)
    assert out.result.oid == 0


def test_determinism():
    for e in impfj_typed_corpus(IMP_TABLE, 3):
        assert len(run_exhaustive(SEM, e, 200)) == 1


def test_premise_bounds():
    assert SEM.premise_bound(_conf("new B(new A()).set(new A())")) == 3  # n + 2
    assert SEM.premise_bound(_conf("new B(new A()).get()")) == 2
    assert SEM.premise_bound(_conf("new B(new A())")) == 1
    assert SEM.premise_bound(_conf("new A().f = new A()")) == 2
    assert SEM.premise_bound(MemConfig(EMPTY_MEMORY, ObjIdRef(0))) == 0


def test_imp_typing_goldens():
    sigma = FrozenMap()
    assert impfj_typecheck(IMP_TABLE, {}, sigma, parse_fj_expr("new A()")) == "A"
    assert impfj_typecheck(
        IMP_TABLE, {}, sigma, parse_fj_expr("new B(new A()).f = new A()")) == "A"
    with pytest.raises(FJTypeError):
        impfj_typecheck(IMP_TABLE, {}, sigma, parse_fj_expr("new A().f"))
    with pytest.raises(FJTypeError):
        impfj_typecheck(IMP_TABLE, {}, sigma, parse_fj_expr("new B(new B(new A()))"))


def test_memory_well_typedness():
    mem, a = EMPTY_MEMORY.allocate(ObjState("A", ()))
    mem, b = mem.allocate(ObjState("B", (a,)))
    assert memory_well_typed(IMP_TABLE, mem)
    assert memory_sigma(mem) == ("A", "B")
    bad, _ = mem.allocate(ObjState("B", (99,)))  # dangling reference
    assert not memory_well_typed(IMP_TABLE, bad)


def test_sigma_extension_preservation():
    pred = impfj_indexed_predicate(IMP_TABLE)
    config = _conf("new B(new A()).test()")
    indices = pred.indices_of_config(config)
    assert indices  # well-typed
    out = _run("new B(new A()).test()")
    for index in indices:
        assert pred.holds_result(out.result, index)


def test_soundness_must_on_imp_corpus():
    pred = impfj_indexed_predicate(IMP_TABLE)
    corpus = impfj_typed_corpus(IMP_TABLE, 3)
    assert len(corpus) >= 8
    report = soundness_must_audit(SEM, pred, corpus, 300)
    assert report.passed, report.violations
    assert not report.inconclusive


def test_loop_method_diverges_with_certificate():
    sem = impfj_semantics(IMP_LOOP_TABLE)
    out = run_first(sem, MemConfig(EMPTY_MEMORY, parse_fj_expr("new L().loop()")), 100)
    assert isinstance(out, Diverges)
    assert divergence_certificate_check(sem, out.certificate, 60).passed
