"""The engine entry points and objects the workloads use, plain or traced.

``Engine()`` holds the public functions and the oracle, predicate and
inference-system objects as the engine provides them.  ``Engine(tracer)``
holds the same things wrapped by the tracer, and ``active()`` swaps the
module globals that engine functions use to call each other, so that
nested calls are timed as well.  Workload code is identical in both
modes: it only ever calls through an ``Engine``.
"""
from __future__ import annotations

import contextlib
import json

from bigstep import extensions as ext
from bigstep import inference, pet, predicates
from bigstep.fj import (
    IMP_TABLE,
    INTEROP_TABLE,
    fj_indexed_predicate,
    fj_semantics,
    impfj_indexed_predicate,
    impfj_semantics,
)
from bigstep.lam import (
    fool_predicate,
    lambda_semantics,
    lambda_type_predicate,
    parse_expr,
    show_expr,
)
from bigstep.maxelem import maxelem_gis
from bigstep.serialize import outcome_doc, report_doc, value_doc

from tracer import TracedOracle, Tracer, patched, tree_depth


def serialize_eval(sem, outcome, trace_value, total_value) -> str:
    """The documents ``bsm eval`` prints for a run and two evaluations."""
    cert = outcome.certificate if isinstance(outcome, pet.Diverges) else None
    docs = (outcome_doc(sem, outcome), value_doc(sem, trace_value),
            value_doc(sem, total_value, certificate=cert))
    return "".join(json.dumps(d) + "\n" for d in docs)


def serialize_report(report) -> str:
    """The document ``bsm soundness`` prints for a lambda audit report."""
    return json.dumps(report_doc(report, show=show_expr))


# name of the timed frame for each public function, by layer
FUNCTIONS = {
    "parse_lambda": ("parse", parse_expr),
    "run_first": ("pet.run_first", pet.run_first),
    "run_exhaustive": ("pet.run_exhaustive", pet.run_exhaustive),
    "eval_wrong": ("extensions.eval", ext.eval_wrong),
    "eval_div": ("extensions.eval", ext.eval_div),
    "eval_trace": ("extensions.eval", ext.eval_trace),
    "eval_total": ("extensions.eval", ext.eval_total),
    "cert_check": ("extensions.cert_check", ext.divergence_certificate_check),
    "must_audit": ("predicates.audit", predicates.soundness_must_audit),
    "may_audit": ("predicates.audit", predicates.soundness_may_audit),
    "universe": ("inference.universe", inference.reachable_universe),
    "interp_corules": ("inference.fixpoint", inference.interp_corules),
    "interp_coinductive": ("inference.fixpoint", inference.interp_coinductive),
    "interp_inductive": ("inference.fixpoint", inference.interp_inductive),
    "bounded_check": ("inference.fixpoint", inference.bounded_coinduction_check),
    "serialize_eval": ("serialize", serialize_eval),
    "serialize_report": ("serialize", serialize_report),
}


class Engine:
    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.lam = lambda_semantics()
        self.lam_dropped = lambda_semantics(drop_succ=True)
        self.fj = fj_semantics(INTEROP_TABLE)
        self.impfj = impfj_semantics(IMP_TABLE)
        self.lam_pred = lambda_type_predicate()
        self.fool_pred = fool_predicate()
        self.fj_pred = fj_indexed_predicate(INTEROP_TABLE)
        self.imp_pred = impfj_indexed_predicate(IMP_TABLE)
        self.gis = maxelem_gis()
        for attr, (_, fn) in FUNCTIONS.items():
            setattr(self, attr, fn)
        if tracer is not None:
            self._wrap(tracer)

    def _wrap(self, tracer: Tracer) -> None:
        counts = tracer.counts

        def pet_result(out):
            outs = out if isinstance(out, tuple) else (out,)
            counts["pet.outcomes"] += len(outs)
            for o in outs:
                tree = o.frontier if isinstance(o, pet.OutOfFuel) else o.tree
                counts["pet.max_tree_depth"] = max(counts["pet.max_tree_depth"],
                                                   tree_depth(tree))

        def audit_result(report):
            counts["predicates.violations"] += len(report.violations)

        def universe_result(universe):
            counts["inference.universe.judgments"] += len(universe)

        on_result = {"pet.run_first": pet_result, "pet.run_exhaustive": pet_result,
                     "predicates.audit": audit_result,
                     "inference.universe": universe_result}
        for attr, (name, fn) in FUNCTIONS.items():
            setattr(self, attr, tracer.function(name, fn, on_result=on_result.get(name)))

        self.lam = TracedOracle(self.lam, tracer, "oracle.lam")
        self.lam_dropped = TracedOracle(self.lam_dropped, tracer, "oracle.lam")
        self.fj = TracedOracle(self.fj, tracer, "oracle.fj")
        self.impfj = TracedOracle(self.impfj, tracer, "oracle.impfj")
        for attr in ("lam_pred", "fool_pred", "fj_pred", "imp_pred"):
            pred = getattr(self, attr)
            setattr(self, attr, predicates.IndexedPredicate(
                tracer.function("predicates.indices", pred.indices_of_config, span=False),
                tracer.function("predicates.holds", pred.holds_result, span=False)))
        self.gis = inference.GeneralizedIS(*(
            inference.InferenceSystem(tracer.function(
                "inference.candidates", system.premise_candidates, span=False))
            for system in (self.gis.rules, self.gis.corules)))

    @contextlib.contextmanager
    def active(self):
        """Within this block, engine-internal calls are traced too."""
        if self.tracer is None:
            yield
            return
        tracer = self.tracer

        def transformer(factory):
            def traced_factory(sem):
                made = factory(sem)
                if isinstance(made, tuple):  # div_oracle: (oracle, coaxioms)
                    return (TracedOracle(made[0], tracer, "extensions"),) + made[1:]
                return TracedOracle(made, tracer, "extensions")
            return traced_factory

        with patched([
            (ext, "run_first", self.run_first),
            (ext, "run_exhaustive", self.run_exhaustive),
            (ext, "wrong_oracle", transformer(ext.wrong_oracle)),
            (ext, "div_oracle", transformer(ext.div_oracle)),
            (ext, "trace_oracle", transformer(ext.trace_oracle)),
            (predicates, "run_exhaustive", self.run_exhaustive),
            (inference, "interp_inductive", self.interp_inductive),
            (inference, "interp_coinductive", self.interp_coinductive),
        ]):
            yield
