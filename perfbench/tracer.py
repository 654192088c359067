"""Span recorder that wraps the public functions of the ``wandset`` modules.

Tracing lives entirely in the benchmark: :func:`install` replaces module
attributes, class methods, the names other modules bound with
``from ... import``, the oracles of the four model builders and the raw
D/E predicates of every spec made afterwards.  No file of the package is
changed.

Every wrapped call is a span with a name, start, end and parent.  Counts,
self time (duration minus the direct child spans) and outermost total time
are accumulated online for every span.  The span records themselves are kept
in memory up to ``SPAN_CAP`` and written out by :meth:`Recorder.write`; a
traced job makes tens of millions of calls into ``pureset``, which would not
fit in memory as records, so spans past the cap are counted and aggregated
but not stored.
"""

from __future__ import annotations

import json
import time
from array import array

SPAN_CAP = 200_000

# Span names, grouped by the module whose public functions they wrap.  Each
# entry maps a span name to the attribute paths it replaces (module name,
# dotted attribute); calls through any of them count under that name.
TARGETS = {
    "formula.eval_formula": [("formula", "eval_formula")],
    "formula.check_interpretation": [("formula", "check_interpretation")],
    "formula.translate": [("formula", "translate_tau"), ("formula", "translate_tolt"),
                          ("formula", "translate_bullet"), ("formula", "translate_circle")],
    "formula.parse": [("formula", "parse")],
    "formula.models": [("formula", "fragment_model"), ("formula", "lt_model"),
                       ("formula", "conch_model"), ("formula", "varin_model")],
    "universe.found_at": [("universe", "found_at")],
    "universe.pot_ids": [("universe", "pot_ids")],
    "universe.in_pot": [("universe", "in_pot")],
    "universe.is_wevel": [("universe", "is_wevel")],
    "universe.hb_witness": [("universe", "hb_witness")],
    "universe.in_ur_levels": [("universe", "in_ur_levels")],
    "universe.tap": [("universe", "tap")],
    "universe.decompose": [("universe", "decompose")],
    "universe.build": [("universe", "build")],
    "universe.Fragment.register_bland": [("universe", "Fragment.register_bland")],
    "universe.Fragment.sort_key": [("universe", "Fragment.sort_key")],
    "universe.Fragment.render": [("universe", "Fragment.render")],
    "universe.encode_pure": [("universe", "encode_pure")],
    "wandspec.tap_class": [("wandspec", "tap_class")],
    "wandspec.equiv": [("wandspec", "equiv")],
    "wandspec.dom": [("wandspec", "dom")],
    "wandspec.check_wellbehaved": [("wandspec", "check_wellbehaved")],
    "instances.n_equiv_over": [("instances", "n_equiv_over")],
    "instances.varin": [("instances", "varin")],
    "instances.classify_kind": [("instances", "classify_kind")],
    "instances.widetap": [("instances", "widetap")],
    "instances.check_cus_axioms": [("instances", "check_cus_axioms")],
    "conch.gen_stages": [("conch", "gen_stages")],
    "conch.conch_code": [("conch", "conch_code")],
    "conch.check_stage_laws": [("conch", "check_stage_laws")],
    "conch.verify_roundtrip": [("conch", "verify_roundtrip")],
    "pureset.mk_set": [("pureset", "mk_set"), ("conch", "mk_set")],
    "pureset.PureSet.sort_key": [("pureset", "PureSet.sort_key")],
    "pureset.deep_carrier": [("pureset", "deep_carrier"), ("conch", "deep_carrier"),
                             ("instances", "deep_carrier")],
    "pureset.carrier": [("pureset", "carrier"), ("conch", "carrier")],
    "pureset.kpair": [("pureset", "kpair"), ("conch", "kpair")],
    "cli.export_fragment": [("cli", "export_fragment")],
    "cli.import_fragment": [("cli", "import_fragment")],
    "cli.cmd_export": [("cli", "cmd_export")],
    "suites.core_laws": [("suites", "core_laws")],
    "suites.conch_laws": [("suites", "conch_laws")],
    "suites.formula_laws": [("suites", "formula_laws")],
}

# Spans that are not attribute paths: installed by hand in install().
ORACLE = "formula.oracle"
RAW_DOM = "wandspec.raw_dom"
RAW_EQUIV = "wandspec.raw_equiv"

SPAN_NAMES = sorted([*TARGETS, ORACLE, RAW_DOM, RAW_EQUIV])

# Names whose outermost duration is reported as ``.total_s``: the law suites.
TOTAL_NAMES = ("suites.core_laws", "suites.conch_laws", "suites.formula_laws",
               "instances.check_cus_axioms")


class Recorder:
    """Collects spans from wrapped calls; one per traced process."""

    def __init__(self):
        self.names = SPAN_NAMES
        self.index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.open = [0] * n          # open spans per name, for outermost totals
        self.top_ns = 0              # time covered by spans without a parent
        self.stack: list = []        # [span id, child ns] per open span
        self.seq = 0
        self.active = False
        self.found = 0               # n_equiv_over calls that returned a witness
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records one span called ``name``."""
        idx = self.index[name]
        rec = self
        stack = self.stack
        calls, self_ns, total_ns, open_ = self.calls, self.self_ns, self.total_ns, self.open
        clock = time.perf_counter_ns
        sname, sparent, sstart, send = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)

        def span(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = rec.seq
            rec.seq = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            open_[idx] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[idx] -= 1
                d = t1 - t0
                calls[idx] += 1
                self_ns[idx] += d - frame[1]
                if not open_[idx]:
                    total_ns[idx] += d
                if parent is None:
                    rec.top_ns += d
                else:
                    parent[1] += d
                if sid < SPAN_CAP:
                    sname.append(idx)
                    sparent.append(-1 if parent is None else parent[0])
                    sstart.append(t0)
                    send.append(t1)

        return span

    def metrics(self) -> dict:
        """Per-span ``.calls`` and ``.self_s``, plus ``.total_s`` for suites."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
            if name in TOTAL_NAMES:
                out[f"{name}.total_s"] = self.total_ns[i] / 1e9
        equiv = self.calls[self.index["wandspec.equiv"]]
        out["wandspec.raw_equiv.per_equiv"] = (
            self.calls[self.index[RAW_EQUIV]] / equiv if equiv else 0.0)
        searches = self.calls[self.index["instances.n_equiv_over"]]
        out["instances.n_equiv_over.found_ratio"] = (
            self.found / searches if searches else 0.0)
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write the stored spans as JSON: one [name, parent, start_ns, end_ns]
        row per span, span ids being row numbers."""
        doc = {
            "meta": meta,
            "names": self.names,
            "spans_total": self.seq,
            "spans_stored": len(self.span_name),
            "spans": [[self.names[n], p, s, e] for n, p, s, e in
                      zip(self.span_name, self.span_parent, self.span_start, self.span_end)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _set_path(obj, dotted: str, value) -> None:
    *owners, last = dotted.split(".")
    for part in owners:
        obj = getattr(obj, part)
    setattr(obj, last, value)


def _get_path(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def install(rec: Recorder) -> None:
    """Patch the ``wandset`` package so calls record spans into ``rec``.

    Must run before any spec, fragment or model is made: specs and models
    made earlier keep their unwrapped predicates and oracles.
    """
    import dataclasses
    import importlib

    mods = {name: importlib.import_module(f"wandset.{name}")
            for name in ("formula", "universe", "wandspec", "instances", "conch",
                         "pureset", "cli", "suites")}

    for name, paths in TARGETS.items():
        for mod, dotted in paths:
            fn = _get_path(mods[mod], dotted)
            if name == "instances.n_equiv_over":
                fn = _count_found(rec, fn)
            _set_path(mods[mod], dotted, rec.wrap(name, fn))

    # The translations are also reached through the TRANSLATIONS table.
    formula = mods["formula"]
    for key, (fn, src, dst) in list(formula.TRANSLATIONS.items()):
        formula.TRANSLATIONS[key] = (getattr(formula, fn.__name__), src, dst)

    # Oracles of Defined atoms, for every model the four builders make.
    for builder in ("fragment_model", "lt_model", "conch_model", "varin_model"):
        setattr(formula, builder, _wrap_oracles(rec, getattr(formula, builder)))

    # Raw D and E of every spec the registry makes from now on.
    wandspec = mods["wandspec"]
    for key, factory in list(wandspec.REGISTRY.items()):
        def make(*args, _factory=factory, **kwargs):
            spec = _factory(*args, **kwargs)
            return dataclasses.replace(
                spec, raw_dom=rec.wrap(RAW_DOM, spec.raw_dom),
                raw_equiv=rec.wrap(RAW_EQUIV, spec.raw_equiv))
        wandspec.REGISTRY[key] = make


def _count_found(rec: Recorder, fn):
    def counted(*args, **kwargs):
        got = fn(*args, **kwargs)
        if got is not None and rec.active:
            rec.found += 1
        return got
    return counted


def _wrap_oracles(rec: Recorder, builder):
    def build(*args, **kwargs):
        model = builder(*args, **kwargs)
        model.defined = {k: rec.wrap(ORACLE, v) for k, v in model.defined.items()}
        return model
    return build
