"""Spans around ghostcft's public functions, installed from outside.

``Tracer.install()`` replaces every public module-level function of each
layer, plus the listed class methods, with a wrapper that records a span:
name, layer, parent span, start, end, whether it raised, and the job it
belongs to.  Every alias an importer bound with ``from ... import`` is
replaced too (any ghostcft module attribute that *is* a wrapped function),
so ``kzbpz``'s imported correlator functions and the package re-exports are
seen.  ``uninstall()`` puts the originals back.

Spans stay in memory; self time is a span's duration minus its children's.
A few counters ride on the same wrappers: term counts at construction,
distinct 2F1 parameter tuples, zero results of mode actions.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = {
    "specfun": ["ghostcft.specfun"],
    "blocks": ["ghostcft.blocks"],
    "modealg": ["ghostcft.modealg.expr", "ghostcft.modealg.states", "ghostcft.modealg.jl",
                "ghostcft.modealg.localized", "ghostcft.modealg.checks"],
    "correlators": ["ghostcft.correlators"],
    "kzbpz": ["ghostcft.kzbpz"],
    "identities": ["ghostcft.identities"],
    "cli": ["ghostcft.cli"],
}

# Class methods that carry a layer's work.  The block algebra's operators are
# included because kzbpz drives them; without them their time would land in
# kzbpz's self time.
METHODS = {
    "ghostcft.blocks": {
        "PowerSum": ["single", "zero", "is_zero", "__add__", "__sub__", "scale", "mul_power",
                     "deriv", "eval", "eta_polynomial", "is_exact", "canonical", "equals",
                     "to_text", "to_blocksum"],
        "BlockSum": ["constant", "power", "hyp2f1", "hyp3f2w", "incomplete_beta", "__add__",
                     "__sub__", "scale", "mul_power", "deriv", "value",
                     "exact_value_terminating", "is_exact", "try_powersum"],
    },
    "ghostcft.correlators": {"WardForm": ["__init__", "value", "d", "d2"]},
    "ghostcft.kzbpz": {
        "TwoPointFamily": ["base", "companion"],
        "ThreePointFamily": ["base", "shifted_constant", "companion"],
        "FourPointL1Family": ["specialized", "base", "companion"],
        "NumericDerivatives": ["value", "d", "d2"],
    },
}

# Value constructors too small to be a layer boundary (one tuple each); a
# span on them would cost more than the work they do.
SKIP = {"ghostcft.modealg.expr": {"mode", "is_annihilator"}}

# Name groups behind the per-layer metrics.
ACTIONS = {"act", "act_current", "act_virasoro", "act_singlet", "act_current_squared",
           "act_flowed", "apply_word", "apply_mode", "apply_current", "apply_virasoro",
           "apply_current_squared", "apply_singlet"}
RESIDUALS = {"ward_residuals", "ward_max_residual", "kz_residual_m2", "kz_residual_m1_l1",
             "kz_specialized_m1_residual", "kz_specialized_j0_residual",
             "kz_decoupled_residual", "bpz_apply", "bpz_residual"}

NAME, LAYER, PARENT, START, END, RAISED, JOB = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.counts = Counter()
        self.hyp2f1_params = set()
        self._patches = []

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, name, layer, post=None, pre=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, False, self.job]
            stack.append(len(spans))
            spans.append(span)
            if pre is not None:
                pre(args)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result
        return traced

    def begin_job(self, index: int, kind: str):
        self.job = index
        span = [f"job.{kind}", "bench", -1, 0.0, 0.0, False, index]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end_job(self, span, raised: bool):
        span[END] = time.perf_counter()
        span[RAISED] = raised
        self.stack.pop()

    # -- counters ------------------------------------------------------------
    def _hooks(self, qualname):
        """(pre, post) hooks for the counters kept at this boundary."""
        counts = self.counts
        if qualname == "specfun.hyp2f1":
            return (lambda args: self.hyp2f1_params.add(tuple(args[:3]))), None
        if qualname.startswith("modealg.") and qualname.split(".")[-1] in ACTIONS:
            def post(_args, result):
                counts["modealg.actions"] += 1
                if not getattr(result, "terms", True):
                    counts["modealg.zero_results"] += 1
            return None, post
        if qualname == "blocks.PowerSum.canonical":
            def post(args, result):
                counts["blocks.raw_terms"] += len(args[0].terms)
                counts["blocks.useful_terms"] += len(result.terms)
            return None, post
        if qualname == "kzbpz.recursion_iterate":
            def post(_args, result):
                if hasattr(result, "terms") and isinstance(result.terms, list):
                    counts["blocks.raw_terms"] += len(result.terms)
                    counts["blocks.useful_terms"] += len(
                        {(t.p, t.q, t.kind, t.params) for t in result.terms})
            return None, post
        return None, None

    # -- installation ------------------------------------------------------
    def install(self):
        from ghostcft import blocks
        from ghostcft.modealg import states

        originals = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                skip = SKIP.get(modname, set())
                for attr, obj in list(vars(module).items()):
                    if (attr.startswith("_") or attr in skip or not inspect.isfunction(obj)
                            or obj.__module__ != modname):
                        continue
                    pre, post = self._hooks(f"{layer}.{attr}")
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer, post, pre))
                for clsname, names in METHODS.get(modname, {}).items():
                    cls = getattr(module, clsname)
                    for attr in names:
                        self._patch_method(cls, attr, layer)
        # every ghostcft namespace that holds one of the originals
        for modname, module in list(sys.modules.items()):
            if modname != "ghostcft" and not modname.startswith("ghostcft."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])
        self._count_init(blocks.PowerSum, "blocks.terms_built", "blocks.max_terms")
        self._count_init(blocks.BlockSum, "blocks.terms_built", "blocks.max_terms")
        self._count_init(states.GhostState, "modealg.state_terms_built", "modealg.max_state_terms")
        return self

    def _set(self, holder, attr, value):
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def _patch_method(self, cls, attr, layer):
        raw = cls.__dict__[attr]
        qualname = f"{layer}.{cls.__name__}.{attr}"
        pre, post = self._hooks(qualname)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(raw.__func__, qualname, layer, post, pre)))
        else:
            self._set(cls, attr, self._wrap(raw, qualname, layer, post, pre))

    def _count_init(self, cls, key_built, key_max):
        """Count the terms of every instance of cls as it is built."""
        init, counts = cls.__dict__["__init__"], self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            n = len(obj.terms)
            counts[key_built] += n
            counts[key_max] = max(counts[key_max], n)
        self._set(cls, "__init__", counted)

    def uninstall(self):
        while self._patches:
            holder, attr, value = self._patches.pop()
            setattr(holder, attr, value)

    # -- analysis ------------------------------------------------------------
    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self):
        """Per-layer metrics over every span recorded so far, and the traced
        job time they share out.  ``<layer>.calls`` counts every traced call
        of the layer's functions and methods, ``<layer>.errors`` the calls
        that raised out of the layer, ``*.self_frac`` self time as a share of
        the traced job time."""
        spans = self.spans
        self_t = self.self_times()
        total = sum(s[END] - s[START] for s in spans if s[LAYER] == "bench")
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        for s, t in zip(spans, self_t):
            by_name[s[NAME]] += t
            by_layer[s[LAYER]] += t
        calls = Counter(s[NAME] for s in spans)

        def frac(x):
            return x / total if total > 0 else 0.0

        def named(pred):
            return frac(sum(t for name, t in by_name.items() if pred(name)))

        def short(name):
            return name.rsplit(".", 1)[-1]

        layer_calls = Counter(s[LAYER] for s in spans)
        # a raise counts once, where it leaves the layer
        layer_errors = Counter(s[LAYER] for s in spans if s[RAISED] and (
            s[PARENT] < 0 or spans[s[PARENT]][LAYER] != s[LAYER]))
        c = self.counts
        n2f1 = calls["specfun.hyp2f1"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.errors"] = layer_errors[layer]
            out[f"{layer}.self_frac"] = frac(by_layer[layer])
        out.update({
            "specfun.hyp2f1.calls": n2f1,
            "specfun.hyp2f1.self_frac": named(lambda n: n == "specfun.hyp2f1"),
            "specfun.hyp3f2.self_frac": named(lambda n: n == "specfun.hyp3f2"),
            "specfun.beta_incomplete.self_frac": named(lambda n: n == "specfun.beta_incomplete"),
            "specfun.distinct_params_frac": len(self.hyp2f1_params) / n2f1 if n2f1 else 0.0,
            "blocks.max_terms": c["blocks.max_terms"],
            "blocks.terms_built": c["blocks.terms_built"],
            "blocks.useful_term_frac": (c["blocks.useful_terms"] / c["blocks.raw_terms"]
                                        if c["blocks.raw_terms"] else 0.0),
            "blocks.value.self_frac": named(lambda n: n in (
                "blocks.BlockSum.value", "blocks.PowerSum.eval",
                "blocks.BlockSum.exact_value_terminating")),
            "blocks.canonical.self_frac": named(lambda n: n == "blocks.PowerSum.canonical"),
            "modealg.act.self_frac": named(
                lambda n: n.startswith("modealg.") and short(n) in ACTIONS),
            "modealg.checks.self_frac": named(lambda n: n.startswith("modealg.") and (
                short(n).startswith("check_") or short(n) in ("chi_null_check", "chi_state",
                                                               "kac_locus_check"))),
            "modealg.max_state_terms": c["modealg.max_state_terms"],
            "modealg.state_terms_built": c["modealg.state_terms_built"],
            "modealg.zero_result_frac": (c["modealg.zero_results"] / c["modealg.actions"]
                                         if c["modealg.actions"] else 0.0),
            "kzbpz.recursion_step.calls": calls["kzbpz.recursion_step"],
            "kzbpz.recursion_step.self_frac": named(lambda n: n == "kzbpz.recursion_step"),
            "kzbpz.residual.self_frac": named(
                lambda n: n.startswith("kzbpz.") and short(n) in RESIDUALS),
            "correlators.wardform.self_frac": named(
                lambda n: n.startswith("correlators.WardForm.")),
        })
        return out, total

    def dump(self, path):
        """Write the spans as gzipped JSON lines:
        [name, layer, parent index, start, end, raised, job index]."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ----------------------------------------------------------------------
# the hand count
# ----------------------------------------------------------------------

def _hand_count_job():
    """A tiny fixed job that calls public functions through each kind of
    alias, and the count of its direct calls by hand.  Only calls made by the
    job itself are counted, so the check does not depend on how ghostcft
    implements them."""
    import ghostcft
    from ghostcft import kzbpz as kz
    from ghostcft import modealg as ma
    from ghostcft import specfun as sf
    from ghostcft.blocks import PowerSum
    from ghostcft.modealg import states

    half = Fraction(1, 2)
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    charges = (j1, j2, half, 1 - j1 - j2 - half)
    block = PowerSum.single(Fraction(1), half)
    state = ma.GhostState.primary(Fraction(1, 3))

    def job():
        ghostcft.recursion_iterate(block, charges, 1, 1)  # package re-export
        for _ in range(2):
            kz.recursion_step(block, charges, 1)
        for _ in range(3):
            sf.hyp2f1(0.3, 0.4, 1.3, 0.37)
        ghostcft.specfun.hyp3f2(0.3, 0.4, 0.5, 1.2, 1.3, 0.37)
        for _ in range(2):
            ma.act_current(state, 0)  # re-exported by ghostcft.modealg
        states.act_virasoro(state, 0)  # the defining module
        kz.ward_exponents([j1, j2, -j1 - j2], [0, 0, 0])  # imported from correlators
        block.scale(2)  # a class method

    want = {"kzbpz.recursion_iterate": 1, "kzbpz.recursion_step": 2, "specfun.hyp2f1": 3,
            "specfun.hyp3f2": 1, "modealg.act_current": 2, "modealg.act_virasoro": 1,
            "correlators.ward_exponents": 1, "blocks.PowerSum.scale": 1}
    return job, want


def hand_count_check():
    """Traced direct calls of a tiny fixed job equal the hand count; returns
    the mismatches (empty when the tracer counts right)."""
    job, want = _hand_count_job()
    tracer = Tracer().install()
    try:
        root = tracer.begin_job(0, "hand-count")
        job()
        tracer.end_job(root, False)
    finally:
        tracer.uninstall()
    got = Counter(s[NAME] for s in tracer.spans if s[PARENT] == 0)
    return [] if got == Counter(want) else [{"want": want, "got": dict(got)}]
