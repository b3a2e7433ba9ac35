"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
loaded ``resurgence`` module that binds it, so calls between modules are
seen too (``mzv`` and ``hyperlog`` bind ``chebyshev_cumulative`` from
``_chebyshev``; ``hyperlog`` binds ``alien_derivation``).  Methods are
replaced on their class.  Spans stay in memory (id, name, start, end,
parent id, run id) and are written out once, at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict


def _cheb(tracer, args, kwargs, result):
    n = len(args[0] if args else kwargs["values"]) - 1
    tracer.counts["chebyshev.cumulative_calls"] += 1
    # the transform does (n+1)(n-1) multiply-adds, the evaluation (n+1)^2
    tracer.counts["chebyshev.madds_computed"] += (n + 1) * 2 * n
    if tracer.active["mzv.wa_eval"]:
        tracer.counts["mzv.wa_panels_computed"] += 1


def _ze(tracer, args, kwargs, result):
    tracer.counts["mzv.ze_eval_calls"] += 1
    if id(result) in tracer.returned:
        tracer.counts["mzv.ze_cache_hits"] += 1
        return
    tracer.returned[id(result)] = result
    bound = tracer.signatures["mzv.ze_eval"].bind(*args, **kwargs)
    bound.apply_defaults()
    idx = bound.arguments["idx"]
    depth = len(idx.s) if hasattr(idx, "s") else len(tuple(idx))
    # the exact prefix loops run once per level up to the cutoff
    tracer.counts["mzv.ze_terms_computed"] += depth * bound.arguments["cutoff"]


def _wa(tracer, args, kwargs, result):
    tracer.counts["mzv.wa_eval_calls"] += 1


def _relation(tracer, args, kwargs, result):
    tracer.counts["mzv.relation_terms"] += sum(len(c.terms)
                                               for c in result.checks)


def _L(tracer, args, kwargs, result):
    tracer.counts["hyperlog.L_numeric_nodes"] += result.nodes


def _ray(tracer, args, kwargs, result):
    tracer.counts["laplace.ray_nodes"] += result.nodes_used
    tracer.counts["laplace.ray_segments"] += result.diagnostics["segments"]


def _hankel(tracer, args, kwargs, result):
    tracer.counts["laplace.hankel_nodes"] += result.nodes_used


def _entries(tracer, args, kwargs, result):
    entries = getattr(result, "entries", None)
    if entries is not None:
        tracer.counts["moulds.entries"] += len(entries)


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("resurgence._chebyshev", "chebyshev_cumulative", "chebyshev.cumulative",
     _cheb),
    ("resurgence.mzv", "ze_eval", "mzv.ze_eval", _ze),
    ("resurgence.mzv", "wa_eval", "mzv.wa_eval", _wa),
    ("resurgence.mzv", "verify_relation", "mzv.verify_relation", _relation),
    ("resurgence.hyperlog", "L_numeric", "hyperlog.L_numeric", _L),
    ("resurgence.hyperlog", "extract_L", "hyperlog.extract_L", None),
    ("resurgence.hyperlog", "default_U", "hyperlog.default_U", None),
    ("resurgence.hyperlog", "gu_resurgent", "hyperlog.gu_resurgent", None),
    ("resurgence.laplace", "laplace_ray", "laplace.laplace_ray", _ray),
    ("resurgence.laplace", "lateral_jump", "laplace.lateral_jump", None),
    ("resurgence.laplace", "hankel_laplace", "laplace.hankel_laplace",
     _hankel),
    ("resurgence.alien", "alien_derivation", "alien.alien_derivation", None),
    ("resurgence.alien", "alien_plus", "alien.alien_plus", None),
    ("resurgence.moulds", "Mould.__mul__", "moulds.product", _entries),
    ("resurgence.moulds", "mould_exp", "moulds.exp_log", _entries),
    ("resurgence.moulds", "mould_log", "moulds.exp_log", _entries),
    ("resurgence.moulds", "Mould.mult_inverse", "moulds.inverse", _entries),
    ("resurgence.moulds", "comp_inverse", "moulds.inverse", _entries),
    ("resurgence.moulds", "is_symmetral", "moulds.symmetry_check", None),
    ("resurgence.moulds", "is_alternal", "moulds.symmetry_check", None),
    ("resurgence.moulds", "is_symmetrel", "moulds.symmetry_check", None),
    ("resurgence.moulds", "is_alternel", "moulds.symmetry_check", None),
    ("resurgence.freealg", "lie_expand", "freealg.lie_expand", None),
    ("resurgence.freealg", "mould_expand", "freealg.mould_expand", None),
    ("resurgence.freealg", "apply_element", "freealg.apply_element", None),
    ("resurgence.series", "predict_coefficients",
     "series.predict_coefficients", None),
    ("resurgence.cli", "main", "cli.main", None),
]

COUNTED = [
    "chebyshev.cumulative_calls", "chebyshev.madds_computed",
    "mzv.ze_eval_calls", "mzv.ze_terms_computed", "mzv.wa_eval_calls",
    "mzv.wa_panels_computed", "mzv.relation_terms",
    "hyperlog.L_numeric_nodes", "laplace.ray_nodes", "laplace.ray_segments",
    "laplace.hankel_nodes", "moulds.entries",
]


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.returned = {}
        self.signatures = {}
        self._next = 0

    def _open(self, name):
        self._next += 1
        sid = self._next
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        self.active[name] += 1
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        self.stack.pop()
        self.active[name] -= 1
        self.spans.append((sid, name, start, end, parent, self.run_id))

    def span(self, name, fn):
        """Call fn() inside a span of the given name."""
        sid, parent, start = self._open(name)
        try:
            return fn()
        finally:
            self._close(name, sid, parent, start)

    def wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, start)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target whose module is loaded."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "resurgence" or n.startswith("resurgence.")]
        for modname, attr, name, count in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self.wrap(name, original, count))
                continue
            original = getattr(module, attr)
            self.signatures[name] = inspect.signature(original)
            wrapper = self.wrap(name, original, count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self):
        """Span duration minus the time its child spans cover, summed per
        name.  Calls are sequential, so children never overlap."""
        covered = defaultdict(float)
        for _sid, _name, start, end, parent, _run in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _parent, _run in self.spans:
            out[name] += (end - start) - covered[sid]
        return out

    def metrics(self):
        """Self seconds per span name (as ``<name>_s``), then the counts."""
        selfs = self.self_times()
        out = {name + "_s": selfs.get(name, 0.0)
               for _module, _attr, name, _count in TARGETS}
        for metric in COUNTED:
            out[metric] = self.counts[metric]
        calls = self.counts["mzv.ze_eval_calls"]
        out["mzv.ze_cache_hit_share"] = (
            self.counts["mzv.ze_cache_hits"] / calls if calls else 0.0)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "name", "start", "end", "parent",
                                  "run_id"],
                       "spans": self.spans}, handle)
