"""Per-layer tracing from outside the program.

Public functions of each module are wrapped at every name a caller looks
up: `lazy` does `from .hopf import r_from_form`, so the wrapper replaces
the function in every `lazytwist` module namespace that holds it, not only
in `hopf`. Spans (name, start, end, parent, item) are kept in memory and
turned into self times when a pass ends. CycNum arithmetic is too fine for
spans (a single order-27 verdict makes about 2e5 calls): it is counted and
timed in aggregate, and its time is taken out of the enclosing span's self
time, so self times and `cyclo.s` add up to the traced work.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, layer name, result counter or None)
FUNCTIONS = (
    ("lazy", "bg_element_order", "lazy.bg_element_order", None),
    ("lazy", "bg_product", "lazy.bg_product", None),
    ("lazy", "bg_enumerate", "lazy.bg_enumerate", ("pairs", len)),
    ("lazy", "has_no_multiplicities", "lazy.has_no_multiplicities", None),
    ("lazy", "h2_compute", "lazy.h2_compute", None),
    ("hopf", "tensor_inv", "hopf.tensor_inv", None),
    ("hopf", "is_twist", "hopf.is_twist", None),
    ("hopf", "r_matrix", "hopf.r_matrix", None),
    ("hopf", "theta", "hopf.theta", None),
    ("hopf", "form_from_r", "hopf.form_from_r", None),
    ("hopf", "twist_from_cocycle", "hopf.twist_from_cocycle", None),
    ("hopf", "r_from_form", "hopf.r_from_form", None),
    ("groups", "normal_abelian_subgroups", "groups.normal_abelian_subgroups",
     ("found", len)),
    ("groups", "automorphism_group", "groups.automorphism_group",
     ("found", len)),
    ("groups", "class_preserving_auts", "groups.class_preserving_auts",
     ("found", lambda out: len(out[0]))),
    ("groups", "find_isomorphism", "groups.find_isomorphism",
     ("found", lambda out: int(out is not None))),
    ("pontryagin", "invariant_forms", "pontryagin.invariant_forms",
     ("found", len)),
    ("pontryagin", "alternating_forms", "pontryagin.alternating_forms",
     ("found", len)),
    ("pontryagin", "invariant_cocycle_search",
     "pontryagin.invariant_cocycle_search",
     ("witnesses", lambda out: int(out.witness is not None))),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, layer name): methods are wrapped on the class
METHODS = (
    ("hopf", "GTensor", "mul", "hopf.tensor_mul"),
)

# CycNum operations counted as cyclo.ops; an operation that calls another
# (subtraction adds, division multiplies) counts once
CYCLO_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "inv", "__pow__")

NAME, START, END, PARENT, ITEM, CYCLO = range(6)


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.item: str | None = None
        self.cyclo_ops = 0
        self.cyclo_s = 0.0
        self._in_cyclo = False
        self._installed: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self.stack[-1] if self.stack else None,
                           self.item, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][END] = perf_counter()

    def run_item(self, item_id, fn):
        """Run fn as the root span of one item."""
        self.item = item_id
        idx = self._open("item")
        try:
            return fn()
        finally:
            self._close(idx)
            self.item = None

    def _span_wrapper(self, fn, name, counter):
        key = f"{name}.{counter[0]}" if counter else None

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if key:
                self.counts[key] = self.counts.get(key, 0) + counter[1](out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _cyclo_wrapper(self, fn):
        def op(*args, **kwargs):
            if self.item is None or self._in_cyclo:
                return fn(*args, **kwargs)
            self._in_cyclo = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self._in_cyclo = False
                self.cyclo_ops += 1
                self.cyclo_s += dt
                if self.stack:
                    self.spans[self.stack[-1]][CYCLO] += dt

        op.__wrapped__ = fn
        return op

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function at every name that refers to it."""
        mods = {name.rsplit(".", 1)[-1]: mod for name, mod in
                list(sys.modules.items())
                if name == "lazytwist" or name.startswith("lazytwist.")}
        namespaces = list(mods.values())
        for mod_name, fn_name, layer, counter in FUNCTIONS:
            orig = getattr(mods[mod_name], fn_name)
            wrapper = self._span_wrapper(orig, layer, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._replace(ns, attr, orig, wrapper)
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._replace(cls, meth, orig,
                          self._span_wrapper(orig, layer, None))
        cyc = mods["cyclo"].CycNum
        for meth in CYCLO_OPS:
            orig = cyc.__dict__[meth]
            self._replace(cyc, meth, orig, self._cyclo_wrapper(orig))

    def _replace(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._installed.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- summary -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls, self seconds, and the layer's result counters."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_s[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (span[END] - span[START] - child_s[i]
                                - span[CYCLO])
        for key, value in self.counts.items():
            layer, counter = key.rsplit(".", 1)
            out.setdefault(layer, {"calls": 0, "self_s": 0.0})[counter] = value
        out["cyclo"] = {"ops": self.cyclo_ops, "s": self.cyclo_s}
        return out
