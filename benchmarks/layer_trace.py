"""Per-layer tracing of diagalg, done from outside the package.

The benchmark never edits ``src/diagalg``.  Instead ``install`` replaces
functions and methods of the diagalg modules with thin wrappers that report
to a ``Tracer``:

* a *span* wrapper times the call; spans nest, and each span's self time is
  its duration minus the durations of the spans it directly contains;
* a *count* wrapper only counts calls, for the hot scalar operations.

The tracer keeps aggregates per name, never one record per call, so a traced
run stays small however many calls it makes.  A function imported by name
into other modules is replaced in every diagalg module that binds it, so no
call slips past its wrapper; ``install`` fails loudly when a target is gone.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregated span and counter accounting for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []                  # open spans: [name, start, child seconds]
        self.calls = Counter()           # name -> calls (spans and count wrappers)
        self.counts = Counter()          # name -> extra quantities (bytes, hits, ...)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.root_s = 0.0                # time under some outermost span

    def enter(self, name):
        self.calls[name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.root_s += dur

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "root_s": self.root_s}


# -- wrapper factories ---------------------------------------------------------

def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _count(tracer, name, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _fin_mul_basis(tracer, name, fn):
    """FinAlgebra.mul_basis: counts lookups and product-cache hits."""
    calls, counts = tracer.calls, tracer.counts

    @functools.wraps(fn)
    def wrapper(self, i, j):
        calls[name] += 1
        if (i, j) in self._cache:
            counts["algebra_kernel.cache_hits"] += 1
        return fn(self, i, j)
    return wrapper


def _echelon_insert(tracer, name, fn):
    """Echelon.insert: a span that also counts inserts adding a pivot."""
    @functools.wraps(fn)
    def wrapper(self, v):
        tracer.enter(name)
        try:
            pivot = fn(self, v)
        finally:
            tracer.exit()
        if pivot is not None:
            tracer.counts["linalg.insert_pivots"] += 1
        return pivot
    return wrapper


def _echelon_reduce(tracer, name, fn):
    """Echelon.reduce: a span; calls not made by insert are counted apart."""
    @functools.wraps(fn)
    def wrapper(self, v):
        if tracer.parent() != "linalg.insert":
            tracer.counts["linalg.reduce_calls"] += 1
        tracer.enter(name)
        try:
            return fn(self, v)
        finally:
            tracer.exit()
    return wrapper


def _kernel_basis(tracer, name, fn):
    """kernel_basis: a span; under hom_space it also sizes the Hom system."""
    @functools.wraps(fn)
    def wrapper(F, rows, ncols):
        if tracer.parent() == "algebra_kernel.hom_space":
            tracer.counts["algebra_kernel.hom_equations"] += len(rows)
            tracer.counts["algebra_kernel.hom_unknowns"] += ncols
        tracer.enter(name)
        try:
            return fn(F, rows, ncols)
        finally:
            tracer.exit()
    return wrapper


def _module_init(tracer, name, fn):
    """RightModule.__init__: counts the action matrices each module stores."""
    @functools.wraps(fn)
    def wrapper(self, algebra, dim, action, *args, **kwargs):
        tracer.calls[name] += 1
        tracer.counts["algebra_kernel.module_action_matrices"] += len(action)
        return fn(self, algebra, dim, action, *args, **kwargs)
    return wrapper


def _verify_layer(tracer, name, fn):
    """verify_layer: one span name per algebra layer l."""
    @functools.wraps(fn)
    def wrapper(dalg, l, *args, **kwargs):
        tracer.enter(f"{name}.l{l}")
        try:
            return fn(dalg, l, *args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _emit(tracer, name, fn):
    """cli.emit: a span that also counts the report bytes."""
    @functools.wraps(fn)
    def wrapper(report, fmt):
        tracer.enter(name)
        try:
            payload = fn(report, fmt)
        finally:
            tracer.exit()
        tracer.counts["cli.report_bytes"] += len(payload)
        return payload
    return wrapper


# -- what gets wrapped -----------------------------------------------------------

_FIELDS = ("RationalField", "PrimeField", "CyclotomicField")

# (module, attribute or Class.method, trace name, wrapper factory)
SETUP_TARGETS = [
    ("diagrams", "DiagramAlgebra._enumerate_basis", "diagrams.basis", _span),
    ("diagrams", "diagram_fin_algebra", "diagrams.fin_algebra", _span),
    ("split_pair", "corner_split_datum", "split_pair.corner_datum", _span),
    ("input_algebra", "wreath_product", "input_algebra.wreath", _span),
]

LAYER_TARGETS = SETUP_TARGETS + [
    *[("fields", f"{cls}.{op}", f"fields.{op}", _count)
      for cls in _FIELDS for op in ("add", "mul", "inv")],
    ("linalg", "Echelon.insert", "linalg.insert", _echelon_insert),
    ("linalg", "Echelon.reduce", "linalg.reduce", _echelon_reduce),
    ("linalg", "kernel_basis", "linalg.kernel_basis", _kernel_basis),
    ("input_algebra", "InputAlgebra.mul_basis", "input_algebra.mul_basis", _count),
    ("diagrams", "DiagramAlgebra.mul_diagrams", "diagrams.mul_diagrams", _span),
    ("algebra_kernel", "FinAlgebra.mul_basis", "algebra_kernel.mul_basis", _fin_mul_basis),
    ("algebra_kernel", "RightModule.__init__", "algebra_kernel.module", _module_init),
    ("algebra_kernel", "hom_space", "algebra_kernel.hom_space", _span),
    ("algebra_kernel", "free_presentation", "algebra_kernel.free_presentation", _span),
    ("algebra_kernel", "ext1", "algebra_kernel.ext1", _span),
    ("inflation", "verify_layer", "inflation.verify_layer", _verify_layer),
    ("inflation", "check_layer_ideal_closed", "inflation.ideal_closed", _span),
    ("inflation", "contraction_form", "inflation.contraction_form", _count),
    ("split_pair", "CornerSplitDatum.verify_corner_iso", "split_pair.corner_iso", _span),
    ("split_pair", "CornerSplitDatum._build_alpha", "split_pair.alpha", _span),
    ("split_pair", "CornerSplitDatum.verify_alpha", "split_pair.alpha", _span),
    ("split_pair", "CornerSplitDatum._build_transfer_bimodule", "split_pair.transfer", _span),
    ("split_pair", "CornerSplitDatum.verify_transfer_bimodule", "split_pair.transfer", _span),
    ("split_pair", "CornerSplitDatum.induce", "split_pair.induce", _span),
    ("split_pair", "CornerSplitDatum.induce_map", "split_pair.induce", _span),
    ("split_pair", "CornerSplitDatum.restrict", "split_pair.restrict", _span),
    ("split_pair", "CornerSplitDatum.restrict_map", "split_pair.restrict", _span),
    ("split_pair", "ShortExactSequence.is_split", "split_pair.is_split", _span),
    ("split_pair", "chain_ideal_sequence", "split_pair.chain_ideal", _span),
    ("split_pair", "cell_head_sequence", "split_pair.cell_head", _span),
    ("specht", "specht_module", "specht.module", _span),
    ("specht", "outer_product", "specht.module", _span),
    ("specht", "dominance_vanishing_experiment", "specht.dominance", _span),
    ("cli", "emit", "cli.emit", _emit),
]


def _diagalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "diagalg" or name.startswith("diagalg."))]


def _resolve(modname, attr):
    """(owner, attribute name, original) of a target; KeyError if it is gone."""
    module = sys.modules[f"diagalg.{modname}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = module.__dict__[cls_name]
        return owner, meth, owner.__dict__[meth]
    return module, attr, module.__dict__[attr]


def install(tracer, targets):
    """Wrap every target; returns a function that puts the originals back.

    Methods are replaced on the class that defines them.  A module-level
    function is replaced in each diagalg module bound to it, including the
    package namespace and modules that imported it by name.
    """
    import diagalg.cli  # noqa: F401  loads every diagalg module

    undo = []
    modules = _diagalg_modules()
    for modname, attr, name, factory in targets:
        owner, attr_name, original = _resolve(modname, attr)
        wrapper = factory(tracer, name, original)
        if isinstance(owner, type):
            undo.append((owner, attr_name, original))
            setattr(owner, attr_name, wrapper)
            continue
        for m in modules:
            for bound, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, bound, original))
                    setattr(m, bound, wrapper)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def target_functions(targets):
    """(trace name, original function) of each target, for cross-checks."""
    import diagalg.cli  # noqa: F401

    return [(name, _resolve(modname, attr)[2]) for modname, attr, name, _ in targets]
