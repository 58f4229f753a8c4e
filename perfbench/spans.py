"""Outside-in tracing of persalg: spans recorded around calls into each layer.

Every public function of a persalg module is replaced, in every module
namespace that binds it, by a wrapper that records one span per call; a few
hot class methods are wrapped on their class.  Nothing under ``src/`` changes:
``Tracer.install`` patches at run time and ``Tracer.uninstall`` restores the
originals, so an untraced pass runs the unmodified library.

A span is (name, start, end, parent, job).  Spans are kept in flat arrays in
memory and written out only when the run ends.  A span's self time is its
duration minus the time its child spans cover; spans nest strictly in this
single-threaded program, so that is the duration minus the children's summed
durations.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

LAYERS = ("novikov", "persistence", "filtered_complex", "novikov_complex",
          "entropy", "ainf", "hochschild", "fukaya_models", "morse", "cli")

# Class methods wrapped on the class: (module, class, method, span name).
METHODS = (
    ("novikov", "NovikovElement", "__mul__", "novikov.mul"),
    ("novikov", "NovikovElement", "__add__", "novikov.add"),
    ("novikov", "NovikovElement", "invert", "novikov.invert"),
    ("ainf", "TabulatedAInfCategory", "mu_elems", "ainf.mu_elems"),
    ("ainf", "TabulatedAInfCategory", "mu_gens", "ainf.mu_gens"),
    ("ainf", "TabulatedAInfCategory", "verify", "ainf.verify"),
)

PACKAGE = "persalg"
NO_PARENT = -1


def layer_functions(mod) -> dict:
    """Public functions defined in ``mod`` itself (not imported into it).
    The CLI is traced at its entry point only, so that cli.main's self time
    is the front end's own work: parsing, dispatch and emitting the answer."""
    is_cli = mod.__name__ == f"{PACKAGE}.cli"
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if not is_cli or name == "main":
            out[name] = obj
    return out


def is_traced(obj) -> bool:
    return hasattr(obj, "__perfbench_span__")


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.error: dict[int, str] = {}  # span index -> exception type name
        self.current = NO_PARENT
        self.job_id = -1
        self.counters: dict[str, float] = {}
        self.reduced: dict[int, object] = {}  # keeps reduced complexes alive
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_job(self, job_id: int):
        self.job_id = job_id
        self.reduced = {}

    def count(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value

    def parent_name(self, idx: int) -> str:
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else ""

    def wrap(self, fn, span_name: str, hook=None):
        nid = self.intern(span_name)
        names, start, end, parent, job = (self.name, self.start, self.end,
                                          self.parent, self.job)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            parent.append(tracer.current)
            job.append(tracer.job_id)
            tracer.current = idx
            out = None
            try:
                start[idx] = perf_counter()
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                tracer.error[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = perf_counter()
                tracer.current = parent[idx]
                if hook is not None:
                    hook(tracer, idx, args, out)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__perfbench_span__ = span_name
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every layer function, in every namespace binding it, and the
        listed class methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        every = [m for name, m in list(sys.modules.items())
                 if m is not None and (name == PACKAGE or name.startswith(prefix))]
        for short in LAYERS:
            mod = sys.modules[prefix + short]
            for name, fn in layer_functions(mod).items():
                span = f"{short}.{name}"
                wrapped = self.wrap(fn, span, hook_for(span))
                for ns in every:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, attr, wrapped)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[prefix + short], cls_name)
            self._patch(cls, meth, self.wrap(cls.__dict__[meth], span, hook_for(span)))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    # -- aggregation -------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of each span in [lo, hi).  Spans are numbered in start
        order, so a span's parent precedes it; parents before ``lo`` are
        outside the range and ignored."""
        hi = len(self.start) if hi is None else hi
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name: calls, self_s and child calls by name."""
        hi = len(self.start) if hi is None else hi
        own = self.self_times(lo, hi)
        out: dict[str, dict] = {}
        for k, i in enumerate(range(lo, hi)):
            rec = out.get(self.names[self.name[i]])
            if rec is None:
                rec = out[self.names[self.name[i]]] = {
                    "calls": 0, "self_s": 0.0, "children": {}}
            rec["calls"] += 1
            rec["self_s"] += own[k]
            p = self.parent[i]
            if p >= lo:
                ch = out[self.names[self.name[p]]]["children"]
                nm = self.names[self.name[i]]
                ch[nm] = ch.get(nm, 0) + 1
        return out

    def save(self, path):
        """Write every span, compressed, with the name table."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent), job=np.array(self.job),
            error_span=np.array(sorted(self.error), dtype=np.int64),
            error_type=np.array([self.error[i] for i in sorted(self.error)]))


# -- counters taken at layer boundaries ------------------------------------------

def _mul(tr, idx, args, out):
    a, b = args
    tr.count("novikov.mul.monomial", len(a.exponents) == 1 and len(b.exponents) == 1)
    if out is not None:
        tr.count("novikov.mul.terms_out", len(out.exponents))


def _invert(tr, idx, args, out):
    if out is not None:
        tr.count("novikov.invert.terms_out", len(out.exponents))


def _outermost(prefix, counter, size):
    def hook(tr, idx, args, out):
        if not tr.parent_name(idx).startswith(prefix):
            tr.count(counter, size(args))
    return hook


def _reduce_floer(tr, idx, args, out):
    key = id(args[0])
    if key in tr.reduced:
        tr.count("novikov_complex.reduce_floer.repeats")
    tr.reduced[key] = args[0]
    if tr.error.get(idx) == "PrecisionError":
        tr.count("novikov_complex.precision_errors")


def _hochschild(tr, idx, args, out):
    if tr.error.get(idx) == "CoverageError" and \
            not tr.parent_name(idx).startswith("hochschild."):
        tr.count("hochschild.coverage_gaps")


_HOOKS = {
    "novikov.mul": _mul,
    "novikov.invert": _invert,
    "novikov_complex.reduce_floer": _reduce_floer,
}
for _fn in ("homology_barcode", "cone_length", "truncate"):
    _HOOKS[f"filtered_complex.{_fn}"] = _outermost(
        "filtered_complex.", "filtered_complex.gens_in", lambda a: a[0].dim())
for _fn in ("interleaving_distance", "dint_variant", "retract_interleaving"):
    _HOOKS[f"persistence.{_fn}"] = _outermost(
        "persistence.", "persistence.bars_in", lambda a: len(a[0]) + len(a[1]))
_HOOKS["persistence.shift_invariant"] = _outermost(
    "persistence.", "persistence.bars_in", lambda a: len(a[1]) + len(a[2]))


def hook_for(span: str):
    if span.startswith("hochschild."):
        return _hochschild
    return _HOOKS.get(span)
