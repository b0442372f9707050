"""Outside-in tracing of the subspace_lrc package for the benchmark.

Nothing in the package is edited. `instrument` replaces every public
module-level function of the traced layers (plus the weight-scan engine
`arraycode._scan_range` and `Subspace.from_span`) with a wrapper that records
a span, and rebinds the wrapper in every package module that holds the
original: the modules import each other's names with `from .linalg import`,
so patching only the defining module would miss those callers. Field
operations are counted, not spanned, because a span would cost more than the
operation it measures.

Spans live in flat arrays in memory (name, start, end, parent, value, flag)
and are summarised, and optionally written out, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
from array import array

TRACED_LAYERS = ("linalg", "arraycode", "locality", "designs", "verification", "cli")
GF_OPS = ("add", "sub", "mul", "neg", "inv", "div", "pow")

# Span names (layer.function) grouped into the per-layer metrics that need
# them. A group's time counts only its outermost spans, so nested calls of
# the same group are not counted twice.
GROUPS = {
    "linalg.from_span": ("linalg.Subspace.from_span",),
    "linalg.contains": ("linalg.contains_vector", "linalg.contains_subspace"),
    "linalg.null_space": ("linalg.null_space",),
    "linalg.solve": ("linalg.solve",),
    "arraycode.scan": ("arraycode._scan_range",),
    "arraycode.dual": ("arraycode.dual",),
    "arraycode.dual_distance": ("arraycode.dual_distance_by_supports",),
    "arraycode.bundle": (
        "arraycode.format_bundle",
        "arraycode.write_bundle",
        "arraycode.parse_bundle",
        "arraycode.read_bundle",
    ),
    "arraycode.construct": (
        "arraycode.code_from_subspaces",
        "arraycode.construction_all_subspaces",
        "arraycode.construction_spread",
        "arraycode.construction_std",
        "arraycode.construction_from_blocks",
    ),
    "locality.node_search": ("locality.min_node_recovery",),
    "locality.symbol_search": ("locality.min_symbol_recovery",),
    "locality.availability": (
        "locality.code_node_availability",
        "locality.code_symbol_availability",
        "locality.node_availability",
        "locality.symbol_availability",
    ),
    "locality.packing": ("locality.max_disjoint_packing",),
    "locality.pairing": ("locality.grassmann_pairing",),
    "locality.repair": ("locality.repair",),
    "designs.build": (
        "designs.enumerate_grassmannian",
        "designs.build_mrd_fullrank",
        "designs.build_gabidulin",
        "designs.build_spread",
        "designs.build_std",
    ),
    "designs.verify": (
        "designs.verify_spread",
        "designs.verify_std",
        "designs.steiner_parameters",
    ),
}

# Calls whose repetition with equal arguments inside one run_verification
# suite is wasted work: the codeword scans, the recovery searches and the
# dual computations.
REPEAT_TRACKED = {
    "arraycode.weight_distribution",
    "arraycode.min_distance",
    "arraycode.dual",
    "arraycode.dual_distance_by_supports",
    "locality.min_node_recovery",
    "locality.min_symbol_recovery",
    "locality.node_availability",
    "locality.symbol_availability",
}


def _fingerprint(value):
    """Hashable identity of an argument by content (codes are rebuilt, not shared)."""
    if hasattr(value, "generator") and hasattr(value, "subspaces"):
        return ("code", value.field.descriptor(), value.b, value.n, value.M, value.generator.rows)
    if hasattr(value, "descriptor"):
        return ("field", value.descriptor())
    try:
        hash(value)
    except TypeError:
        return ("unhashable", id(value))
    return value


class Tracer:
    """Spans in flat arrays plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # per-span payload: codewords scanned, pool size
        self.flag = array("b")  # per-span outcome: contains hit, exact packing
        self.stack = [-1]
        self.gf_ops = 0
        self.suite_keys: set | None = None
        self.suite_calls = 0
        self.suite_repeats = 0

    def intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def open(self, name_ix: int) -> int:
        i = len(self.start)
        self.name.append(name_ix)
        self.parent.append(self.stack[-1])
        self.value.append(0.0)
        self.flag.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.intern(name))
        try:
            yield i
        finally:
            self.close(i)

    # -- summaries ----------------------------------------------------------

    def layer_of(self, name_ix: int) -> str:
        return self.names[name_ix].split(".", 1)[0]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus its children's durations."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            layer = self.layer_of(self.name[i])
            out[layer] = out.get(layer, 0.0) + (self.end[i] - self.start[i] - child[i])
        return out

    def outermost(self, names) -> list[int]:
        """Indices of spans named in `names` with no ancestor also in `names`."""
        wanted = {self._name_ix[n] for n in names if n in self._name_ix}
        nested = set(self.under(names, names))
        return [i for i in range(len(self.start)) if self.name[i] in wanted and i not in nested]

    def under(self, names, ancestors) -> list[int]:
        """Indices of spans named in `names` that have an ancestor in `ancestors`."""
        wanted = {self._name_ix[n] for n in names if n in self._name_ix}
        anc = {self._name_ix[n] for n in ancestors if n in self._name_ix}
        inside = [False] * len(self.start)
        out = []
        for i in range(len(self.start)):
            p = self.parent[i]
            inside[i] = p >= 0 and (inside[p] or self.name[p] in anc)
            if inside[i] and self.name[i] in wanted:
                out.append(i)
        return out

    def duration(self, spans) -> float:
        return sum(self.end[i] - self.start[i] for i in spans)

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines: index, parent, name, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


# -- instrumentation -------------------------------------------------------


def _result_hook(tracer: Tracer, name: str):
    """What to record about a call's result on its span, if anything."""
    if name in GROUPS["linalg.contains"]:

        def hook(i, result):
            tracer.flag[i] = 1 if result else 0

    elif name == "arraycode._scan_range":

        def hook(i, result):
            tracer.value[i] = sum(result[0].values())

    elif name == "locality.max_disjoint_packing":

        def hook(i, result):
            tracer.flag[i] = 1 if result[2] else 0

    else:
        return None
    return hook


def _make_wrapper(tracer: Tracer, name: str, fn):
    ix = tracer.intern(name)
    hook = _result_hook(tracer, name)
    repeat = name in REPEAT_TRACKED
    suite = name == "verification.run_verification"
    packing = name == "locality.max_disjoint_packing"
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if repeat and tracer.suite_keys is not None:
            key = (name, tuple(_fingerprint(a) for a in args),
                   tuple(sorted((k, _fingerprint(v)) for k, v in kwargs.items())))
            tracer.suite_calls += 1
            if key in tracer.suite_keys:
                tracer.suite_repeats += 1
            else:
                tracer.suite_keys.add(key)
        if suite:
            tracer.suite_keys = set()
        i = open_(ix)
        if packing:
            tracer.value[i] = len({frozenset(s) for s in args[0]})
        try:
            result = fn(*args, **kwargs)
        finally:
            close(i)
            if suite:
                tracer.suite_keys = None
        if hook is not None:
            hook(i, result)
        return result

    return wrapper


def _count_gf(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args):
        tracer.gf_ops += 1
        return fn(*args)

    return counted


def instrument(tracer: Tracer, package) -> None:
    """Wrap the package's layer functions and count its field operations."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
    }
    replace: dict[int, object] = {}
    for layer in TRACED_LAYERS:
        mod = modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or (layer, attr) == ("arraycode", "_scan_range")
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replace[id(obj)] = _make_wrapper(tracer, f"{layer}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)

    linalg = modules[f"{package.__name__}.linalg"]
    from_span = linalg.Subspace.__dict__["from_span"].__func__
    linalg.Subspace.from_span = staticmethod(
        _make_wrapper(tracer, "linalg.Subspace.from_span", from_span)
    )

    ops = modules[f"{package.__name__}.gf"]._FieldOps
    for op in GF_OPS:
        setattr(ops, op, _count_gf(tracer, getattr(ops, op)))
