"""Span tracing around calls into the lcdual modules, from outside them.

`Tracer.install` replaces module attributes that callers look up: every
public function of `lattices`, `categories`, `lconvex`, `duality`,
`classify` and `docfiles`, plus `cli.main`, becomes a timed span; the hot
scalar functions and the lattice instances' tensor/hom/leq/sup/inf only
count their calls.  Because the replacement happens in every module's
namespace, calls that one library module makes into another (for example
everything `cli.main` dispatches to) are traced too.  `uninstall` puts the
originals back.

Spans stay in memory.  Each span's self time is its duration minus the
time of its child spans.  Span names are `<module>.<function>`.
"""

import time
from collections import Counter
from types import FunctionType

SPANNED_MODULES = ("lattices", "categories", "lconvex", "duality", "classify", "docfiles")
SPANNED_EXTRA = ("cli.main",)
COUNTED = {
    "scalars.ext_calls": ("ext_add", "ext_sub", "ext_sup", "ext_inf", "trunc_add", "trunc_sub",
                          "cart_max", "cart_implies", "bool_and", "bool_implies"),
    "scalars.num_calls": ("nadd", "nsub"),
    "scalars.text_calls": ("parse_scalar", "format_scalar"),
}
LATTICE_OPS = ("tensor", "hom", "leq", "sup", "inf")
MAX_STORED_SPANS = 100_000

# per-layer metric: the spans whose total duration it sums
BUSY = {
    "lattices.law_violations.busy_s": ("lattices.law_violations",),
    "categories.validate.busy_s": ("categories.validate_category",),
    "categories.yoneda.busy_s": ("categories.verify_yoneda",),
    "categories.functors.busy_s": ("categories.enumerate_functors",),
    "lconvex.closure.busy_s": ("lconvex.closure",),
    "lconvex.member.busy_s": ("lconvex.member",),
    "lconvex.hull.busy_s": ("lconvex.from_generators",),
    "lconvex.grid.busy_s": ("lconvex.grid_members",),
    "duality.roundtrip.busy_s": ("duality.roundtrip_lcs", "duality.roundtrip_cat"),
    "duality.is_hom.busy_s": ("duality.is_homomorphism",),
    "duality.leq.busy_s": ("duality.hom_canonical_leq",),
    "duality.homs.busy_s": ("duality.enumerate_homs",),
    "classify.classify2.busy_s": ("classify.classify_two_point",),
    "classify.render.busy_s": ("classify.render_region",),
    "docfiles.parse.busy_s": ("docfiles.parse_document",),
    "docfiles.emit.busy_s": ("docfiles.emit_document",),
}
COUNTS = (
    "scalars.ext_calls", "scalars.num_calls", "scalars.text_calls", "lattices.op_calls",
    "categories.validate.triples", "categories.validate.violations",
    "categories.functors.candidates", "categories.functors.found",
    "lconvex.closure.collapsed", "lconvex.member.queries",
    "lconvex.grid.points_tested", "lconvex.grid.members",
    "duality.is_hom.checks", "duality.homs.candidates", "duality.homs.found",
    "docfiles.parse.bytes", "docfiles.parse.rejected", "docfiles.emit.bytes",
    "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.3",
)


def _ninf(x):
    tag = getattr(x, "tag", None)
    return tag == "ninf" if tag is not None else x == float("-inf")


def _len(x):
    try:
        return len(x)
    except TypeError:
        return 0


# Work counters read from a span's arguments and result:
# f(counter, args, kwargs, result, failed).

def _parse(c, args, kwargs, result, failed):
    c["docfiles.parse.bytes"] += len(args[0])
    c["docfiles.parse.rejected"] += failed


def _emit(c, args, kwargs, result, failed):
    c["docfiles.emit.bytes"] += _len(result)


def _validate(c, args, kwargs, result, failed):
    c["categories.validate.triples"] += len(args[0].objects) ** 3
    c["categories.validate.violations"] += _len(result)


def _functors(c, args, kwargs, result, failed):
    c["categories.functors.candidates"] += len(args[1].objects) ** len(args[0].objects)
    c["categories.functors.found"] += _len(result)


def _closure(c, args, kwargs, result, failed):
    if result is not None:
        c["lconvex.closure.collapsed"] += sum(
            _ninf(out) and not _ninf(raw)
            for out_row, raw_row in zip(result.dbm, args[0].matrix)
            for out, raw in zip(out_row, raw_row))


def _member(c, args, kwargs, result, failed):
    c["lconvex.member.queries"] += 1
    c["lconvex.member.accepted"] += bool(result)


def _grid(c, args, kwargs, result, failed):
    bound = args[1] if len(args) > 1 else kwargs.get("bound", 3)
    c["lconvex.grid.points_tested"] += (2 * bound + 3) ** len(args[0].index)
    c["lconvex.grid.members"] += _len(result)


def _is_hom(c, args, kwargs, result, failed):
    c["duality.is_hom.checks"] += 1


def _homs(c, args, kwargs, result, failed):
    c["duality.homs.candidates"] += len(args[0].index) ** len(args[1].index)
    c["duality.homs.found"] += _len(result)


def _cli_main(c, args, kwargs, result, failed):
    if not failed:
        c["cli.exit.%s" % result] += 1


ANNOTATE = {
    "docfiles.parse_document": _parse, "docfiles.emit_document": _emit,
    "categories.validate_category": _validate, "categories.enumerate_functors": _functors,
    "lconvex.closure": _closure, "lconvex.member": _member, "lconvex.grid_members": _grid,
    "duality.is_homomorphism": _is_hom, "duality.enumerate_homs": _homs,
    "cli.main": _cli_main,
}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.calls = Counter()      # span name -> calls
        self.total = Counter()      # span name -> summed duration
        self.self_time = Counter()  # span name -> summed self time
        self.spans = []             # (id, parent id, request, name, start, end)
        self.dropped = 0
        self.request = None
        self._stack = []            # [span id, child time]
        self._next_id = 0
        self._patched = []
        self._wrappers = {}
        self.t0 = time.perf_counter()

    # --- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        annotate = ANNOTATE.get(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            failed = True
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if len(self.spans) < MAX_STORED_SPANS:
                    self.spans.append((span_id, parent, self.request, name,
                                       start - self.t0, end - self.t0))
                else:
                    self.dropped += 1
                if annotate is not None:
                    annotate(self.counts, args, kwargs, result, failed)

        return traced

    def _counter(self, fn, metric):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn):
        if fn not in self._wrappers:
            module = fn.__module__.split(".", 1)[-1]
            name = "%s.%s" % (module, fn.__name__)
            wrapper = None
            if module in SPANNED_MODULES and not fn.__name__.startswith("_") or name in SPANNED_EXTRA:
                wrapper = self._span(fn, name)
            elif module == "scalars":
                for metric, names in COUNTED.items():
                    if fn.__name__ in names:
                        wrapper = self._counter(fn, metric)
            self._wrappers[fn] = wrapper
        return self._wrappers[fn]

    # --- installation -----------------------------------------------------

    def install(self, modules):
        """Trace calls made through the given lcdual modules' namespaces."""
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj.__module__.startswith("lcdual."):
                    wrapper = self._wrap(obj)
                    if wrapper is not None:
                        self._patched.append((module, attr, obj))
                        setattr(module, attr, wrapper)
                elif (isinstance(obj, type) and obj.__module__ == "lcdual.lattices"
                      and obj not in self._wrappers):
                    self._wrappers[obj] = None
                    for op in LATTICE_OPS:
                        fn = obj.__dict__.get(op)
                        if isinstance(fn, FunctionType):
                            self._patched.append((obj, op, fn))
                            setattr(obj, op, self._counter(fn, "lattices.op_calls"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results ----------------------------------------------------------

    def metrics(self):
        out = {name: (sum(self.total[s] for s in spans), "s") for name, spans in BUSY.items()}
        out.update({name: (self.counts[name], "count") for name in COUNTS})
        out["cli.main.self_s"] = (self.self_time["cli.main"], "s")
        c = self.counts
        out["categories.functors.yield"] = (
            c["categories.functors.found"] / c["categories.functors.candidates"]
            if c["categories.functors.candidates"] else 0.0, "ratio")
        out["lconvex.member.accept_ratio"] = (
            c["lconvex.member.accepted"] / c["lconvex.member.queries"]
            if c["lconvex.member.queries"] else 0.0, "ratio")
        return out

    def report(self):
        """Everything recorded, for writing out at the end of a run."""
        return {
            "summary": {name: {"calls": self.calls[name], "total_s": self.total[name],
                               "self_s": self.self_time[name]} for name in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }
