"""Spans and counters recorded from outside convlab.

`Tracer` keeps every span in memory (name, parent, request id, start, end)
in compact columns and turns them into per-name call counts and self times
once the run is over.  `instrument` wraps convlab's public entry points in
place and puts the originals back on exit, so an untraced pass in the same
process runs the unmodified code.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter, defaultdict


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals.  Children may overlap
    each other or stick out of their parent; only the covered part inside
    the parent counts once."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        kids = children.get(i)
        if kids:
            cur_lo = cur_hi = None
            for lo, hi in sorted((max(starts[k], s), min(ends[k], e)) for k in kids):
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.request_id = 0
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        """A callable that records a span named `name` around `fn`;
        `on_result(tracer, result)` runs after a successful call."""
        nid = self._name_id(name)
        clock, stack = self.clock, self._stack
        starts, ends, parents, names, requests = (
            self.start, self.end, self.parent, self.name, self.request)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def summary(self):
        """{name: (calls, self_s)} over every recorded span."""
        selfs = self_times(self.start, self.end, self.parent)
        calls = Counter()
        total = defaultdict(float)
        for nid, st in zip(self.name, selfs):
            calls[self.names[nid]] += 1
            total[self.names[nid]] += st
        return {n: (calls[n], total[n]) for n in self.names}


# ---------------------------------------------------------------------------
# Where the spans go


def _count_terms(tracer, result):
    tracer.counts["series.terms.count"] += len(result)


def _sum_n_used(tracer, result):
    tracer.counts["series.n_used.sum"] += result.n_used


def _quad_err(tracer, result):
    err = float(result[1])
    if err > tracer.maxima["space.quad.max_err"]:
        tracer.maxima["space.quad.max_err"] = err


# (module suffix, attribute, span name, result hook)
FUNCTION_TARGETS = (
    ("space", "quad", "space.quad", _quad_err),
    ("space", "expectation", "space.expectation", None),
    ("space", "expectation_joint", "space.expectation_joint", None),
    ("space", "char_fn", "space.char_fn", None),
    ("space", "diff_abs", "space.diff_abs", None),
    ("space", "cdf", "space.cdf", None),
    ("series", "analyze_series", "series.analyze_series", _sum_n_used),
    ("series", "null_sequence_test", "series.null_sequence_test", _sum_n_used),
    ("series", "load_terms_csv", "series.load_terms_csv", None),
    ("modes", "check_mode", "modes.check_mode", None),
    ("modes", "generic_term", "modes.generic_term", None),
    ("registry", "soundness_sweep", "registry.soundness_sweep", None),
    ("registry", "build_family", "registry.build_family", None),
)


def _convlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "convlab" or name.startswith("convlab."))]


@contextlib.contextmanager
def patched(patches):
    """Set (obj, attr, value) triples; restore the old values on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


@contextlib.contextmanager
def instrument(tracer):
    """Wrap convlab's layer entry points with spans for the duration of the
    block.  Every module-level binding of a wrapped function is replaced,
    so calls through `from .x import f` names are seen too."""
    import convlab.modes
    import convlab.series

    modules = _convlab_modules()
    patches = []
    for suffix, attr, span, hook in FUNCTION_TARGETS:
        original = getattr(sys.modules["convlab." + suffix], attr)
        wrapped = tracer.wrap(span, original, hook)
        for mod in modules:
            for key, value in vars(mod).items():
                if value is original:
                    patches.append((mod, key, wrapped))

    family = convlab.modes.Family
    term_source_cls = convlab.series.TermSource
    counts = tracer.counts
    orig_init, orig_member, orig_diff = family.__init__, family.member, family.diff

    def init(self, name, params, limit, member_fn, meta):
        def build_member(n):
            counts["modes.member_cache.builds"] += 1
            return member_fn(n)

        orig_init(self, name, params, limit, build_member, meta)
        meta.term_source = _traced_term_source(tracer, meta.term_source, term_source_cls)

    def member(self, n):
        counts["modes.member_cache.lookups"] += 1
        return orig_member(self, n)

    def diff(self, n):
        counts["modes.diff_cache.lookups"] += 1
        return orig_diff(self, n)

    patches += [
        (family, "__init__", init),
        (family, "member", member),
        (family, "diff", diff),
        (term_source_cls, "terms",
         tracer.wrap("series.terms", term_source_cls.terms, _count_terms)),
    ]
    with patched(patches):
        yield tracer


def _traced_term_source(tracer, term_source, term_source_cls):
    """Count term_source lookups and wrap each closed-form generator it
    hands out in a `registry.generator` span."""

    def lookup(mode, probe, params):
        tracer.counts["registry.term_source.calls"] += 1
        src = term_source(mode, probe, params)
        if isinstance(src, term_source_cls):
            tracer.counts["registry.term_source.analytic"] += 1
            src.generator = tracer.wrap("registry.generator", src.generator)
        return src

    return lookup
