"""Spans around calls into qsymq's public functions, recorded from outside
the package.

``Tracer.install`` replaces each traced function with a wrapper wherever a
loaded ``qsymq`` module binds it, so names imported into another module
(``quotient.fundamental_qsym``, ``qsym.refinements``, ``cli.is_dyck``, ...)
are wrapped where they are looked up, and methods are wrapped on their
class.  A span is ``[name, start, end, parent, request, extra]``: times come
from CLOCK_MONOTONIC, which every process on the machine shares, ``parent``
is the index of the enclosing span or -1, and ``extra`` holds counts taken
from the return value.  Spans stay in memory until the caller writes them.
"""

import importlib
import sys
import time
from collections import defaultdict


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _len(key):
    return lambda result: {key: len(result)}


# (module, attribute, span name, counts taken from the return value)
SPANS = [
    ("qsymq.quotient", "GBasis.normal_form", "quotient.normal_form",
     lambda r: {"steps": len(r.certificate), "remainder_terms": len(r.remainder)}),
    ("qsymq.quotient", "GBasis._g", "quotient.g", _len("g_terms")),
    ("qsymq.poly", "Polynomial.__mul__", "poly.mul", None),
    ("qsymq.poly", "Polynomial.__add__", "poly.add", None),
    ("qsymq.poly", "Polynomial.__sub__", "poly.add", None),
    ("qsymq.qsym", "fundamental_qsym", "qsym.fundamental_qsym", _len("fundamental_terms")),
    ("qsymq.qsym", "monomial_qsym", "qsym.monomial_qsym", None),
    ("qsymq.qsym", "f_product", "qsym.f_product", None),
    ("qsymq.combinat", "refinements", "combinat.refinements", _len("refinements_out")),
    ("qsymq.combinat", "shuffles", "combinat.shuffles", _len("shuffles_out")),
    ("qsymq.combinat", "is_dyck", "combinat.is_dyck", None),
    ("qsymq.combinat", "vectors_of_degree", "combinat.vectors_of_degree", None),
    ("qsymq.oracle", "ideal_degree_rank", "oracle.ideal_degree_rank",
     lambda r: {"rank": r}),
    ("qsymq.cli", "main", "cli.main", None),
    ("qsymq.cli", "parse_polynomial", "cli.parse_polynomial", None),
    ("qsymq.cli", "render_polynomial", "cli.render_polynomial", None),
]

# Calls that get no span: ``GBasis._g`` (which ``g``, ``g_element`` and
# ``normal_form`` all go through) is a memo lookup when the element exists,
# and only a build is a ``quotient.g`` span.
SKIP = {"quotient.g": lambda basis, eps: eps in basis._memo}

# Generator functions: the wrapper drains the generator inside the span (so
# the span covers the work) and hands the caller an iterator over the items.
GENERATORS = {"combinat.vectors_of_degree"}

# Counted but not timed, so their time stays in the enclosing oracle span.
COUNTERS = [
    ("qsymq.oracle", "degree_columns", "columns"),
    ("qsymq.oracle", "slice_generators", "generator_rows"),
]


class Tracer:
    def __init__(self, request=None):
        self.spans = []
        self.counts = defaultdict(int)
        self.request = request
        self._stack = []
        self._undo = []

    def _span(self, name, fn, extra):
        spans, stack = self.spans, self._stack
        drain, skip = name in GENERATORS, SKIP.get(name)

        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(result)
            return iter(result) if drain else result

        return wrapper

    def _counter(self, key, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += len(result)
            return result

        return wrapper

    def _replace(self, module_name, attribute, wrap):
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner_name, attribute = attribute.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, wrap(original))
            self._undo.append((owner, attribute, original))
            return
        original = getattr(module, attribute)
        wrapper = wrap(original)
        for name, loaded in list(sys.modules.items()):
            if name != "qsymq" and not name.startswith("qsymq."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._undo.append((loaded, key, original))

    def install(self):
        """Wrap every traced function, importing its module if needed."""
        for module, attribute, name, extra in SPANS:
            self._replace(module, attribute, lambda fn: self._span(name, fn, extra))
        for module, attribute, key in COUNTERS:
            self._replace(module, attribute, lambda fn: self._counter(key, fn))

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def absorb(self, spans, counts):
        """Append spans recorded by another process, keeping parent links."""
        offset = len(self.spans)
        for name, start, end, parent, request, extra in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               request, extra])
        for key, value in counts.items():
            self.counts[key] += value


# ---------------------------------------------------------------------------
# aggregation


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = [(max(start, spans[c][1]), min(end, spans[c][2])) for c in children[index]]
        out.append(end - start - union_length([iv for iv in covered if iv[1] > iv[0]]))
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, self seconds and summed counts.  A span whose
    parent has the same name (``__sub__`` calling ``__add__``, a recursive
    generator, a G element built while building another) is part of its
    parent's call: its self time counts, its call and its counts do not."""
    totals = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        name, parent, extra = span[0], span[3], span[5]
        entry = totals[name]
        entry["self_s"] += own
        if parent >= 0 and spans[parent][0] == name:
            continue
        entry["calls"] += 1
        for key, value in (extra or {}).items():
            entry[key] += value
    return totals
