"""Span tracer that wraps ``retword`` from outside.

Every public function of each layer module, and every public method of the
classes those modules define, is replaced by a wrapper that records a span:
name, job id, parent span, start and end.  Modules import each other's
functions by name (``from .returns import return_substitution``), so each
binding of a wrapped function in every ``retword`` module is replaced, not
just the defining one.  Spans stay in compact arrays until the run ends;
self time (a span's duration minus that of its direct children) is computed
from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "substitution", "words", "returns", "intpoly", "spectrum", "relations", "circularity", "periodic")

# Dunder methods that carry a layer's work and are traced by these names.
DUNDERS = {("words", "Word", "__init__"): "init", ("substitution", "Morphism", "__call__"): "call"}


def _buffer_length(args, kwargs):
    return len(args[0])


class Tracer:
    """The spans of one traced run, one array per field, plus hook counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.job_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.max_dim = 0

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        before = _BEFORE.get(name)
        name_col, job_col, parent_col = self.name_col, self.job_col, self.parent_col
        start_col, end_col, stack = self.start_col, self.end_col, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            job_col.append(self.job)
            parent_col.append(stack[-1] if stack else -1)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            token = before(args, kwargs) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter()
                start_col[idx] = t0
                stack.pop()
            if hook:
                hook(self, name, token, args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every layer; returns how many functions and methods were wrapped."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"retword.{layer}"]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapper = self.wrap(value, f"{layer}.{attr}")
                    replaced[id(value)] = wrapper
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
        for name, mod in list(sys.modules.items()):
            if name == "retword" or name.startswith("retword."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replaced:
                        setattr(mod, attr, replaced[id(value)])
        return len(self.names)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            label = DUNDERS.get((layer, cls.__name__, attr))
            if label is None and attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{label or attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name))

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the hook counters."""
        n = len(self.start_col)
        dur = [e - s for s, e in zip(self.start_col, self.end_col)]
        child = [0.0] * n
        for i, p in enumerate(self.parent_col):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, nid in enumerate(self.name_col):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return {
            "spans": n,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "max_dim": self.max_dim,
        }


def _count_letters(tr, name, token, args, kwargs, result):
    tr.counts[name + ".letters"] += len(args[0]) - token


def _word_letters(tr, name, token, args, kwargs, result):
    letters = args[2] if len(args) > 2 else kwargs["letters"]
    tr.counts[name + ".letters"] += len(letters)


def _return_system(tr, name, token, args, kwargs, result):
    tr.counts[name + ".return_words"] += result[0].count
    tr.keys[name].add((hash(args[0]), hash(args[1].letters)))


def _char_poly(tr, name, token, args, kwargs, result):
    tr.keys[name].add(hash(args[0].rows))
    tr.max_dim = max(tr.max_dim, args[0].nrows)


_BEFORE = {"substitution.FixedPointPrefix.ensure": _buffer_length}
_HOOKS = {
    "substitution.FixedPointPrefix.ensure": _count_letters,
    "words.Word.init": _word_letters,
    "returns.return_substitution": _return_system,
    "spectrum.char_poly": _char_poly,
}
