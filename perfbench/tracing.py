"""Outside-in trace of the softmpc layers.

The tracer replaces each public module-level function of the traced layers
(and the entry methods PriorityController.step and SurrogateModel.infer)
with a timing wrapper, in every softmpc module that imported it, and puts
the originals back on uninstall. Spans are kept in memory; callbacks of the
NlpDescription a solve receives are not spans but timed in aggregate on
the solve that called them, because a solve makes thousands of them.

Every callable field of the NlpDescription is wrapped, whatever its name,
so the trace follows a change of the callback interface. Nominal and
relaxed solves are tagged by the ocp builder that made their problem;
oracle solves by the template kind of the enclosing oracle_solve.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import sys
import time
import weakref

import stats

LAYERS = ("environment", "controller", "ocp", "oracle", "sqp", "surrogate")
ENTRY_METHODS = {"controller": [("PriorityController", "step")],
                 "surrogate": [("SurrogateModel", "infer")]}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "children",
                 "callbacks", "tag", "info", "error")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.children = []
        self.callbacks = {}      # field -> [seconds, calls, horizon passes]
        self.tag = None
        self.info = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def callback_time(self) -> float:
        return sum(v[0] for v in self.callbacks.values())

    @property
    def self_time(self) -> float:
        return stats.self_time(
            self.duration,
            [c.duration for c in self.children] + [self.callback_time])


    @property
    def accounted_time(self) -> float:
        """Time the subtree accounts for: self times, clamped at zero, plus
        callback times. Equals the duration unless callbacks counted on a
        span overrun it."""
        return (max(self.self_time, 0.0) + self.callback_time
                + sum(c.accounted_time for c in self.children))


def _is_horizon_pass(args) -> bool:
    """A per-stage callback starts a horizon pass at stage 0; a callback
    without a leading stage index is a whole pass by itself."""
    return not args or not isinstance(args[0], int) or args[0] == 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.roots = []
        self._stack = []
        self._in_callback = 0
        self._undo = []
        self._nlp_tags = {}      # id(nlp) -> (weakref, tag)

    # -- installation ---------------------------------------------------------
    def install(self, package="softmpc") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._undo.append((m, attr, fn))
                            setattr(m, attr, wrapper)
            for cls_name, meth in ENTRY_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, f"{layer}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ------------------------------------------------------------------
    def _wrap(self, layer, name, fn):
        short = name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_callback:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, parent)
            (parent.children if parent else self.roots).append(span)
            if short == "solve":
                args = self._prepare_solve(span, args, kwargs)
            elif short == "oracle_solve" and args:
                span.info["kind"] = getattr(args[0], "kind", "unknown")
            self._stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            self._annotate(span, short, result)
            return result
        return wrapper

    def _prepare_solve(self, span, args, kwargs):
        nlp = args[0] if args else kwargs["nlp"]
        entry = self._nlp_tags.pop(id(nlp), None)
        if entry is not None and entry[0]() is nlp:
            span.tag = entry[1]
        else:
            span.tag = "other"
            for anc in self._ancestors(span):
                if anc.name == "oracle.oracle_solve":
                    span.tag = f"oracle_{anc.info.get('kind', 'unknown')}"
                    break
        traced = copy.copy(nlp)
        for f in dataclasses.fields(nlp):
            value = getattr(nlp, f.name)
            if callable(value):
                setattr(traced, f.name, self._wrap_callback(span, f.name, value))
        if args:
            return (traced,) + tuple(args[1:])
        kwargs["nlp"] = traced
        return args

    def _wrap_callback(self, span, field, fn):
        stat = span.callbacks.setdefault(field, [0.0, 0, 0])

        def callback(*args, **kwargs):
            self._in_callback += 1
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += self.clock() - t0
                stat[1] += 1
                stat[2] += _is_horizon_pass(args)
                self._in_callback -= 1
        return callback

    @staticmethod
    def _ancestors(span):
        node = span.parent
        while node is not None:
            yield node
            node = node.parent

    def _annotate(self, span, short, result):
        if short == "solve":
            span.info = {"sqp_iters": result.sqp_iterations,
                         "ip_iters": result.ip_iterations,
                         "status": result.status}
        elif (span.layer == "ocp" and short.startswith("build_")
              and dataclasses.is_dataclass(result)):
            # an ocp problem builder: tag the solve of what it made
            self._nlp_tags[id(result)] = (weakref.ref(result), short[6:])
        elif short == "oracle_solve":
            span.info["feasible"] = bool(result[0])
        elif short == "step":
            span.info["branch"] = result.branch

    # -- queries ----------------------------------------------------------------
    def walk(self):
        todo = list(reversed(self.roots))
        while todo:
            span = todo.pop()
            yield span
            todo.extend(reversed(span.children))

