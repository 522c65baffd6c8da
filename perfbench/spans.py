"""Span tracing of distprod's layers, installed from outside the program.

``installed(tracer)`` wraps the public functions and methods of the traced
modules, plus the private quadrature steps of ``pairing``, and rebinds each
wrapped function in every distprod module that imported it by name (``cli``
and ``extension`` import ``limit_pairing`` that way).  Every call then
records a span: name, start, end, parent span, operation id, the number of
points or panels it was handed, and flags.  Spans live in flat arrays for one
pass of the workload; ``Tracer.summary`` turns a pass into per-layer numbers
and ``Tracer.write`` saves it.

A span's self time is its duration minus the time its child spans cover; a
layer's busy time is the length of the union of its spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "extension", "pairing", "testfn", "boundary", "ratfun")
PRIVATE = {"pairing": ("_panel_rule", "_adaptive_quadrature", "_integration_radius")}
# Span names for methods the metrics name after their layer rather than class.
RENAME = {
    "boundary.HyperfunctionPair.regulated": "boundary.regulated",
    "ratfun.RationalFunction.__call__": "ratfun.eval",
    "testfn.TestFunction.__call__": "testfn.TestFunction",
    "testfn.PlateauCutoff.__call__": "testfn.PlateauCutoff",
    "extension.SubtractedFunction.__call__": "extension.SubtractedFunction",
}
# Which positional argument holds the evaluation points (or, for
# _panel_rule, the panels) whose number a span records.
SIZED = {
    "boundary.regulated": 1,
    "ratfun.eval": 1,
    "testfn.TestFunction": 1,
    "testfn.PlateauCutoff": 1,
    "extension.SubtractedFunction": 1,
    "pairing.integrand": 0,
    "pairing._panel_rule": 1,
}

RAISED, REPEAT, TRUNCATED = 1, 2, 4


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1
        self.reset()

    def reset(self):
        self.name, self.parent, self.opid = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.size, self.flags = array("q"), array("b")
        self._stack = [-1]
        self._seen: set = set()

    def begin_op(self, op: int):
        self.op = op
        self._seen = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, size: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.opid.append(self.op)
        self.size.append(size)
        self.flags.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def seen(self, key) -> bool:
        """True if key already ran in the current operation."""
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    # -- per-pass numbers ------------------------------------------------

    def arrays(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end),
                np.array(self.size, dtype=np.int64), np.array(self.flags, dtype=np.int8))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s, size and flag counts."""
        name, parent, start, end, size, flags = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
        selfs = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            idx = np.flatnonzero(name == nid)
            s, e, f = start[idx], end[idx], flags[idx]
            # union of intervals sorted by start: only the part past all earlier ends
            prev_end = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
            out[label] = {
                "calls": len(idx),
                "busy_s": float(np.sum(np.clip(e - np.maximum(s, prev_end), 0.0, None))),
                "self_s": float(np.sum(selfs[idx])),
                "size": int(np.sum(size[idx])),
                "raised": int(np.count_nonzero(f & RAISED)),
                "repeat": int(np.count_nonzero(f & REPEAT)),
                "truncated": int(np.count_nonzero(f & TRUNCATED)),
            }
        return out

    def child_stats(self, label: str, parent_label: str) -> tuple[int, int]:
        """(calls, summed size) of `label` spans whose parent is a `parent_label` span."""
        if label not in self._ids or parent_label not in self._ids:
            return 0, 0
        name, parent, _, _, size, _ = self.arrays()
        mine = (name == self._ids[label]) & (parent >= 0)
        mine[mine] = name[parent[mine]] == self._ids[parent_label]
        return int(np.count_nonzero(mine)), int(np.sum(size[mine]))

    def count_under(self, label: str, ancestor: str) -> int:
        """Spans named `label` with an `ancestor` span above them."""
        if label not in self._ids or ancestor not in self._ids:
            return 0
        name, parent, *_ = self.arrays()
        target = self._ids[ancestor]
        under = np.zeros(len(name), dtype=bool)
        up = parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            under[live] |= name[up[live]] == target
            up = np.where(live, parent[np.maximum(up, 0)], -1)
        return int(np.count_nonzero(under & (name == self._ids[label])))

    def write(self, path):
        """Save the pass's spans as tab-separated text, one span a line."""
        name, parent, start, end, size, flags = self.arrays()
        t0 = start[0] if len(start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\top\tstart_s\tend_s\tsize\tflags\n")
            for i in range(len(name)):
                fh.write(f"{i}\t{self.names[name[i]]}\t{parent[i]}\t{self.opid[i]}\t"
                         f"{start[i] - t0:.9f}\t{end[i] - t0:.9f}\t{size[i]}\t{flags[i]}\n")


def _span(tracer: Tracer, fn, label: str, after=None):
    """fn wrapped to record one span per call."""
    nid = tracer.name_id(label)
    arg = SIZED.get(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        size = 0
        if arg is not None and len(args) > arg:
            size = len(args[arg]) if label == "pairing._panel_rule" else int(np.size(args[arg]))
        i = tracer.open(nid, size)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.flags[i] |= RAISED
            raise
        finally:
            tracer.close(i)
        if after is not None:
            after(i, args, kwargs, result)
        return result

    return traced


def _phi_key(phi):
    omega = getattr(phi, "omega", None)
    if omega is not None:        # SubtractedFunction
        return (phi.phi, omega.plateau, omega.support, omega.max_order, phi.p)
    return phi


def _limit_pairing_hook(tracer: Tracer, signature):
    def after(i, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        expr = a["expr"]
        key = (expr.label, expr.powers, _phi_key(a["phi"]), a["schedule"], a["tol"])
        if tracer.seen(key):
            tracer.flags[i] |= REPEAT
        if len(result.y_values) < a["schedule"].count:
            tracer.flags[i] |= TRUNCATED
    return after


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace distprod's layers for the duration of the block."""
    modules = {m: importlib.import_module(f"distprod.{m}") for m in MODULES}
    patches = []          # (owner, attribute, original)
    rebind = {}           # original function -> wrapper

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in PRIVATE.get(short, ())):
                after = (_limit_pairing_hook(tracer, inspect.signature(obj))
                         if attr == "limit_pairing" else None)
                rebind[obj] = _span(tracer, obj, f"{short}.{attr}", after)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__call__":
                        continue
                    label = f"{short}.{obj.__name__}.{meth}"
                    label = RENAME.get(label, label)
                    if inspect.isfunction(fn):
                        patch(obj, meth, _span(tracer, fn, label))
                    elif isinstance(fn, (classmethod, staticmethod)):
                        patch(obj, meth, type(fn)(_span(tracer, fn.__func__, label)))
        if short == "pairing":
            factory = mod._integrand

            def integrand(*args, _factory=factory):
                return _span(tracer, _factory(*args), "pairing.integrand")

            patch(mod, "_integrand", integrand)

    for name, mod in list(sys.modules.items()):
        if name == "distprod" or name.startswith("distprod."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in rebind:
                    patch(mod, attr, rebind[obj])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
