"""Span tracing of entropy_kit's layers from outside the package.

``Tracer`` replaces each traced public function by a recording wrapper in
every namespace that imported it: the package, its other modules and the
benchmark's workload module.  The defining module keeps the original, so
calls inside one module are not split into spans and the layer's self
time is unaffected.  ``DensityOperator`` constructions are caught at the
class, through ``__post_init__``, wherever they happen.  Leaving the
``with`` block puts every original back.

A span is eight int64 fields: id, name id, parent id (-1 at the top), op
id, start and end in ns, flags (bit 0: raised, bit 1: the (q, s) point
lies in a limit window) and a detail value (the dimension of a
construction).  Spans stay in memory in one ``array`` until ``save``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

from entropy_kit import bounds, cli, entropies, linops, verify
from entropy_kit.linops import DensityOperator
from entropy_kit.tolerances import TOL

import workloads

RAISED = 1
IN_LIMIT = 2
FIELDS = 8

DENSITY = "linops.density"
LINOPS_GROUPS = {
    "linops.composite": ("tensor", "partial_trace", "purify", "pinch"),
    "linops.sampling": (
        "random_density",
        "random_unitary",
        "random_resolution",
        "ensemble_from_state",
    ),
    "linops.trace_distance": ("trace_distance",),
}


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def traced_functions() -> list[tuple[object, str, str]]:
    """(defining module, function name, span group) for every traced function."""
    out = [
        (linops, name, group)
        for group, names in LINOPS_GROUPS.items()
        for name in names
    ]
    for module, group in ((entropies, "entropies"), (bounds, "bounds"), (verify, "verify")):
        out += [(module, name, group) for name in _public_functions(module)]
    out.append((cli, "main", "cli"))
    return out


def _limit_flag(fn):
    """A function of (args, kwargs) giving IN_LIMIT when the call's (q, s)
    lies in a documented limit window, or None if fn takes no index."""
    names = list(inspect.signature(fn).parameters)

    def arg(args, kwargs, name):
        i = names.index(name)
        return args[i] if i < len(args) else kwargs.get(name)

    if "params" in names:
        def flag(args, kwargs):
            p = arg(args, kwargs, "params")
            return IN_LIMIT if p.is_q_limit or p.is_s_limit else 0
        return flag
    if "q" in names:
        has_s = "s" in names

        def flag(args, kwargs):
            q = arg(args, kwargs, "q")
            if abs(q - 1.0) < TOL.q_limit:
                return IN_LIMIT
            s = arg(args, kwargs, "s") if has_s else None
            return IN_LIMIT if s is not None and abs(s) < TOL.s_limit else 0
        return flag
    return None


class Tracer:
    """Records spans around calls into linops, entropies, bounds, verify and cli."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.op = -1
        self._next = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, fn, name_of, flag_of=None, detail_of=None):
        """Wrap fn; name_of(args) gives the span's name id."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._next
            tracer._next = idx + 1
            parent = stack[-1]
            flags = 0
            if flag_of is not None:
                try:
                    flags = flag_of(args, kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    flags = 0
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                flags |= RAISED
                raise
            finally:
                t1 = clock()
                stack.pop()
                detail = detail_of(args) if detail_of is not None else 0
                spans.extend((idx, name_of(args), parent, tracer.op, t0, t1, flags, detail))

        return wrapper

    def _namespaces(self):
        mods = [
            m
            for name, m in list(sys.modules.items())
            if name == "entropy_kit" or name.startswith("entropy_kit.")
        ]
        return mods + [workloads]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for module, fname, group in traced_functions():
            original = getattr(module, fname)
            if fname == "run_check":
                def name_of(args, group=group):
                    return self.name_id(f"{group}.{args[0]}:run_check")
            else:
                nid = self.name_id(f"{group}:{fname}")

                def name_of(args, nid=nid):
                    return nid
            flag_of = _limit_flag(original) if group == "entropies" else None
            wrapper = self._record(original, name_of, flag_of)
            for ns in namespaces:
                if ns is module:
                    continue
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

        post_init = DensityOperator.__post_init__
        density_id = self.name_id(f"{DENSITY}:DensityOperator")

        def dimension(args):
            op = getattr(args[0], "op", None)
            return getattr(op, "dim", 0)

        self._restore.append((DensityOperator, "__post_init__", post_init))
        DensityOperator.__post_init__ = self._record(
            post_init, lambda args: density_id, detail_of=dimension
        )

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)

    def save(self, path) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names))

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, flag and detail sums.

        Self time is a span's duration minus the durations of its direct
        children.  Also returns per-name counts of outermost calls (whose
        parent has another group) that returned normally.
        """
        t = self.table()
        n = len(t)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "limit": 0,
                      "detail3": 0, "outer": 0, "outer_ok": 0} for name in self.names}
        if n == 0:
            return out
        ids, nids, parents = t[:, 0], t[:, 1], t[:, 2]
        dur = (t[:, 5] - t[:, 4]) / 1e9
        row_of = np.empty(n, dtype=np.int64)
        row_of[ids] = np.arange(n)
        has_parent = parents >= 0
        parent_rows = row_of[parents[has_parent]]
        child = np.bincount(parent_rows, weights=dur[has_parent], minlength=n)
        self_s = dur - child
        group_of = np.array([name.split(":")[0].split(".")[0] for name in self.names])
        parent_group = np.full(n, "", dtype=group_of.dtype)
        parent_group[has_parent] = group_of[nids[parent_rows]]
        outer = parent_group != group_of[nids]
        ok = (t[:, 6] & RAISED) == 0
        limit = (t[:, 6] & IN_LIMIT) != 0
        cube = t[:, 7].astype(np.float64) ** 3
        for nid, name in enumerate(self.names):
            m = nids == nid
            out[name] = {
                "calls": int(m.sum()),
                "total_s": float(dur[m].sum()),
                "self_s": float(self_s[m].sum()),
                "limit": int(limit[m].sum()),
                "detail3": int(cube[m].sum()),
                "outer": int((m & outer).sum()),
                "outer_ok": int((m & outer & ok).sum()),
            }
        return out
