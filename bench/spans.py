"""Span tracing of digtopo from outside the program.

A Tracer replaces chosen digtopo functions by timing wrappers at every
module or class attribute that refers to them (a function imported into
three modules is wrapped three times), records one span per call, and puts
the originals back on restore().  Spans hold a group name, start, end,
parent span and request id; they are kept in typed arrays in memory and
written out once, when the run ends.

Only calls on the thread that installed the tracer are recorded: the
library's worker threads run the unwrapped search kernel and call none of
the wrapped functions.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

#: (span group, module, attribute path) of every wrapped function.
TARGETS = (
    ("cli.run", "digtopo.cli", "run"),
    ("fileio.load", "digtopo.fileio", "load_image"),
    ("fileio.load", "digtopo.fileio", "load_subset"),
    ("fileio.load", "digtopo.fileio", "load_map"),
    ("image.build", "digtopo.image", "build_box"),
    ("image.build", "digtopo.image", "build_from_points"),
    ("image.build", "digtopo.image", "build_explicit"),
    ("image.build", "digtopo.image", "build_cycle"),
    ("image.build", "digtopo.image", "cycle_grid"),
    ("image.build", "digtopo.image", "product"),
    ("image.build", "digtopo.image", "induced"),
    ("image.metric", "digtopo.image", "_all_pairs_distances"),
    ("image.metric", "digtopo.image", "DigitalImage.dist_lists"),
    ("maps.search", "digtopo.maps", "run_counterexample_search"),
    ("maps.enum", "digtopo.maps", "continuous_maps_between"),
    ("maps.maptable", "digtopo.maps", "MapTable.__post_init__"),
    ("maps.classify", "digtopo.maps", "classify_cycle_map"),
    ("maps.cycle_indexing", "digtopo.maps", "cycle_indexing"),
    ("maps.is_continuous", "digtopo.maps", "is_continuous"),
    ("maps.rigidity", "digtopo.maps", "is_rigid"),
    ("maps.rigidity", "digtopo.maps", "only_identity_is_1map"),
    ("limiting.verdict", "digtopo.limiting", "is_limiting"),
    ("limiting.verdict", "digtopo.limiting", "is_freezing"),
    ("limiting.verdict", "digtopo.limiting", "is_s_cold"),
    ("limiting.minimal_check", "digtopo.limiting", "is_minimal_limiting"),
    ("limiting.find_minimal", "digtopo.limiting", "find_minimal_limiting_sets"),
    ("limiting.profile", "digtopo.limiting", "limiting_profile"),
    ("metrics.continuity", "digtopo.metrics", "metric_of_continuity"),
    ("metrics.hausdorff", "digtopo.metrics", "hausdorff"),
)

GENERATORS = {"continuous_maps_between"}


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self.group = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.top = array("b")  # 1 when no span of the same group is open
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.request_id = -1
        self._stack = [-1]
        self._active = Counter()
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, gid: int) -> int:
        sid = len(self.group)
        self.group.append(gid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.top.append(self._active[gid] == 0)
        self.end.append(0.0)
        self._active[gid] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._active[self.group[sid]] -= 1

    def _on_result(self, attr: str, result) -> None:
        if attr == "run_counterexample_search":
            self.counters["search.calls"] += 1
            self.counters["search.nodes"] += result.nodes
            self.counters["search.witness"] += result.status == "witness"
        elif attr == "find_minimal_limiting_sets":
            self.counters["minimal.found"] += len(result.sets)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, gid: int, attr: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            sid = tracer._open(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer._on_result(attr, result)
            return result

        return wrapper

    def _wrap_cache_miss(self, fn, gid: int):
        # dist_lists is a cached method: only a miss does work worth a span.
        plain = self._wrap(fn, gid, "dist_lists")

        @functools.wraps(fn)
        def wrapper(img):
            return fn(img) if img._dist_lists is not None else plain(img)

        return wrapper

    def _wrap_generator(self, fn, gid: int):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._traced_items(fn(*args, **kwargs), gid)

        return wrapper

    def _traced_items(self, gen, gid: int):
        """Re-yield gen's items with one span around each step of it."""
        try:
            while True:
                sid = self._open(gid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                self.counters["enum.maps"] += 1
                yield item
        finally:
            gen.close()

    # -- install and restore -----------------------------------------------

    def install(self) -> None:
        """Wrap every target at every digtopo attribute that refers to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "digtopo" or name.startswith("digtopo.")]
        for group, modname, path in TARGETS:
            gid = self._gid.setdefault(group, len(self.groups))
            if gid == len(self.groups):
                self.groups.append(group)
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[modname]
            if owner_name:
                owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap_cache_miss(original, gid) if attr == "dist_lists" \
                    else self._wrap(original, gid, attr)
                self._patch(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap_generator(original, gid) if attr in GENERATORS \
                else self._wrap(original, gid, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put back every original attribute, in reverse order."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay free to grow after an analysis.
        return {
            "group": np.array(self.group, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
            "top": np.array(self.top, dtype=bool),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per group: calls and inclusive seconds of spans with no open span of
        the same group above them, and self seconds (duration minus the time
        covered by child spans) of all its spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.groups)
        top = a["top"]
        calls = np.bincount(a["group"][top], minlength=k)
        incl = np.bincount(a["group"][top], weights=dur[top], minlength=k)
        selfs = np.bincount(a["group"], weights=own, minlength=k)
        out = {
            g: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
            for i, g in enumerate(self.groups)
        }
        # Verdicts reached from find-minimal: the subsets it searched.
        parents = a["parent"][a["group"] == self._gid["limiting.verdict"]]
        fm = self._gid["limiting.find_minimal"]
        out["limiting.verdict"]["in_find_minimal"] = int(
            np.count_nonzero((parents >= 0) & (a["group"][np.maximum(parents, 0)] == fm))
        )
        return out

    def write(self, path: str) -> None:
        """Write every span and counter to an .npz file."""
        np.savez(path, groups=np.array(json.dumps(self.groups)),
                 counters=np.array(json.dumps(dict(self.counters))), **self.arrays())
