"""In-memory span tracer for the traced benchmark run.

The tracer wraps shelfhom's public functions at module boundaries from the
outside; nothing in the package is edited.  A wrapper replaces the original
object wherever a shelfhom module holds it, so names imported into other
modules (``chain.smith_normal_form``, ``scans.enumerate_shelves``, ...)
are traced too.  ``ProcessPoolExecutor`` is replaced, in the same way, by a
subclass that runs each mapped item under a span in the forked worker and
ships the worker's spans back with the item's result.

Spans are kept in memory and written out by the caller at the end.  A span
is ``{"id", "parent", "name", "pid", "start", "end", "attrs"}``; times come
from ``time.perf_counter``, which is the system-wide monotonic clock on
Linux, so spans from forked workers share the parent's time base.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor

# The worker-side entry point is pickled by name, so it cannot be handed the
# tracer; it finds the one the forked worker inherited here.  Set only
# between Tracer.install() and Tracer.uninstall().
_ACTIVE = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._count = 0
        self._patched = []

    def begin(self, name, parent=None):
        self._count += 1
        span = {
            "id": f"{os.getpid()}:{self._count}",
            "parent": parent if parent is not None
            else (self._stack[-1]["id"] if self._stack else None),
            "name": name,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.remove(span)
        self.spans.append(span)

    def wrap(self, name, fn, measure=None):
        """A traced stand-in for fn; measure(args, result) gives span attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if measure is not None:
                span["attrs"].update(measure(args, out))
            return out

        return traced

    def install(self, modules, targets):
        """Replace each target wherever one of ``modules`` holds it.

        ``targets`` is a list of (original, replacement) pairs; module
        globals are matched to originals by identity.  Methods are patched
        on their class with patch_attr().
        """
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        _ACTIVE = self
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, replacement in targets:
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, replacement)

    def patch_attr(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        global _ACTIVE
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _ACTIVE = None


def _run_item(job):
    """Worker side of TracedPool.map: run one item and return its spans."""
    fn, args, parent = job
    tracer = _ACTIVE
    # The fork copied the parent's spans and open stack; start clean so each
    # span is shipped back exactly once.
    tracer.spans = []
    tracer._stack = []
    span = tracer.begin("scans.item", parent=parent)
    try:
        value = fn(*args)
    finally:
        tracer.end(span)
    return value, tracer.spans


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose map() traces every item in its worker.

    The pool's lifetime, from construction to shutdown, is one
    ``scans.fanout`` span in the parent; each item is a ``scans.item`` span
    in a worker, parented to it.
    """

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self._tracer = _ACTIVE
        self._span = self._tracer.begin("scans.fanout")
        self._span["attrs"]["jobs"] = self._max_workers

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        jobs = [(fn, args, self._span["id"]) for args in zip(*iterables)]
        results = super().map(_run_item, jobs, timeout=timeout,
                              chunksize=chunksize)

        def unpack():
            for value, spans in results:
                self._tracer.spans.extend(spans)
                yield value

        return unpack()

    def __exit__(self, exc_type, exc, tb):
        # On an error (such as the run's time budget) drop queued items
        # instead of waiting for them.
        self.shutdown(wait=True, cancel_futures=exc_type is not None)
        if self._span["end"] is None:
            self._tracer.end(self._span)
        return False


def self_times(spans):
    """Span id -> duration minus the time its same-process children cover."""
    by_id = {s["id"]: s for s in spans}
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            out[parent["id"]] -= s["end"] - s["start"]
    return out
