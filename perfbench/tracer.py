"""Spans recorded around calls into ztrv, from outside the package.

The tracer replaces a function or method with a wrapper that records one
span per call: span id, parent span id, request id, name, start, end and
self time (the span minus its traced children).  The first span on a
thread's empty stack starts a new request, so spans of one request share
its id.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import itertools
import json
import socket
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

from stats import percentile

FIELDS = ("span_id", "parent_id", "request_id", "name_id", "start_ns",
          "end_ns", "self_ns")
_WIDTH = len(FIELDS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._restore: list[tuple[object, str, object, bool]] = []
        self.accepts: Counter = Counter()  # local port -> accepted connections

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buffer = array("q")
            with self._lock:
                self._buffers.append(buffer)
            state = self._local.state = ([], buffer)
        return state

    def wrap(self, name: str, fn, nested_only: bool = False):
        """``fn`` recording a span per call; with ``nested_only``, only per
        call made inside another traced span."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        thread_state = self._thread_state
        span_ids = self._span_ids
        request_ids = self._request_ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buffer = thread_state()
            if nested_only and not stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [next(span_ids),
                     parent[1] if parent else next(request_ids), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                buffer.extend((frame[0], parent[0] if parent else 0, frame[1],
                               name_id, start, end, end - start - frame[2]))

        return traced

    # -- installing ----------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; ``restore`` puts the original back."""
        own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def trace_attr(self, owner, attr: str, name: str) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def trace_function(self, fn, name: str) -> None:
        """Trace ``fn`` under every name a ztrv module binds it to."""
        traced = self.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "ztrv" and not module_name.startswith("ztrv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, traced)

    def count_accepts(self) -> None:
        """Count accepted TCP connections per listening port."""
        original = socket.socket.accept
        accepts = self.accepts
        lock = self._lock

        def accept(sock):
            conn = original(sock)
            with lock:
                accepts[sock.getsockname()[1]] += 1
            return conn

        self.replace(socket.socket, "accept", accept)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value, own = self._restore.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------------

    def spans(self):
        """Yield each recorded span as a tuple in FIELDS order."""
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for i in range(0, len(buffer), _WIDTH):
                yield tuple(buffer[i:i + _WIDTH])

    def summary(self, durations_of: tuple[str, ...] = ()) -> dict:
        """Per span name: calls, total and self nanoseconds.

        For the names in ``durations_of`` the p50 and p99 span durations
        are included too.
        """
        stats = {name: {"calls": 0, "total_ns": 0, "self_ns": 0}
                 for name in self.names}
        durations = {name: [] for name in durations_of}
        for _, _, _, name_id, start, end, self_ns in self.spans():
            name = self.names[name_id]
            entry = stats[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += self_ns
            if name in durations:
                durations[name].append(end - start)
        for name, values in durations.items():
            stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            values.sort()
            stats[name]["p50_ns"] = percentile(values, 50)
            stats[name]["p99_ns"] = percentile(values, 99)
        return stats

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then int64 rows in FIELDS order."""
        with self._lock:
            buffers = list(self._buffers)
        header = {"fields": FIELDS, "names": self.names,
                  "rows": sum(len(b) for b in buffers) // _WIDTH}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buffer in buffers:
                buffer.tofile(fh)
