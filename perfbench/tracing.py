"""Spans and counts recorded around the calls into each ebshrink layer.

The benchmark never edits the package.  It replaces, for the length of a
traced phase, the module attributes through which one layer calls the next
(``ebshrink.em._SuffStats``, ``ebshrink.kernels.weighted_mixture_loglik``,
``ebshrink.simulate.parallel_map``, ...).  The package looks these names up
at call time, so every call goes through the wrapper.

A span is (id, parent id, op id, name, start, end).  Parent tracking is
thread-local because ``run_replications`` fits in a thread pool; the items a
pool runs are parented to the span of the ``parallel_map`` call that queued
them.  Kernel calls (hundreds of thousands per run) are not spans: they are
kept as per-parent counts plus summed time, which the self-time arithmetic
subtracts from the parent like a child span.
"""

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """In-memory span and counter store, safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables = []
        self._tables_lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = defaultdict(lambda: [0, 0.0, 0, 0])
            local.counters = defaultdict(int)
            with self._tables_lock:
                self._tables.append((local.table, local.counters))
        return local

    def begin(self, name, parent=None, op=None):
        """Open a span; parent and op default to the thread's open span."""
        stack = self._state().stack
        if parent is None and stack:
            parent, op = stack[-1][0], stack[-1][2]
        # next() on itertools.count and list.append are atomic under the GIL
        frame = [next(self._ids), parent, op, name, _now()]
        stack.append(frame)
        return frame

    def end(self, frame):
        stamp = _now()
        self._state().stack.pop()
        self.spans.append((frame[0], frame[1], frame[2], frame[3], frame[4], stamp))

    def leaf(self, name, seconds, nbytes=0, flops=0):
        """Count one call that is not a span, charged to the open span."""
        local = self._state()
        parent = local.stack[-1][0] if local.stack else None
        row = local.table[(name, parent)]
        row[0] += 1
        row[1] += seconds
        row[2] += nbytes
        row[3] += flops

    def count(self, name, amount):
        """Add to a named counter (bytes written, ...)."""
        self._state().counters[name] += amount

    def merged(self):
        """Per-thread tables summed: leaf rows and counters.

        Leaf rows map (name, parent span id) to [calls, seconds, bytes,
        flops].  Call only once the traced threads have finished.
        """
        leaves = defaultdict(lambda: [0, 0.0, 0, 0])
        counters = defaultdict(int)
        with self._tables_lock:
            tables = list(self._tables)
        for table, counts in tables:
            for key, row in table.items():
                acc = leaves[key]
                for j in range(4):
                    acc[j] += row[j]
            for key, value in counts.items():
                counters[key] += value
        return leaves, counters


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, leaf_seconds=None):
    """Span id -> duration minus the time its direct children cover.

    Children may overlap one another (pool items of one ``parallel_map``
    call run at once), so coverage is the union of their intervals.
    ``leaf_seconds`` maps a span id to time spent in counted leaf calls made
    directly under it; those run in the span's own thread, one at a time,
    never overlapping its child spans.
    """
    leaf_seconds = leaf_seconds or {}
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end in spans:
        covered = union_length(children.get(sid, ()), start, end)
        out[sid] = max(end - start - covered - leaf_seconds.get(sid, 0.0), 0.0)
    return out


def summarize(tracer):
    """Per-name span totals plus leaf and counter rows, for the metrics."""
    leaves, counters = tracer.merged()
    names = {sid: name for sid, _p, _o, name, _s, _e in tracer.spans}
    leaf_under = defaultdict(float)
    leaf_rows = defaultdict(lambda: [0, 0.0, 0, 0])
    leaf_by_parent_name = defaultdict(int)
    for (name, parent), row in leaves.items():
        if parent is not None:
            leaf_under[parent] += row[1]
            leaf_by_parent_name[(name, names.get(parent))] += row[0]
        acc = leaf_rows[name]
        for j in range(4):
            acc[j] += row[j]
    selfs = self_times(tracer.spans, leaf_under)
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _parent, _op, name, start, end in tracer.spans:
        agg = by_name[name]
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += selfs[sid]
    return {
        "spans": dict(by_name),
        "leaves": {k: list(v) for k, v in leaf_rows.items()},
        "leaf_by_parent": {f"{k[0]}<{k[1]}": v for k, v in leaf_by_parent_name.items()},
        "counters": dict(counters),
    }


# ---------------------------------------------------------------------------
# wrappers


def span_wrapper(tracer, name, fn, after=None):
    """Call ``fn`` inside a span; ``after(args, result)`` runs outside it."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        frame = tracer.begin(name) if tracer is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if frame is not None:
                tracer.end(frame)
        if after is not None:
            after(args, result)
        return result

    return wrapped


def leaf_wrapper(tracer, name, fn, cost):
    """Time ``fn`` as a counted leaf; ``cost(args)`` gives (bytes, flops)."""

    @functools.wraps(fn)
    def wrapped(*args):
        start = _now()
        result = fn(*args)
        seconds = _now() - start
        tracer.leaf(name, seconds, *cost(args))
        return result

    return wrapped


def pool_wrapper(tracer, fn, thread_count):
    """Wrap ``parallel_map``: one span per call, one child span per item.

    Also counts the items and the worker-seconds the call had available,
    (wall time) x (workers it could use), the denominator of utilization.
    """

    @functools.wraps(fn)
    def wrapped(item_fn, items):
        items = list(items)
        workers = max(1, min(thread_count(), len(items)))
        frame = tracer.begin("parallel.map")
        parent, op = frame[0], frame[2]

        def one(x):
            item = tracer.begin("parallel.item", parent=parent, op=op)
            try:
                return item_fn(x)
            finally:
                tracer.end(item)

        try:
            return fn(one, items)
        finally:
            tracer.end(frame)
            tracer.count("parallel.items", len(items))
            tracer.count("parallel.slot_s", (_now() - frame[4]) * workers)

    return wrapped


def kernel_cost(args):
    """Computed bytes read and flops of one mixture-kernel call.

    Inputs are d and w2 of shape (m, p) and m-vectors rss, css, nobs (plus
    t0, t1 for the weighted form).  Per (t, j) the kernel does the shift,
    log, reciprocal-multiply and two sums: 6 flops, logs counted as one.
    Per tissue about 16 more, 4 more for the weighted sum.  Bytes are
    computed from the array sizes, not measured.
    """
    m, p = args[0].shape
    vectors = 5 if len(args) > 7 else 3
    return 8 * (2 * m * p + vectors * m), 6 * m * p + (20 if len(args) > 7 else 16) * m


def file_bytes(counter_name, tracer):
    """``after`` hook counting the size of the file named by the first argument."""

    def after(args, _result):
        tracer.count(counter_name, os.path.getsize(args[0]))

    return after


class Patch:
    """Replace module attributes for a block, restoring them on exit.

    Every target must exist: a renamed or removed layer entry raises
    AttributeError before anything is replaced, so the layer's metrics
    cannot silently read zero.
    """

    def __init__(self, replacements):
        self._replacements = replacements
        self._saved = []

    def __enter__(self):
        missing = [f"{m.__name__}.{attr}" for m, attr, _make in self._replacements if not hasattr(m, attr)]
        if missing:
            raise AttributeError(f"traced layer entries not found: {', '.join(missing)}")
        for module, attr, make in self._replacements:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        return False


def layer_targets(tracer):
    """(module, attribute, wrapper factory) for every traced layer entry."""
    from ebshrink import _parallel as parallel
    from ebshrink import cli, em, kernels, linalg, simulate

    def span(name, after=None):
        return lambda fn: span_wrapper(tracer, name, fn, after)

    def leaf(fn):
        return leaf_wrapper(tracer, "kernels", fn, kernel_cost)

    return [
        (kernels, "weighted_mixture_loglik", leaf),
        (kernels, "component_loglik", leaf),
        (em, "_SuffStats", span("em.suffstats")),
        (em, "_estep_core", span("em.estep")),
        (em, "_m_step_masked_core", span("em.mstep")),
        (em, "_m_step_complete_core", span("em.mstep")),
        (em, "tissue_posterior", span("posterior")),
        (simulate, "simulate_setting", span("simulate.draw")),
        (simulate, "build_design", span("linalg.build_design")),
        (simulate, "ols", span("linalg.ols")),
        (simulate, "parallel_map", lambda fn: pool_wrapper(tracer, fn, parallel.thread_count)),
        (linalg, "build_design", span("linalg.build_design")),
        (cli, "build_design", span("linalg.build_design")),
        (cli, "read_matrix_tsv", span("fileio.read_tsv", file_bytes("fileio.read_tsv_bytes", tracer))),
        (cli, "write_matrix_tsv", span("fileio.write_tsv", file_bytes("fileio.write_tsv_bytes", tracer))),
        (cli, "write_fit_json", span("fileio.write_json", file_bytes("fileio.json_bytes", tracer))),
        (cli, "read_fit_json", span("fileio.read_json")),
        (simulate, "fit", span("em.fit")),
        (cli, "fit", span("em.fit")),
        (em, "fit", span("em.fit")),
    ]
