"""Measurement machinery shared by the workloads of :mod:`perfbench.workloads`.

* :class:`Journal` -- a digest of the answer of every operation sent to
  the system under test, pass by pass, checked against the oracle once
  the timed phase is over.
* :func:`replay` -- one pass of the closed loop: one caller, next
  operation only after the previous one returned, each call timed at the
  caller; :class:`Best` keeps each operation's shortest time over the
  passes.
* :class:`Tracer` -- spans around the public entry points of each layer,
  installed from this file by wrapping those entry points (nothing under
  ``src/`` changes).  Spans stay in memory; :meth:`Tracer.dump` writes
  them out at the end of the run.
* :class:`FrameCounter` -- Python frame activations grouped by package,
  the deterministic interpreter-work count of ``benchmarks/benchlib.py``
  split by layer.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Marker digest of an operation that raised.
FAILED = ("failed",)


# ----------------------------------------------------------------------
# answers and the journal
# ----------------------------------------------------------------------
def digest(cls: str, result):
    """Order-free, compact fingerprint of one answer.

    Counts stay integers; id lists and join pairs become (length, hash of
    the sorted tuple), so the journal does not keep every answer alive
    (which would inflate the benchmark's own memory next to the system's).
    """
    if result is None or isinstance(result, int):
        return result
    if cls == "relation":
        return tuple(digest("window", part) for part in result)
    if cls == "join":
        pairs = sorted((int(p), int(i)) for p, i in result)
        return (len(pairs), hash(tuple(pairs)))
    ids = sorted(result)
    return (len(ids), hash(tuple(ids)))


class Journal:
    """Digests of every operation run, one list per pass over the op list."""

    def __init__(self) -> None:
        self.rounds: list[list] = []
        self.errors: list[str] = []

    def __len__(self) -> int:
        return sum(len(r) for r in self.rounds)

    def new_round(self) -> None:
        self.rounds.append([])

    def run(self, execute, target, op):
        """Execute ``op`` and journal its digest; return the raw result."""
        try:
            result = execute(target, op)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            self.rounds[-1].append(FAILED)
            self.errors.append(f"{op[0]}: {type(exc).__name__}: {exc}")
            return None
        self.rounds[-1].append(digest(op[0], result))
        return result


def check_journal(journal: Journal, ops, expected: list) -> tuple[int, list[str]]:
    """Count ops whose digest differs from the oracle's (or that raised)."""
    failed = 0
    notes = list(journal.errors[:5])
    for number, digests in enumerate(journal.rounds):
        for index, (got, want) in enumerate(zip(digests, expected)):
            if got != want:
                failed += 1
                if got is not FAILED and len(notes) < 10:
                    notes.append(f"pass {number} op {index} ({ops[index][0]}): "
                                 "answer differs from oracle")
    return failed, notes


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def replay(journal, execute, target, ops, best=None, tracer=None):
    """One pass over ``ops``: one caller, next op only after the previous
    one returned.

    With ``best`` (a list as long as ``ops``), each op is timed at the
    caller around the one call and ``best[i]`` keeps the shortest time
    op ``i`` took in any pass.  With a ``tracer`` each op is the root
    span its layer spans hang under, named by its index.
    """
    journal.new_round()
    if best is None:
        for op in ops:
            journal.run(execute, target, op)
        return
    clock = time.perf_counter_ns
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.open(index, "caller")
        began = clock()
        journal.run(execute, target, op)
        elapsed = clock() - began
        if tracer is not None:
            tracer.close()
        if elapsed < best[index]:
            best[index] = elapsed


class Best:
    """Shortest per-op times over the timed passes of one run."""

    def __init__(self, count: int, labels) -> None:
        #: Per op, the shortest time of its passes against each target:
        #: ``plain`` and ``traced`` for the system under test, and the
        #: labels of any side stores.
        self.times = {label: [float("inf")] * count for label in labels}
        #: Traced passes: per op, the shortest self time of each layer
        #: and the shortest total of each span name; calls per span name
        #: in one pass.
        self.layers: list[dict] = [{} for _ in range(count)]
        self.names: list[dict] = [{} for _ in range(count)]
        self.calls: dict[str, int] = {}

    def fold(self, tracer: "Tracer") -> None:
        """Take the per-op minima of the spans recorded so far."""
        calls: dict[str, int] = {}
        passes = 0
        for index, layers, names in tracer.per_op():
            passes += index == 0
            best_layers, best_names = self.layers[index], self.names[index]
            for layer, ns in layers.items():
                if ns < best_layers.get(layer, float("inf")):
                    best_layers[layer] = ns
            for name, (total, count) in names.items():
                if total < best_names.get(name, float("inf")):
                    best_names[name] = total
                calls[name] = calls.get(name, 0) + count
        self.calls = {name: count // max(passes, 1)
                      for name, count in calls.items()}


def p50_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3


def p99_us(values_ns):
    """p99 by nearest rank, or ``None`` with fewer than 10 samples above it."""
    ordered = sorted(values_ns)
    rank = -(-99 * len(ordered) // 100) - 1
    if rank < 0 or len(ordered) - rank - 1 < 10:
        return None
    return ordered[rank] / 1e3


def calibration_us(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a drift diagnostic only."""
    times = []
    for _ in range(rounds):
        began = time.perf_counter_ns()
        total = 0
        for value in range(200_000):
            total += value & 7
        times.append(time.perf_counter_ns() - began)
    return statistics.median(times) / 1e3


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (scanning ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around wrapped entry points.

    A span is ``[name, layer, parent index, start_ns, end_ns]``.  Wrappers
    are installed with :meth:`wrap` *before* the system under test is
    built (some structures bind methods at construction) and record only
    while :attr:`active`; inactive they just call through.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        #: While set, wrappers given a ``size`` add it up in :attr:`bytes`.
        self.counting = False
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str, layer: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, parent, time.perf_counter_ns(), 0])

    def close(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter_ns()

    # -- instrumentation -------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, name: str = "",
             size=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``size(args, result)``, if given, is added to ``bytes[name]``
        for every call made while :attr:`counting` is set.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                result = original(*args, **kwargs)
            else:
                tracer.open(label, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
            if size is not None and tracer.counting:
                tracer.bytes[label] = (tracer.bytes.get(label, 0)
                                       + size(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_context(self, owner, attr: str, layer: str) -> None:
        """Wrap a ``@contextmanager`` method: the span covers the block."""
        original = owner.__dict__[attr]
        label = f"{owner.__name__}.{attr}"
        tracer = self

        @contextmanager
        def wrapper(*args, **kwargs):
            if not tracer.active:
                with original(*args, **kwargs) as value:
                    yield value
                return
            tracer.open(label, layer)
            try:
                with original(*args, **kwargs) as value:
                    yield value
            finally:
                tracer.close()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def per_op(self) -> list[tuple[int, dict, dict]]:
        """One entry per root span (one benchmark operation).

        Returns ``(op index, self_ns_by_layer, {span name: (total_ns,
        calls)})``; a span's self time is its duration minus the time its
        child spans cover.  The root's own self time lands under the
        ``caller`` layer.
        """
        spans = self.spans
        child_total = [0] * len(spans)
        for span in spans:
            if span[2] >= 0:
                child_total[span[2]] += span[4] - span[3]
        out: list[tuple[int, dict, dict]] = []
        entry_of: list = [None] * len(spans)
        for index, (name, layer, parent, start, end) in enumerate(spans):
            if parent < 0:
                entry = (name, {}, {})
                out.append(entry)
            else:
                entry = entry_of[parent]
            entry_of[index] = entry
            layers, names = entry[1], entry[2]
            layers[layer] = layers.get(layer, 0) + end - start - child_total[index]
            if parent >= 0:
                total, calls = names.get(name, (0, 0))
                names[name] = (total + end - start, calls + 1)
        return out

    def dump(self, path: Path) -> None:
        """Write every span (gzip JSON lines) and forget them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        self.spans = []


# ----------------------------------------------------------------------
# frame activations
# ----------------------------------------------------------------------
#: Path fragment -> package group, first match wins.
FRAME_GROUPS = (
    ("/repro/engine/", "engine"),
    ("/repro/core/", "core"),
    ("/repro/service/", "service"),
    ("/repro/ingest/", "ingest"),
    ("/json/", "json"),
    ("/asyncio/", "asyncio"),
)


class FrameCounter:
    """Count 'call' profile events (frame activations) by package."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        #: Code object -> group, kept across :meth:`counting` blocks.
        self._groups: dict = {}

    @contextmanager
    def counting(self):
        """Count the frame activations of the block into :attr:`counts`."""
        counts = self.counts
        groups = self._groups

        def hook(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            group = groups.get(code)
            if group is None:
                group = "other"
                for fragment, name in FRAME_GROUPS:
                    if fragment in code.co_filename:
                        group = name
                        break
                groups[code] = group
            counts[group] = counts.get(group, 0) + 1

        sys.setprofile(hook)
        try:
            yield counts
        finally:
            sys.setprofile(None)
