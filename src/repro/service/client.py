"""Blocking service clients: the raw RPC client and the store adapter.

:class:`ServiceClient` speaks one frame request/response at a time over
a TCP connection, thread-safe behind a lock -- concurrent callers
serialise per connection, and the GIL is released during the socket
round trip, which is exactly what lets a router process drive many
shard processes from a thread pool.

:class:`RemoteStore` adapts a served store back into the
:class:`~repro.core.access.IntervalStore` contract: every method is one
RPC (bulk loads chunked), contract exceptions round-trip by type, and
temporal entry points appear *only when the remote backend has them* --
``hasattr(remote, "insert_infinite")`` answers like the local store
would, so :class:`~repro.core.router.ShardedStore` can front remote
shards with unchanged temporal guards.
"""

from __future__ import annotations

import socket
import threading
from types import MethodType
from typing import Iterable, Optional, Sequence

from ..core.access import IntervalRecord, IntervalStore
from ..core.verify import VerificationReport
from .protocol import (
    ProtocolError,
    ServiceError,
    raise_for_response,
    read_frame,
    write_frame,
)

#: Records per bulk_load frame -- keeps frames around a megabyte.
BULK_CHUNK = 20_000


def _wire_predicate(predicate) -> dict:
    """A predicate's wire form: ``predicate`` name plus family params.

    Classic relations travel by name; a compiled query family
    (:class:`~repro.core.predicates.CompiledQuery`) travels as its
    ``family_name`` with the parameter bundle in a ``params`` field, so
    the server can rebuild the compiled predicate with
    :func:`~repro.core.predicates.compile_query`.
    """
    family = getattr(predicate, "family_name", "")
    if family:
        return {"predicate": family,
                "params": dict(getattr(predicate, "param_dict", {}))}
    return {"predicate": getattr(predicate, "name", predicate)}


class ServiceClient:
    """One connection to an interval service; thread-safe call()."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        self._lock = threading.Lock()
        self._next_id = 0

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def call(self, op: str, **params):
        """One request/response round trip; raises remote errors."""
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            write_frame(self._writer, {"id": request_id, "op": op, **params})
            response = read_frame(self._reader)
        if response is None:
            raise ServiceError(f"server closed the connection during {op!r}")
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}")
        return raise_for_response(response)

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:
                pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# Temporal forwards, attached through __getattr__ so that a RemoteStore
# over a non-temporal backend fails hasattr() like the local store does.
def _rpc_insert_infinite(self, lower: int, interval_id: int) -> None:
    self.call("insert_infinite", lower=lower, interval_id=interval_id)


def _rpc_insert_until_now(self, lower: int, interval_id: int) -> None:
    self.call("insert_until_now", lower=lower, interval_id=interval_id)


def _rpc_delete_infinite(self, lower: int, interval_id: int) -> None:
    self.call("delete_infinite", lower=lower, interval_id=interval_id)


def _rpc_delete_until_now(self, lower: int, interval_id: int) -> None:
    self.call("delete_until_now", lower=lower, interval_id=interval_id)


def _rpc_close_now_interval(self, lower: int, interval_id: int,
                            upper: int) -> None:
    self.call("close_now_interval", lower=lower, interval_id=interval_id, upper=upper)


def _rpc_advance_to(self, now: int) -> None:
    self.call("advance_to", now=now)


_TEMPORAL_FORWARDS = {
    "insert_infinite": _rpc_insert_infinite,
    "insert_until_now": _rpc_insert_until_now,
    "delete_infinite": _rpc_delete_infinite,
    "delete_until_now": _rpc_delete_until_now,
    "close_now_interval": _rpc_close_now_interval,
    "advance_to": _rpc_advance_to,
}


class RemoteStore(IntervalStore):
    """A served store, driven through the ``IntervalStore`` contract."""

    def __init__(self, client: ServiceClient) -> None:
        self._client = client
        info = client.call("info")
        self.method_name = f"remote({info['method_name']})"
        self._temporal = bool(info["temporal"])

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: Optional[float] = None) -> "RemoteStore":
        return cls(ServiceClient(host, port, timeout=timeout))

    @property
    def address(self) -> tuple[str, int]:
        """The served store's ``(host, port)`` -- the relay's target."""
        return self._client.address

    def call(self, op: str, **params):
        return self._client.call(op, **params)

    def __getattr__(self, name: str):
        forward = _TEMPORAL_FORWARDS.get(name)
        if forward is not None and self.__dict__.get("_temporal"):
            return MethodType(forward, self)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        self.call("insert", lower=lower, upper=upper, interval_id=interval_id)

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        self.call("delete", lower=lower, upper=upper, interval_id=interval_id)

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        intervals = list(intervals)
        for start in range(0, len(intervals), BULK_CHUNK):
            self.call("bulk_load",
                      records=intervals[start:start + BULK_CHUNK])

    def append_batch(self, intervals: Sequence[IntervalRecord]) -> None:
        """Forward a streaming append batch as ``ingest_batch`` frames.

        Each frame is one writer-lock acquisition (and one group commit
        on WAL-backed backends) server-side; oversized batches chunk at
        the same frame bound as :meth:`bulk_load`.
        """
        intervals = list(intervals)
        for start in range(0, len(intervals), BULK_CHUNK):
            self.call("ingest_batch",
                      records=intervals[start:start + BULK_CHUNK])

    def extend(self, intervals: Iterable[IntervalRecord]) -> None:
        self.bulk_load(list(intervals))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        return self.call("intersection", lower=lower, upper=upper)

    def intersection_count(self, lower: int, upper: int) -> int:
        return self.call("intersection_count", lower=lower, upper=upper)

    def intersection_many(
        self, queries: Sequence[tuple[int, int]]
    ) -> list[list[int]]:
        return self.call("intersection_many", queries=list(queries))

    def stab(self, point: int) -> list[int]:
        return self.call("stab", value=point)

    def query(self, lower, upper=None, *, predicate="intersects"):
        return self.call("query", lower=lower, upper=upper,
                         **_wire_predicate(predicate))

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def join_pairs(self, probes: Sequence[IntervalRecord], *,
                   predicate=None) -> list[tuple[int, int]]:
        pairs = self.call("join_pairs", probes=list(probes),
                          **_wire_predicate(predicate))
        return [(probe_id, interval_id) for probe_id, interval_id in pairs]

    def join_count(self, probes: Sequence[IntervalRecord], *,
                   predicate=None) -> int:
        return self.call("join_count", probes=list(probes),
                         **_wire_predicate(predicate))

    # ------------------------------------------------------------------
    # enumeration / verification / accounting
    # ------------------------------------------------------------------
    def stored_records(self) -> list[IntervalRecord]:
        return [(lower, upper, interval_id)
                for lower, upper, interval_id in self.call("stored_records")]

    def verify(self) -> VerificationReport:
        """The *served* store's own verification, rebuilt client-side."""
        data = self.call("verify")
        report = VerificationReport(
            store=data["store"], backend=data["backend"])
        for check in data["checks"]:
            report.add_check(check)
        for issue in data["issues"]:
            report.add_issue(issue["code"], issue["message"],
                             issue.get("context"))
        return report

    @property
    def interval_count(self) -> int:
        return self.call("info")["records"]

    @property
    def index_entry_count(self) -> int:
        return self.call("info")["index_entries"]

    # ------------------------------------------------------------------
    # service lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return self.call("stats")

    def shutdown(self) -> None:
        """Ask the server to stop, then drop the connection."""
        try:
            self.call("shutdown")
        finally:
            self.close()

    def close(self) -> None:
        self._client.close()
