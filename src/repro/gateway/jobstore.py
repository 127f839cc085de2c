"""The persistent SQLite job/session store behind the gateway.

One row per job, keyed by the sweep layer's content-addressed job key —
the job *id* a client polls is literally the cache key ``repro compile``
would compute for the same circuit and config.  The store is the
gateway's crash-safety boundary: every transition (submit, claim,
complete, fail) is one SQLite transaction, so a process killed at any
point leaves each job either in its previous state or its next state,
never torn (a ``done`` row always has its result; a ``failed`` row
always has its error).  On restart the gateway replays every
non-terminal row through the shard router; resubmission of a finished
key is answered from the stored result with zero compilations.

Job lifecycle::

    submit            dispatch            backend reply
      |                  |                     |
      v                  v                     v
    queued ------> dispatched ------------> done
                       |                      ^
                       +--> failed --(resubmit: back to queued)

``failed`` is a terminal verdict for *that attempt budget*, not for the
key: failures are transient by construction (parse errors are rejected
at submit time and never become jobs), so resubmitting a failed key
re-queues it.

The wall clock is injectable and every mutation accepts an optional
fault hook (``faults.before_commit(op, key)``) so the property tests can
simulate a crash between the write and the ack without real processes
or real time.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: job states (see the lifecycle diagram above).
QUEUED = "queued"
DISPATCHED = "dispatched"
DONE = "done"
FAILED = "failed"

#: states a restart must replay through the shard router.
PENDING_STATES = (QUEUED, DISPATCHED)

#: one transaction, so a new store costs one journal sync, not one per
#: statement; on an existing store every statement is a no-op.
_SCHEMA = """
BEGIN;
CREATE TABLE IF NOT EXISTS jobs (
    key      TEXT PRIMARY KEY,
    tenant   TEXT NOT NULL,
    status   TEXT NOT NULL,
    request  TEXT NOT NULL,
    result   TEXT,
    error    TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    created  REAL NOT NULL,
    updated  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);
CREATE TABLE IF NOT EXISTS tenants (
    tenant    TEXT PRIMARY KEY,
    submitted INTEGER NOT NULL DEFAULT 0,
    completed INTEGER NOT NULL DEFAULT 0,
    first_seen REAL NOT NULL,
    last_seen  REAL NOT NULL
);
COMMIT;
"""


class StoreCrash(RuntimeError):
    """Raised by a test fault hook to simulate dying before the commit."""


@dataclass
class JobRecord:
    """One job row, JSON fields decoded."""

    key: str
    tenant: str
    status: str
    request: dict
    result: Optional[dict]
    error: Optional[dict]
    attempts: int
    created: float
    updated: float

    @property
    def terminal(self) -> bool:
        return self.status in (DONE, FAILED)

    def public(self) -> dict:
        """The poll-response view of this row (no request echo)."""
        payload: Dict[str, object] = {
            "id": self.key,
            "status": self.status,
            "tenant": self.tenant,
            "attempts": self.attempts,
            "created": self.created,
            "updated": self.updated,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobStore:
    """Crash-safe job/session store over one SQLite file.

    Args:
        path: database file (a directory is created as needed); use
            ``":memory:"`` only for throwaway tests — persistence is the
            point.
        clock: wall-clock source for ``created``/``updated`` stamps.
        faults: optional hook object; ``faults.before_commit(op, key)``
            runs inside every mutating transaction, immediately before
            the commit.  Raising there aborts the transaction — the
            property tests' crash simulation.
    """

    def __init__(
        self,
        path: str,
        clock: Callable[[], float] = time.time,
        faults=None,
    ) -> None:
        self.path = str(path)
        self._clock = clock
        self._faults = faults
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.executescript(_SCHEMA)

    # -- transitions --------------------------------------------------------

    def submit(self, key: str, tenant: str, request: dict) -> JobRecord:
        """Insert (or revive) one job; idempotent by key.

        A new key lands as ``queued``.  An existing ``done`` row is
        returned untouched (the zero-compilation resubmission path); a
        ``failed`` row is re-queued with its error cleared; ``queued`` /
        ``dispatched`` rows are returned as-is (the caller piggybacks on
        the in-flight dispatch).
        """
        now = self._clock()
        with self._lock:
            self._begin()
            try:
                row = self._fetch(key)
                if row is None:
                    self._conn.execute(
                        "INSERT INTO jobs (key, tenant, status, request,"
                        " attempts, created, updated)"
                        " VALUES (?, ?, ?, ?, 0, ?, ?)",
                        (key, tenant, QUEUED, json.dumps(request), now, now),
                    )
                elif row["status"] == FAILED:
                    self._conn.execute(
                        "UPDATE jobs SET status = ?, error = NULL,"
                        " attempts = 0, updated = ? WHERE key = ?",
                        (QUEUED, now, key),
                    )
                self._conn.execute(
                    "INSERT INTO tenants (tenant, submitted, first_seen,"
                    " last_seen) VALUES (?, 1, ?, ?)"
                    " ON CONFLICT(tenant) DO UPDATE SET"
                    " submitted = submitted + 1, last_seen = excluded.last_seen",
                    (tenant, now, now),
                )
                self._commit("submit", key)
            except BaseException:
                self._rollback()
                raise
            return self._record(self._fetch(key))

    def claim(self, key: str) -> Optional[JobRecord]:
        """Move a ``queued`` job to ``dispatched`` (one attempt counted).

        Returns the claimed record, or None when the job is missing or
        already terminal (a restart replay racing a finished dispatch).
        Re-claiming a ``dispatched`` row is allowed — it is how a
        restarted gateway re-adopts a job that was in flight when the
        previous process died.
        """
        now = self._clock()
        with self._lock:
            self._begin()
            try:
                row = self._fetch(key)
                if row is None or row["status"] in (DONE, FAILED):
                    self._rollback()
                    return None
                self._conn.execute(
                    "UPDATE jobs SET status = ?, attempts = attempts + 1,"
                    " updated = ? WHERE key = ?",
                    (DISPATCHED, now, key),
                )
                self._commit("claim", key)
            except BaseException:
                self._rollback()
                raise
            return self._record(self._fetch(key))

    def complete(self, key: str, result: dict) -> None:
        """Record a job's result and mark it ``done`` (atomic)."""
        now = self._clock()
        with self._lock:
            self._begin()
            try:
                self._conn.execute(
                    "UPDATE jobs SET status = ?, result = ?, error = NULL,"
                    " updated = ? WHERE key = ?",
                    (DONE, json.dumps(result), now, key),
                )
                self._conn.execute(
                    "UPDATE tenants SET completed = completed + 1,"
                    " last_seen = ? WHERE tenant ="
                    " (SELECT tenant FROM jobs WHERE key = ?)",
                    (now, key),
                )
                self._commit("complete", key)
            except BaseException:
                self._rollback()
                raise

    def fail(self, key: str, error: dict) -> None:
        """Record a structured failure verdict and mark the job ``failed``."""
        now = self._clock()
        with self._lock:
            self._begin()
            try:
                self._conn.execute(
                    "UPDATE jobs SET status = ?, error = ?, updated = ?"
                    " WHERE key = ?",
                    (FAILED, json.dumps(error), now, key),
                )
                self._commit("fail", key)
            except BaseException:
                self._rollback()
                raise

    # -- reads --------------------------------------------------------------

    def get(self, key: str) -> Optional[JobRecord]:
        with self._lock:
            return self._record(self._fetch(key))

    def pending(self) -> List[JobRecord]:
        """Every non-terminal job, oldest first (the restart replay set)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE status IN (?, ?) ORDER BY created",
                PENDING_STATES,
            ).fetchall()
        return [self._record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Job totals by status (zero-filled for the stable stats shape)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in (QUEUED, DISPATCHED, DONE, FAILED)}
        for row in rows:
            counts[row["status"]] = row["n"]
        return counts

    def tenants(self) -> Dict[str, Dict[str, float]]:
        """The persistent per-tenant session ledger."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM tenants ORDER BY tenant"
            ).fetchall()
        return {
            row["tenant"]: {
                "submitted": row["submitted"],
                "completed": row["completed"],
                "first_seen": row["first_seen"],
                "last_seen": row["last_seen"],
            }
            for row in rows
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- internals ----------------------------------------------------------

    def _begin(self) -> None:
        self._conn.execute("BEGIN IMMEDIATE")

    def _commit(self, op: str, key: str) -> None:
        if self._faults is not None:
            self._faults.before_commit(op, key)
        self._conn.execute("COMMIT")

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:
            pass  # no transaction active

    def _fetch(self, key: str):
        return self._conn.execute(
            "SELECT * FROM jobs WHERE key = ?", (key,)
        ).fetchone()

    @staticmethod
    def _record(row) -> Optional[JobRecord]:
        if row is None:
            return None
        return JobRecord(
            key=row["key"],
            tenant=row["tenant"],
            status=row["status"],
            request=json.loads(row["request"]),
            result=json.loads(row["result"]) if row["result"] else None,
            error=json.loads(row["error"]) if row["error"] else None,
            attempts=row["attempts"],
            created=row["created"],
            updated=row["updated"],
        )
