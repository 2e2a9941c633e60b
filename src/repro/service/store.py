"""Durable SQLite-backed job store for the experiment service.

The store is the service's source of truth: every submitted job is one row
in a WAL-mode SQLite database, safe across server restarts and shared by
the HTTP threads and the worker loop.  Jobs move through the lifecycle ::

    queued --> running --> done
                      \\-> failed      (attempts exhausted)
                      \\-> cancelled   (DELETE /v1/jobs/{id})

with two recovery edges: a ``running`` job whose worker died is re-queued
-- either by the worker itself when the attempt failed in-process, or by
:meth:`JobStore.recover` on startup when the whole server crashed (the
orphaned ``running`` rows are the crash's fingerprint).

**Idempotency.**  Every job row carries the canonical JSON of its
fully-bound spec plus a derived *idempotency key* protected by a SQLite
unique index:

* a single :class:`~repro.api.specs.ExperimentSpec` is keyed by its result
  cache address (:func:`repro.explore.cache.cache_key` -- spec + library
  version + resolved engine), so the job key and the result cache key are
  literally the same string;
* a :class:`~repro.explore.sweep.SweepSpec` is keyed by
  :func:`sweep_job_key` (SHA-256 of canonical sweep JSON + library
  version); its *points* are still cached individually under their own
  cache keys.

Submitting a spec whose key already exists returns the existing row --
whatever its state -- instead of inserting a duplicate, which is what makes
``POST /v1/jobs`` a safe retry target: N concurrent submissions of the same
spec race on the unique index and all converge on one job.

**Events.**  Per-job progress (attempt starts, per-point sweep progress
streamed from the incremental harvest, terminal transitions) is an
append-only ``events`` table with a per-job sequence number; the
``GET /v1/jobs/{id}/events`` stream is a cursor over it, so a client can
disconnect and resume from ``?since=<seq>`` without losing records.

Fault injection: :data:`repro.faults.SERVICE_STORE` fires inside
:meth:`JobStore.mark_done` *before* the result write commits, modelling a
job store that loses the terminal write (full disk, killed connection).
The worker treats it like any other attempt failure: the job is re-queued
and the next attempt -- answered from the result cache -- re-commits.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.exceptions import ParameterError
from repro.explore.cache import default_cache_dir

__all__ = [
    "SERVICE_DB_ENV",
    "JOB_STATES",
    "TERMINAL_STATES",
    "default_db_path",
    "sweep_job_key",
    "JobRecord",
    "JobStore",
]

#: Environment variable overriding the job database location.
SERVICE_DB_ENV = "REPRO_SERVICE_DB"

#: Every state a job row can carry.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves (their rows are immutable history).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    idempotency_key  TEXT NOT NULL,
    kind             TEXT NOT NULL,
    spec_json        TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'queued',
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error_json       TEXT,
    point_errors_json TEXT,
    result_json      TEXT,
    executed_points  INTEGER,
    cached_points    INTEGER,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_idempotency_key ON jobs(idempotency_key);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, created_at);
CREATE TABLE IF NOT EXISTS events (
    job_id     TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL,
    payload    TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""


def default_db_path() -> Path:
    """``$REPRO_SERVICE_DB`` if set, else ``<cache dir>/service/jobs.sqlite3``.

    Living under the result-cache root keeps the two durable stores of the
    service side by side: the queue remembers *what was asked for*, the
    cache remembers *what was computed*.
    """
    override = os.environ.get(SERVICE_DB_ENV)
    if override:
        return Path(override)
    return default_cache_dir() / "service" / "jobs.sqlite3"


def sweep_job_key(sweep) -> str:
    """The idempotency key of a sweep submission.

    SHA-256 over the canonical sweep JSON plus the library version --
    the sweep-level analogue of :func:`repro.explore.cache.cache_key`
    (a sweep has no single resolved engine; its points are keyed
    individually when they reach the result cache).
    """
    import repro

    payload = {
        "sweep": sweep.to_dict(),
        "library_version": repro.__version__,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobRecord:
    """One job row, as the store hands it to the service and the API.

    Attributes
    ----------
    id:
        Opaque job identifier (``job-<hex>``), minted at submission.
    idempotency_key:
        The spec-derived content key the unique index deduplicates on.
    kind:
        ``"experiment"`` or ``"sweep"``.
    spec_json:
        Canonical JSON of the fully-bound spec (seed pinned at submission).
    state:
        One of :data:`JOB_STATES`.
    attempts:
        Executions started for this job so far (claims, not successes).
    max_attempts:
        Attempt budget; exhausting it moves the job to ``failed``.
    cancel_requested:
        Set by ``DELETE`` on a running job; the worker honours it at the
        next per-point progress callback.
    error:
        Structured terminal error (``type`` / ``message`` / ``attempts``)
        when ``state == "failed"``.
    point_errors:
        Structured :class:`~repro.explore.runner.SweepPointError` records
        for a finished sweep's terminally-failed points (a *partial*
        result); empty list when every point succeeded.
    executed_points / cached_points:
        The finished job's engine-execution accounting -- how many points
        an engine actually ran versus answered from the result cache
        (``None`` until the job finishes).
    created_at / started_at / finished_at:
        Unix timestamps of submission, latest claim, terminal transition.
    has_result:
        Whether a result document is stored (fetch it with
        :meth:`JobStore.result_json`; it can be large, so job listings
        do not carry it inline).
    """

    id: str
    idempotency_key: str
    kind: str
    spec_json: str
    state: str
    attempts: int
    max_attempts: int
    cancel_requested: bool
    error: dict | None
    point_errors: list[dict]
    executed_points: int | None
    cached_points: int | None
    created_at: float
    started_at: float | None
    finished_at: float | None
    has_result: bool

    @property
    def terminal(self) -> bool:
        """Whether the job has reached a terminal state."""
        return self.state in TERMINAL_STATES

    def to_dict(self, *, include_spec: bool = False) -> dict:
        """The JSON document ``GET /v1/jobs/{id}`` serves."""
        doc = {
            "id": self.id,
            "idempotency_key": self.idempotency_key,
            "kind": self.kind,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "point_errors": self.point_errors,
            "executed_points": self.executed_points,
            "cached_points": self.cached_points,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "has_result": self.has_result,
        }
        if include_spec:
            doc["spec"] = json.loads(self.spec_json)
        return doc


def _row_to_record(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        id=row["id"],
        idempotency_key=row["idempotency_key"],
        kind=row["kind"],
        spec_json=row["spec_json"],
        state=row["state"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        cancel_requested=bool(row["cancel_requested"]),
        error=json.loads(row["error_json"]) if row["error_json"] else None,
        point_errors=json.loads(row["point_errors_json"]) if row["point_errors_json"] else [],
        executed_points=row["executed_points"],
        cached_points=row["cached_points"],
        created_at=row["created_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        has_result=row["result_json"] is not None,
    )


_JOB_COLUMNS = (
    "id, idempotency_key, kind, spec_json, state, attempts, max_attempts, "
    "cancel_requested, error_json, point_errors_json, "
    "CASE WHEN result_json IS NULL THEN NULL ELSE 1 END AS result_json, "
    "executed_points, cached_points, created_at, started_at, finished_at"
)


class JobStore:
    """Thread-safe durable job queue on one SQLite file (WAL mode).

    Connections are per-thread (SQLite's unit of isolation); writes run in
    ``BEGIN IMMEDIATE`` transactions so concurrent HTTP threads, worker
    threads and even a second server process sharing the file serialize
    cleanly, with a generous busy timeout instead of hard lock errors.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._connections: set[sqlite3.Connection] = set()
        self._connections_lock = threading.Lock()
        # executescript manages its own transaction (it commits any open
        # one first), so the schema runs outside _transaction().
        self._connection().executescript(_SCHEMA)

    # -- connection plumbing -------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=30.0, isolation_level=None, check_same_thread=False
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA foreign_keys=ON")
            self._local.conn = conn
            with self._connections_lock:
                self._connections.add(conn)
        return conn

    class _Tx:
        def __init__(self, conn: sqlite3.Connection) -> None:
            self.conn = conn

        def __enter__(self) -> sqlite3.Connection:
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn

        def __exit__(self, exc_type, exc, tb) -> None:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")

    def _transaction(self) -> "JobStore._Tx":
        return JobStore._Tx(self._connection())

    def release_thread_connection(self) -> None:
        """Close the calling thread's connection, if it opened one.

        Short-lived threads (the HTTP server runs each client connection on a
        new thread) call this when they finish, so the open connections stay
        bounded by the live threads instead of growing with every request.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        del self._local.conn
        with self._connections_lock:
            self._connections.discard(conn)
        conn.close()

    def close(self) -> None:
        """Close every connection this store opened (any thread's)."""
        with self._connections_lock:
            connections, self._connections = self._connections, set()
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    # -- lifecycle -----------------------------------------------------------

    def submit(
        self,
        *,
        idempotency_key: str,
        kind: str,
        spec_json: str,
        max_attempts: int = 3,
    ) -> tuple[JobRecord, bool]:
        """Insert a job, or return the existing one with the same key.

        Returns ``(record, created)``: ``created`` is False on an
        idempotency-key hit, in which case the returned record is the
        existing job in whatever state it has reached (a *terminal* job is
        the zero-compute answer the service's idempotency contract
        promises).  Concurrent submissions of the same spec race on the
        unique index inside one ``BEGIN IMMEDIATE`` transaction each, so
        exactly one insert wins and every caller sees the same row.
        """
        if kind not in ("experiment", "sweep"):
            raise ParameterError(f"job kind must be 'experiment' or 'sweep', got {kind!r}")
        if not isinstance(max_attempts, int) or isinstance(max_attempts, bool) or max_attempts < 1:
            raise ParameterError(f"max_attempts must be a positive int, got {max_attempts!r}")
        job_id = f"job-{secrets.token_hex(8)}"
        with self._transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (id, idempotency_key, kind, spec_json, state,"
                " max_attempts, created_at) VALUES (?, ?, ?, ?, 'queued', ?, ?)"
                " ON CONFLICT(idempotency_key) DO NOTHING",
                (job_id, idempotency_key, kind, spec_json, max_attempts, time.time()),
            )
            row = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE idempotency_key = ?",
                (idempotency_key,),
            ).fetchone()
        record = _row_to_record(row)
        return record, record.id == job_id

    def claim(self) -> JobRecord | None:
        """Atomically move the oldest queued job to ``running`` and return it.

        Claiming charges an attempt (``attempts += 1``) -- attempts count
        executions *started*, which is what makes a crash between claim and
        terminal write visible in the accounting.  Returns None when the
        queue is empty.
        """
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued'"
                " ORDER BY created_at, id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1,"
                " started_at = ? WHERE id = ?",
                (time.time(), row["id"]),
            )
            fresh = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (row["id"],)
            ).fetchone()
        return _row_to_record(fresh)

    def recover(self) -> list[str]:
        """Re-queue every ``running`` orphan; returns their job ids.

        Called once on service startup: a job can only be ``running`` while
        a worker holds it, so after a crash-restart every ``running`` row is
        an orphan whose worker no longer exists.  Attempts already charged
        stay charged.
        """
        with self._transaction() as conn:
            rows = conn.execute("SELECT id FROM jobs WHERE state = 'running'").fetchall()
            ids = [row["id"] for row in rows]
            if ids:
                conn.execute("UPDATE jobs SET state = 'queued' WHERE state = 'running'")
        return ids

    def requeue(self, job_id: str) -> None:
        """Return a running job to the queue after a failed attempt."""
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'queued' WHERE id = ? AND state = 'running'",
                (job_id,),
            )

    def mark_done(
        self,
        job: JobRecord,
        result_json: str,
        *,
        point_errors: list[dict] | None = None,
        executed_points: int | None = None,
        cached_points: int | None = None,
    ) -> None:
        """Commit a finished job's result document and flip it to ``done``.

        This is the write the :data:`~repro.faults.SERVICE_STORE` fault
        site models losing: the injection fires *before* anything is
        written, so a selected job's attempt fails with the row untouched
        (still ``running``, result uncommitted) and the worker's retry path
        takes over -- exactly the contract a real torn terminal write
        needs.
        """
        faults.maybe_inject(faults.SERVICE_STORE, job.idempotency_key, job.attempts - 1)
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'done', result_json = ?,"
                " point_errors_json = ?, executed_points = ?, cached_points = ?,"
                " finished_at = ? WHERE id = ? AND state = 'running'",
                (
                    result_json,
                    json.dumps(point_errors or []),
                    executed_points,
                    cached_points,
                    time.time(),
                    job.id,
                ),
            )

    def mark_failed(self, job_id: str, error: dict) -> None:
        """Record a structured terminal failure (attempt budget exhausted)."""
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'failed', error_json = ?, finished_at = ?"
                " WHERE id = ? AND state = 'running'",
                (json.dumps(error), time.time(), job_id),
            )

    def mark_cancelled(self, job_id: str) -> None:
        """Flip a running job to ``cancelled`` (the worker saw the flag)."""
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                " WHERE id = ? AND state = 'running'",
                (time.time(), job_id),
            )

    def request_cancel(self, job_id: str) -> str | None:
        """Cancel a job; returns the resulting state, or None if unknown.

        A ``queued`` job is cancelled immediately (no worker ever sees it);
        a ``running`` job gets its ``cancel_requested`` flag set and the
        worker cancels it at the next per-point progress callback
        (``"cancelling"`` is returned to signal the in-flight hand-off);
        a terminal job is left untouched and its state returned -- cancel
        is idempotent.
        """
        with self._transaction() as conn:
            row = conn.execute("SELECT state FROM jobs WHERE id = ?", (job_id,)).fetchone()
            if row is None:
                return None
            state = row["state"]
            if state == "queued":
                conn.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                    " WHERE id = ? AND state = 'queued'",
                    (time.time(), job_id),
                )
                return "cancelled"
            if state == "running":
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
                )
                return "cancelling"
            return state

    # -- reads ---------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        """The job row for ``job_id``, or None."""
        row = self._connection().execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return None if row is None else _row_to_record(row)

    def cancel_requested(self, job_id: str) -> bool:
        """Whether ``DELETE`` flagged this running job for cancellation."""
        row = self._connection().execute(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return bool(row["cancel_requested"]) if row is not None else False

    def result_json(self, job_id: str) -> str | None:
        """The stored result document of a done job, or None."""
        row = self._connection().execute(
            "SELECT result_json FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return None if row is None else row["result_json"]

    def list_jobs(self, state: str | None = None, limit: int = 200) -> list[JobRecord]:
        """Jobs in submission order, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise ParameterError(f"unknown job state {state!r}; expected one of {JOB_STATES}")
        query = f"SELECT {_JOB_COLUMNS} FROM jobs"
        args: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY created_at, id LIMIT ?"
        rows = self._connection().execute(query, args + (int(limit),)).fetchall()
        return [_row_to_record(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Queue depth by state (every state present, zeros included)."""
        rows = self._connection().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    # -- events --------------------------------------------------------------

    def append_event(self, job_id: str, payload: dict) -> int:
        """Append one progress event to the job's log; returns its sequence.

        Sequence numbers are dense and per-job (0, 1, 2, ...), assigned
        inside the insert transaction, so an event stream cursor can never
        skip a record.
        """
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT COALESCE(MAX(seq), -1) + 1 AS seq FROM events WHERE job_id = ?",
                (job_id,),
            ).fetchone()
            seq = row["seq"]
            conn.execute(
                "INSERT INTO events (job_id, seq, created_at, payload) VALUES (?, ?, ?, ?)",
                (job_id, seq, time.time(), json.dumps(payload)),
            )
        return seq

    def events_since(self, job_id: str, after: int = -1, limit: int = 1000) -> list[tuple[int, dict]]:
        """Events with ``seq > after``, oldest first, as ``(seq, payload)``."""
        rows = self._connection().execute(
            "SELECT seq, payload FROM events WHERE job_id = ? AND seq > ?"
            " ORDER BY seq LIMIT ?",
            (job_id, int(after), int(limit)),
        ).fetchall()
        return [(row["seq"], json.loads(row["payload"])) for row in rows]
