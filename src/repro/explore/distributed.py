"""Multi-host design-space sweeps coordinated through the result cache.

The content-addressed :class:`~repro.explore.cache.ResultCache` was built
as a coordination layer: every grid point's cache key is a pure function
of its fully-bound spec, per-point seeds derive from *coordinates* (not
grid position), and entry writes are atomic.  This module cashes that in.
N processes -- typically N hosts sharing the cache directory over a
network filesystem -- cooperate on one sweep with **no queue, no broker
and no network protocol**: the only shared state is atomic *claim files*
next to the cache entries.

The claim protocol
==================

Claims live under ``<cache dir>/claims/``, one file per cache key:

* **Acquire** creates ``<key>.claim`` by hard-linking a fully written
  temporary file into place -- ``link`` refuses an existing name, the
  filesystem's atomic "exactly one winner" primitive, and the claim never
  exists without its content -- holding a :class:`ClaimRecord` (worker
  identity, lease length, timestamps, reap generation).  Losing the race
  means another worker owns the point.
* **Heartbeat.**  While executing, the owner refreshes
  :attr:`ClaimRecord.heartbeat_at` every ``lease_seconds / 3`` (atomic
  tmp + ``os.replace``).  A claim whose heartbeat is older than its lease
  is *stale*: its owner is presumed dead.
* **Reap.**  A stale claim is stolen in three steps: rename the claim
  file to a unique tombstone (atomic; exactly one renamer can win because
  a second rename of the same source fails), *verify* the renamed record
  really is the stale one (a faster reaper may have reaped and re-created
  a live claim between our read and our rename -- that successor is
  restored with a no-clobber ``os.link`` and the reap backs off), then
  re-acquire the same way at ``generation + 1``.  The generation
  counter is what lets the fault harness kill *first* claimants
  deterministically while their reapers survive
  (:data:`repro.faults.EXPLORE_CLAIM`).
* **Release** deletes the claim -- but only after the point's result has
  landed in the cache, so no waiter can acquire a released claim and find
  the work missing.

**Safety does not depend on mutual exclusion.**  A presumed-dead owner
that was merely slow (a *zombie*) may still finish and write its entry
concurrently with the reaper: both execute the same seed-pinned spec, both
produce bit-identical results, and the cache's atomic ``os.replace``
makes the double write invisible.  Claims are purely a *work-deduplication*
lease; correctness comes from content addressing and determinism.  The
practical requirements are a shared filesystem with atomic ``link`` /
``rename`` (POSIX local disks, NFSv3+) and clocks that agree to within a
fraction of the lease.

Entry point
===========

:func:`repro.explore.runner.run_sweep` with ``coordinate=True`` joins a
sweep's claim party from the calling process -- this is what lets N
*hosts* each run ``repro-run sweep.json --coordinate`` against a shared
``REPRO_CACHE_DIR`` and collectively execute every point exactly once.
Each member executes its claimed points on the same supervised pool as an
uncoordinated sweep (``SweepSpec.point_workers`` wide), and each returns
a :class:`~repro.explore.runner.SweepResult` with
``value_digest() == serial.value_digest()`` -- bit-for-bit equal
per-point specs, seeds, engines and values -- no matter how many members
ran, crashed, or were reaped along the way.  A coordinated pass ends by
garbage-collecting the lapsed claims of members that died after caching.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

from repro import faults
from repro.api.specs import ExperimentSpec
from repro.exceptions import ParameterError
from repro.explore.cache import ResultCache
from repro.explore.supervisor import PointOutcome, RetryPolicy, execute_supervised

__all__ = [
    "CLAIMS_SUBDIR",
    "DEFAULT_LEASE_SECONDS",
    "ClaimRecord",
    "ClaimStore",
    "execute_coordinated",
]

#: Subdirectory of the cache root holding claim files.
CLAIMS_SUBDIR = "claims"

#: Default claim lease: a worker silent for this long is presumed dead.
DEFAULT_LEASE_SECONDS = 30.0

#: Environment flag marking a process as a claim-party peer that a chaos
#: profile may kill.  The :data:`repro.faults.EXPLORE_CLAIM` site (SIGKILL
#: after claiming) is only consulted when this flag is ``"1"``, so a chaos
#: profile can never kill a service thread or a plain ``coordinate=True``
#: caller; the multi-process claim tests set it in their forked peers.
WORKER_FLAG_ENV = "_REPRO_DISTRIBUTED_WORKER"


def _default_worker_identity() -> str:
    """``host:pid:token`` -- unique per acquiring process, stable within it."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class ClaimRecord:
    """One worker's lease on one grid point.

    Attributes
    ----------
    key:
        The cache key being claimed (the point's content address).
    worker:
        Claiming worker's identity (``host:pid:token``).
    generation:
        Reap generation: ``0`` for the first claimant of a point, and
        ``+1`` every time a stale claim is reaped.  Passed as the
        ``attempt`` to the :data:`repro.faults.EXPLORE_CLAIM` site, so a
        chaos profile with ``fail_attempts=1`` kills only first
        claimants and their reapers survive.
    claimed_at / heartbeat_at:
        Unix timestamps of acquisition and the latest lease refresh.
    lease_seconds:
        Staleness horizon: the claim is reapable once
        ``now >= heartbeat_at + lease_seconds``.
    """

    key: str
    worker: str
    generation: int
    claimed_at: float
    heartbeat_at: float
    lease_seconds: float

    _FIELDS = ("key", "worker", "generation", "claimed_at", "heartbeat_at", "lease_seconds")

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON; :meth:`from_json` round-trips
        exactly, and distinct records always render to distinct documents."""
        return json.dumps(
            {name: getattr(self, name) for name in self._FIELDS},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ClaimRecord":
        """Strictly rebuild a record (unknown/missing fields raise)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParameterError(f"claim record is not valid JSON: {error}") from error
        if not isinstance(data, dict):
            raise ParameterError(f"a claim record must be a JSON object, got {type(data).__name__}")
        missing = sorted(set(cls._FIELDS) - set(data))
        if missing:
            raise ParameterError(f"claim record is missing fields: {missing}")
        unknown = sorted(set(data) - set(cls._FIELDS))
        if unknown:
            raise ParameterError(f"unknown claim record fields: {unknown}")
        record = cls(**{name: data[name] for name in cls._FIELDS})
        if not isinstance(record.key, str) or not record.key:
            raise ParameterError(f"claim key must be a non-empty string, got {record.key!r}")
        if not isinstance(record.worker, str) or not record.worker:
            raise ParameterError(f"claim worker must be a non-empty string, got {record.worker!r}")
        if (
            not isinstance(record.generation, int)
            or isinstance(record.generation, bool)
            or record.generation < 0
        ):
            raise ParameterError(f"claim generation must be a non-negative int, got {record.generation!r}")
        for name in ("claimed_at", "heartbeat_at", "lease_seconds"):
            value = getattr(record, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ParameterError(f"claim {name} must be a non-negative number, got {value!r}")
        return record


class ClaimStore:
    """Atomic per-point claims in a directory shared by every worker.

    Parameters
    ----------
    directory:
        Where claim files live -- :meth:`for_cache` places them under the
        cache root's ``claims/`` subdirectory, which is what keeps one
        sweep's workers (including ones on other hosts) in one party.
    worker:
        This process's identity, stamped into every claim it writes.
    lease_seconds:
        Lease length written into new claims.  *Reading* honours each
        claim's own recorded lease, so parties with mixed settings agree
        on staleness.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        worker: str | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        if not isinstance(lease_seconds, (int, float)) or lease_seconds <= 0:
            raise ParameterError(
                f"lease_seconds must be a positive number, got {lease_seconds!r}"
            )
        self.directory = Path(directory)
        self.worker = worker if worker is not None else _default_worker_identity()
        self.lease_seconds = float(lease_seconds)

    @classmethod
    def for_cache(cls, cache: ResultCache, **kwargs) -> "ClaimStore":
        """The claim store co-located with a result cache (``claims/``)."""
        return cls(cache.directory / CLAIMS_SUBDIR, **kwargs)

    def path_for(self, key: str) -> Path:
        """Where the claim file for ``key`` lives."""
        if not isinstance(key, str) or len(key) < 3:
            raise ParameterError(f"a claim key must be a hex digest, got {key!r}")
        return self.directory / f"{key}.claim"

    # -- primitive operations -------------------------------------------------

    def _write_exclusive(self, path: Path, record: ClaimRecord) -> bool:
        """Atomically create ``path`` with ``record``; False if it exists.

        The record is written to a private temporary file and hard-linked
        into place, so the claim appears with its content.  A claim created
        empty and filled afterwards could be read in between as torn, and a
        torn claim is reapable: a second worker would steal the point its
        creator is about to execute.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=self.directory, prefix=".new-", suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(record.to_json())
            os.link(temp_name, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(temp_name)
        return True

    def read(self, key: str) -> ClaimRecord | None:
        """The current claim on ``key``, or None (missing *or* unreadable).

        A torn or foreign-schema claim file reads as None -- the caller
        treats it like a stale claim and reaps it, exactly as the result
        cache treats corrupt entries as misses.
        """
        try:
            text = self.path_for(key).read_text()
        except OSError:
            return None
        try:
            return ClaimRecord.from_json(text)
        except ParameterError:
            return None

    def is_stale(self, record: ClaimRecord, now: float | None = None) -> bool:
        """Whether the claim's lease has lapsed (owner presumed dead)."""
        if now is None:
            now = time.time()
        return now >= record.heartbeat_at + record.lease_seconds

    def acquire(self, key: str) -> ClaimRecord | None:
        """Try to claim ``key``; returns the held record, or None if another
        worker holds a *fresh* claim.

        A stale (or unreadable) existing claim is reaped first: the file
        is renamed to a unique tombstone -- atomic, so concurrent reapers
        cannot both win -- and the re-acquisition carries
        ``generation + 1``.
        """
        path = self.path_for(key)
        now = time.time()
        fresh = ClaimRecord(
            key=key,
            worker=self.worker,
            generation=0,
            claimed_at=now,
            heartbeat_at=now,
            lease_seconds=self.lease_seconds,
        )
        if self._write_exclusive(path, fresh):
            return fresh
        current = self.read(key)
        if current is not None and not self.is_stale(current, now):
            return None
        # Stale or unreadable: reap.  Renaming to a unique tombstone is the
        # race arbiter -- the second renamer gets ENOENT and backs off.
        tombstone = self.directory / f".{key[:16]}.reaped-{uuid.uuid4().hex}"
        try:
            os.rename(path, tombstone)
        except OSError:
            return None
        # Verify the rename grabbed the claim we judged stale.  Between our
        # read and our rename a faster reaper may have reaped it *and*
        # re-created a live successor claim -- which our rename would have
        # stolen blindly, double-executing the point.  The tombstone is our
        # private snapshot of whatever we actually renamed, so judge that.
        try:
            renamed = ClaimRecord.from_json(tombstone.read_text())
        except (OSError, ParameterError):
            renamed = None  # torn/unreadable: reapable by definition
        if renamed is not None and not self.is_stale(renamed):
            # We stole a live claim: put it back.  ``os.link`` refuses to
            # clobber, so a third worker's newer claim (created while the
            # path was briefly empty) wins over the restore -- its owner
            # holds the point either way, and the displaced owner degrades
            # to the documented zombie semantics.
            try:
                os.link(tombstone, path)
            except OSError:
                pass
            try:
                os.unlink(tombstone)
            except OSError:  # pragma: no cover - tombstone cleanup is best-effort
                pass
            return None
        generation = (renamed.generation + 1) if renamed is not None else 1
        try:
            os.unlink(tombstone)
        except OSError:  # pragma: no cover - tombstone cleanup is best-effort
            pass
        stolen = replace(fresh, generation=generation, claimed_at=time.time(), heartbeat_at=time.time())
        if self._write_exclusive(path, stolen):
            return stolen
        return None

    def heartbeat(self, record: ClaimRecord) -> ClaimRecord | None:
        """Refresh the lease on a held claim; None if ownership was lost.

        Losing ownership means this worker was presumed dead and reaped.
        The (still live) loser may safely finish its point -- results are
        bit-identical and cache writes atomic -- but it must stop
        touching the claim, which now belongs to the reaper.
        """
        current = self.read(record.key)
        if (
            current is None
            or current.worker != record.worker
            or current.generation != record.generation
        ):
            return None
        refreshed = replace(record, heartbeat_at=time.time())
        path = self.path_for(record.key)
        handle, temp_name = tempfile.mkstemp(dir=self.directory, prefix=".hb-", suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(refreshed.to_json())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return refreshed

    def release(self, record: ClaimRecord) -> bool:
        """Delete a held claim (after its result landed in the cache).

        Only removes the file while this record still owns it; a claim
        lost to a reaper is left alone.  Returns whether a file was
        removed.
        """
        current = self.read(record.key)
        if (
            current is None
            or current.worker != record.worker
            or current.generation != record.generation
        ):
            return False
        try:
            os.unlink(self.path_for(record.key))
        except OSError:
            return False
        return True

    def cleanup_stale(self, key: str) -> bool:
        """Remove a stale claim left by a worker that died *after* caching.

        A worker killed between its cache write and its release leaves a
        claim file that no longer guards anything (the result exists).
        Any worker that resolves the point from the cache calls this to
        garbage-collect the leftover, and a coordinated pass ends by
        calling it on every grid key; fresh claims are never touched.
        """
        current = self.read(key)
        if current is None:
            # Either no claim, or an unreadable one: unreadable files are
            # torn writes from a dead claimant -- reap via the tombstone
            # dance so concurrent cleaners cannot collide.
            path = self.path_for(key)
            if not path.exists():
                return False
        elif not self.is_stale(current):
            return False
        tombstone = self.directory / f".{key[:16]}.reaped-{uuid.uuid4().hex}"
        try:
            os.rename(self.path_for(key), tombstone)
        except OSError:
            return False
        try:
            os.unlink(tombstone)
        except OSError:  # pragma: no cover - tombstone cleanup is best-effort
            pass
        return True


class _HeartbeatKeeper:
    """Background thread refreshing every currently-held claim.

    Refresh cadence is a third of the store's lease, so two missed beats
    still leave headroom before the claim goes stale.  Ownership lost to
    a reaper (we were presumed dead) just drops the record from the set
    -- see :meth:`ClaimStore.heartbeat` for why that is safe.
    """

    def __init__(self, claims: ClaimStore) -> None:
        self.claims = claims
        self._held: dict[str, ClaimRecord] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def add(self, record: ClaimRecord) -> None:
        with self._lock:
            self._held[record.key] = record

    def remove(self, key: str) -> ClaimRecord | None:
        with self._lock:
            return self._held.pop(key, None)

    def drain(self) -> list[ClaimRecord]:
        """Stop tracking every held claim and return them (for release)."""
        with self._lock:
            records = list(self._held.values())
            self._held.clear()
        return records

    def __enter__(self) -> "_HeartbeatKeeper":
        self._thread = threading.Thread(
            target=self._loop, name="repro-claim-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.claims.lease_seconds)

    def _loop(self) -> None:
        interval = self.claims.lease_seconds / 3.0
        while not self._stop.wait(interval):
            with self._lock:
                records = list(self._held.values())
            for record in records:
                try:
                    refreshed = self.claims.heartbeat(record)
                except OSError:  # pragma: no cover - transient FS error: retry next beat
                    continue
                with self._lock:
                    if record.key in self._held:
                        if refreshed is None:
                            del self._held[record.key]
                        else:
                            self._held[record.key] = refreshed


def _in_worker_process() -> bool:
    return os.environ.get(WORKER_FLAG_ENV) == "1"


def _maybe_die(site_key: str, generation: int) -> None:
    """Consult the ``explore.claim`` kill site (flagged claim-party peers only)."""
    if _in_worker_process():
        faults.maybe_inject(faults.EXPLORE_CLAIM, site_key, generation)


def execute_coordinated(
    specs: list[ExperimentSpec],
    keys: list[str],
    *,
    cache: ResultCache,
    policy: RetryPolicy,
    point_workers: int = 0,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_interval: float = 0.05,
    on_executed=None,
    on_cached=None,
) -> None:
    """Resolve a batch of cache misses cooperatively through claim files.

    For every position, exactly one of the two callbacks fires:

    * ``on_executed(position, outcome)`` -- this process claimed the point
      and executed it (the caller persists ``outcome.result`` to the cache
      *before* this function releases the claim, which is why release
      happens via the callback return);
    * ``on_cached(position, result)`` -- another worker executed the point
      and its entry appeared in the cache while we waited.

    The loop interleaves claiming and waiting: each pass tries to claim a
    chunk of unresolved points (up to the pool width), executes what it
    won through :func:`~repro.explore.supervisor.execute_supervised` --
    the supervised pool when ``point_workers > 1``, in-process otherwise,
    exactly as an uncoordinated sweep -- then re-scans: points held by
    live workers resolve from the cache, points whose owner's lease lapsed
    are reaped and re-executed here.  Termination needs no global barrier:
    every unresolved point is either being executed by a live worker (its
    entry will appear) or has a reapable claim (we will execute it
    ourselves).  A callback that raises aborts the pass; every claim still
    held is released on the way out, so peers never wait a lease on them.
    """
    if on_executed is None or on_cached is None:
        raise ParameterError("execute_coordinated needs on_executed and on_cached callbacks")
    if len(specs) != len(keys):
        raise ParameterError("specs and keys must be index-aligned")
    claims = ClaimStore.for_cache(cache, lease_seconds=lease_seconds)
    pending: list[int] = list(range(len(specs)))
    held: dict[int, ClaimRecord] = {}  # claimed, not yet finished
    width = max(1, point_workers)

    def resolve_from_cache(position: int) -> bool:
        key = keys[position]
        if key not in cache:
            return False
        result = cache.get(key)
        if result is None:
            # Corrupt entry, evicted on read: fall back to claiming.
            return False
        claims.cleanup_stale(key)
        on_cached(position, result)
        return True

    with _HeartbeatKeeper(claims) as keeper:
        def finish(position: int, outcome: PointOutcome) -> None:
            # The caller's callback caches the result; only then is the
            # claim released, so a waiter can never acquire a released
            # claim and find the entry missing.
            on_executed(position, outcome)
            # Fault site, second consult: the peer dies *after* the cache
            # write but before releasing -- waiters must resolve from the
            # cache and GC the leftover claim.
            _maybe_die(f"{keys[position]}/release", held.pop(position).generation)
            record = keeper.remove(keys[position])
            if record is not None:
                claims.release(record)
            pending.remove(position)

        try:
            while pending:
                batch: list[int] = []
                progressed = False
                for position in list(pending):
                    if resolve_from_cache(position):
                        pending.remove(position)
                        progressed = True
                        continue
                    if len(batch) >= width:
                        continue
                    record = claims.acquire(keys[position])
                    if record is None:
                        continue
                    if resolve_from_cache(position):
                        # The entry landed between our cache check and our
                        # acquire: the previous owner caches *before*
                        # releasing, so a key whose claim we could win may
                        # already be done.  Without this re-check we would
                        # re-execute it.
                        claims.release(record)
                        pending.remove(position)
                        progressed = True
                        continue
                    # Fault site: a claim-party peer dies right after
                    # claiming, leaving a stale claim for the lease
                    # machinery to reap.  Keyed on the cache key, gated on
                    # generation.
                    _maybe_die(keys[position], record.generation)
                    keeper.add(record)
                    held[position] = record
                    batch.append(position)

                if batch:
                    progressed = True
                    execute_supervised(
                        [specs[position] for position in batch],
                        policy=policy,
                        point_workers=width,
                        on_outcome=lambda sub, outcome: finish(batch[sub], outcome),
                    )

                if pending and not progressed:
                    time.sleep(poll_interval)
        finally:
            for record in keeper.drain():
                claims.release(record)
