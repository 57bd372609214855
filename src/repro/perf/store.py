"""Disk-backed persistent store of whole sweep results.

The store turns :func:`repro.perf.parallel_map`'s sweep memo into a
cross-process, cross-restart one: entries are keyed by the content hashes
of :mod:`repro.perf.fingerprint`, so a fork child, a socket worker, or a
fresh interpreter running the same sweep finds its results on disk
instead of dispatching it again.  Sweeps are the only kind stored: a
persisted unfolding tier cost more in fingerprinting than it saved (see
``docs/performance.md``).

Activation is purely environmental: ``REPRO_CACHE_DIR`` names the cache
directory (the runner's ``--cache-dir`` flag exports it, and both the
fork backend — via copy-on-write — and the socket transport — via the
worker CLI and the run-frame context — propagate it to workers).  When
the variable is unset, :func:`active_store` returns ``None`` and the perf
layer behaves exactly as before; nothing else in the process needs
configuring, which is what keeps experiment child processes and remote
workers in agreement without a handshake.

On-disk format
--------------

::

    <REPRO_CACHE_DIR>/
      v<STORE_FORMAT>.<FINGERPRINT_VERSION>-py<major>.<minor>/
        sweep/<shard>/<entry-fingerprint>.pkl

The version segment bakes in the entry format, the fingerprint encoding
version, and the Python minor version (pickled bytecode-adjacent values
must not cross interpreters), so incompatible writers simply land in
sibling trees.  The shard is the first two hex digits of the key.  Each
entry is a pickled dict carrying ``format``, ``kind`` and ``key`` echoes
that are validated on read — a truncated, corrupt, or foreign file is a
miss, never an error.  Writes go through a temporary file and
:func:`os.replace`, so concurrent writers (fork children, socket workers
on a shared filesystem) race benignly: last write wins, readers always
see a complete entry.  Sweep entries have no single dependency, so
:meth:`PersistentStore.invalidate` drops the whole kind.

Entries are trusted input: only point ``REPRO_CACHE_DIR`` at directories
written by processes you trust, as entries are unpickled on read.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sys
import tempfile
from typing import Any, Dict, Optional

from repro.obs import metrics as _metrics
from repro.perf.fingerprint import FINGERPRINT_VERSION

__all__ = [
    "STORE_FORMAT",
    "PersistentStore",
    "active_store",
    "cache_dir",
    "version_tag",
]

#: Bump when the entry layout below changes shape.
STORE_FORMAT = 1

_HITS = _metrics.counter("perf.cache.persistent.hits")
_MISSES = _metrics.counter("perf.cache.persistent.misses")
_WRITES = _metrics.counter("perf.cache.persistent.writes")
_INVALIDATIONS = _metrics.counter("perf.cache.persistent.invalidations")


def cache_dir() -> Optional[str]:
    """The persistent cache directory from ``REPRO_CACHE_DIR``, or None."""
    raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return raw or None


def version_tag() -> str:
    """Directory segment isolating incompatible entry formats."""
    return "v{}.{}-py{}.{}".format(
        STORE_FORMAT,
        FINGERPRINT_VERSION,
        sys.version_info[0],
        sys.version_info[1],
    )


def active_store() -> Optional["PersistentStore"]:
    """A store over ``REPRO_CACHE_DIR``, or ``None`` when unset.

    Reads the environment on every call — construction does no I/O, so
    this is cheap enough for memo-boundary checks and means children that
    inherited (or were handed) the variable need no further setup.
    """
    base = cache_dir()
    if base is None:
        return None
    return PersistentStore(base)


class PersistentStore:
    """Content-addressed pickle store under a versioned root.

    All failure modes are soft: unreadable entries are misses, unwritable
    directories make :meth:`put` a no-op.  The store must never be able
    to fail a run that would have succeeded without it.
    """

    __slots__ = ("base", "root")

    def __init__(self, base: str) -> None:
        self.base = base
        self.root = os.path.join(base, version_tag())

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, key[:2], key + ".pkl")

    def get(self, kind: str, key: str) -> Any:
        """The stored value for ``(kind, key)``, or ``None`` on any miss."""
        try:
            with open(self._path(kind, key), "rb") as handle:
                entry = pickle.load(handle)
            if (
                not isinstance(entry, dict)
                or entry.get("format") != STORE_FORMAT
                or entry.get("kind") != kind
                or entry.get("key") != key
            ):
                raise ValueError("entry failed validation")
        except Exception:
            _MISSES.inc()
            return None
        _HITS.inc()
        return entry["value"]

    def put(self, kind: str, key: str, value: Any) -> bool:
        """Atomically persist ``value``; best-effort, False on failure."""
        path = self._path(kind, key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        {
                            "format": STORE_FORMAT,
                            "kind": kind,
                            "key": key,
                            "value": value,
                        },
                        handle,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return False
        _WRITES.inc()
        return True

    def invalidate(self) -> None:
        """Drop every stored sweep: sweep entries fold their dependencies
        into one opaque key, so no narrower invalidation is possible."""
        shutil.rmtree(os.path.join(self.root, "sweep"), ignore_errors=True)
        _INVALIDATIONS.inc()

    def clear(self) -> None:
        """Remove every entry written under the current version tag."""
        shutil.rmtree(self.root, ignore_errors=True)

    def stats(self) -> Dict[str, Any]:
        """Snapshot ``{dir, entries, bytes}`` for ``summary.cache.persistent``."""
        entries = 0
        size = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                entries += 1
                try:
                    size += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return {"dir": self.base, "entries": entries, "bytes": size}
