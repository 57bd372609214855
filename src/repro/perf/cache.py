"""Transparent memoization of automaton transitions (the ``repro.perf`` cache).

``PSIOA.transition(state, action)`` is a pure function of its arguments
(transition determinism, Definition 2.1), and the unfolding engine asks
for the same ``eta_(A, q, a)`` over and over — once per fragment ending in
``q`` that schedules ``a``.  This module memoizes exactly that lookup
behind the call site that already exists, so enabling the cache changes
*nothing* about results — only about how often the automaton's raw
transition function runs.  Exactness is preserved by construction: a
cached value is the very object the uncached computation produced.

It is the only in-memory tier: over the fast suite and the paper's
kernels at scale, transitions hit about 60 % of the time, while memos of
scheduler decisions, whole unfoldings, derived alphabets and interned
fragments or measures almost never hit (counters in
``docs/performance.md``).  The paper's kernels
(:mod:`repro.semantics.measure`) therefore carry no perf code at all.

Identity keys and keepalives
----------------------------
Entries are keyed by the automaton's identity.  ``PSIOA.__eq__`` compares
names only, so value equality is never enough to share entries.  The
store keeps a strong reference to each automaton it holds entries for
(the *keepalive*), so an ``id()`` key can never be recycled by the
allocator while its entries are live.  The LRU bounds below cap how long
cached automata stay alive.

Invalidation
------------
Mutating an automaton in place (e.g. editing a ``TablePSIOA`` table) makes
its cached transitions stale.  Call :func:`invalidate` with the mutated
object to drop its entries.  It also makes the fingerprint memo forget
the object and, when a persistent store is active, drops the stored sweep
results, which may have captured the old structure.  :func:`clear` drops
everything in-memory.  The guarded experiment runner clears the cache at
the start of every experiment, so runs never share warmth.

Configuration
-------------
The environment variable ``REPRO_CACHE`` (``on``/``off``, default ``on``)
sets the initial state; :func:`configure` overrides it at runtime.  The
store publishes ``perf.cache.transition.{hits,misses,evictions}`` counters
on the global :mod:`repro.obs.metrics` registry, so cache behaviour shows
up in run reports and bench trajectories without extra plumbing.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.obs.metrics import counter as _counter
from repro.perf import fingerprint as _fingerprint
from repro.perf import store as _store

__all__ = [
    "CACHE",
    "cache_enabled",
    "configure",
    "cached_transition",
    "invalidate",
    "clear",
    "stats",
]

#: Default size bounds.  The entry cap bounds the width of a single
#: automaton's table; the owner cap bounds how many distinct automata are
#: tracked at once (least-recently-used owners are dropped whole).
DEFAULT_BOUNDS = {
    "transition_owners": 256,
    "transition_entries": 16384,
}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "on").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
    )


class _BoundedStore:
    """A two-level LRU store: owner -> (keepalive, key -> value).

    ``owner`` is an id-derived hashable; ``keepalive`` is the object whose
    identity the owner encodes — held strongly so the id stays valid for
    the lifetime of the entries.
    """

    __slots__ = ("name", "max_owners", "max_entries", "_owners", "hits", "misses", "evictions")

    def __init__(self, name: str, max_owners: int, max_entries: int) -> None:
        self.name = name
        self.max_owners = max_owners
        self.max_entries = max_entries
        #: owner -> [keepalive, OrderedDict(key -> value)]
        self._owners: "OrderedDict[Hashable, Tuple[Any, OrderedDict]]" = OrderedDict()
        self.hits = _counter(f"perf.cache.{name}.hits")
        self.misses = _counter(f"perf.cache.{name}.misses")
        self.evictions = _counter(f"perf.cache.{name}.evictions")

    def get(self, owner: Hashable, key: Hashable) -> Optional[Any]:
        slot = self._owners.get(owner)
        if slot is None:
            self.misses.inc()
            return None
        entries = slot[1]
        value = entries.get(key)
        if value is None:
            self.misses.inc()
            return None
        entries.move_to_end(key)
        self._owners.move_to_end(owner)
        self.hits.inc()
        return value

    def put(self, owner: Hashable, keepalive: Any, key: Hashable, value: Any) -> None:
        slot = self._owners.get(owner)
        if slot is None:
            while len(self._owners) >= self.max_owners:
                _, (_, dropped) = self._owners.popitem(last=False)
                self.evictions.inc(len(dropped))
            slot = (keepalive, OrderedDict())
            self._owners[owner] = slot
        entries = slot[1]
        while len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions.inc()
        entries[key] = value
        self._owners.move_to_end(owner)

    def invalidate_object(self, obj: Any) -> int:
        """Drop every owner whose keepalive is ``obj`` (by identity)."""
        stale = [owner for owner, (keepalive, _) in self._owners.items() if keepalive is obj]
        return sum(len(self._owners.pop(owner)[1]) for owner in stale)

    def clear(self) -> None:
        self._owners.clear()

    def size(self) -> int:
        return sum(len(entries) for _, entries in self._owners.values())


class PerfCache:
    """The process-global transition memo (see the module docstring)."""

    def __init__(self, bounds: Optional[Dict[str, int]] = None) -> None:
        b = dict(DEFAULT_BOUNDS)
        if bounds:
            b.update(bounds)
        self.enabled: bool = _env_enabled()
        self.transitions = _BoundedStore(
            "transition", b["transition_owners"], b["transition_entries"]
        )

    def clear(self) -> None:
        self.transitions.clear()

    def invalidate(self, obj: Any) -> int:
        """Drop every cached transition of ``obj``; returns the count."""
        return self.transitions.invalidate_object(obj)

    def stats(self) -> Dict[str, Dict[str, int]]:
        store = self.transitions
        return {
            store.name: {
                "size": store.size(),
                "hits": store.hits.value,
                "misses": store.misses.value,
                "evictions": store.evictions.value,
            }
        }


#: The singleton every call site binds against.
CACHE = PerfCache()


def cache_enabled() -> bool:
    return CACHE.enabled


def configure(*, enabled: Optional[bool] = None) -> None:
    """Override the cache switch; ``enabled=None`` re-reads ``REPRO_CACHE``."""
    CACHE.enabled = _env_enabled() if enabled is None else bool(enabled)


def clear() -> None:
    # The fingerprint memo is identity-keyed too; forgetting it alongside
    # the entries keeps recycled ids from ever resolving to a stale digest.
    CACHE.clear()
    _fingerprint.clear_memo()


def invalidate(obj: Any) -> int:
    """Drop every cached value derived from ``obj``.

    The in-memory transitions go first; then the fingerprint memo forgets
    the object, so a later fingerprint re-hashes the mutated structure.
    When the object had been fingerprinted, a stored sweep may have
    captured it, so an active persistent store drops its sweep results."""
    stale_fp = _fingerprint.peek(obj)
    dropped = CACHE.invalidate(obj)
    _fingerprint.forget(obj)
    if stale_fp is not None:
        persistent = _store.active_store()
        if persistent is not None:
            persistent.invalidate()
    return dropped


def stats() -> Dict[str, Dict[str, int]]:
    return CACHE.stats()


def cached_transition(automaton: Any, state: Hashable, action: Hashable) -> Any:
    """Memoized ``eta_(A, q, a)`` — calls the automaton's raw transition
    function on a miss.  Invoked from ``PSIOA.transition`` after its
    enabled check.  Lookup failures (disabled actions) propagate and are
    never cached."""
    owner = id(automaton)
    key = (state, action)
    eta = CACHE.transitions.get(owner, key)
    if eta is not None:
        return eta
    eta = automaton._transition(state, action)
    CACHE.transitions.put(owner, automaton, key, eta)
    return eta
