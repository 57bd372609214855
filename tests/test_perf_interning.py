"""Property-based tests of the perf layer's transition-cache soundness.

The contract under test (see ``docs/performance.md``):

* a cached transition is the very object the automaton produced, and
  equal to an uncached recomputation;
* a mutated automaton plus :func:`repro.perf.cache.invalidate` never serves
  a stale transition;
* the bounded store respects its entry and owner caps and counts evictions;
* ``REPRO_CACHE=off`` (via ``configure``) keeps the store empty;
* unfoldings are identical with and without the cache.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.perf import cache as perf_cache
from repro.perf.cache import _BoundedStore
from repro.probability.measures import dirac
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import DeterministicScheduler, bound_scheduler
from repro.systems.factory import random_psioa

from tests.helpers import coin_automaton

SEEDS = st.integers(min_value=0, max_value=10_000)


def make(seed, name="X", **kw):
    rng = np.random.default_rng(seed)
    return random_psioa((name, seed), rng, **kw)


def _fresh_cache():
    perf_cache.configure(enabled=True)
    perf_cache.clear()


class TestCacheSoundness:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_cached_transitions_match_uncached(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        _fresh_cache()
        for state in automaton.states:
            for action in automaton.enabled(state):
                cached = automaton.transition(state, action)
                again = automaton.transition(state, action)
                assert again is cached  # identity: served from the cache
                perf_cache.configure(enabled=False)
                raw = automaton.transition(state, action)
                perf_cache.configure(enabled=True)
                assert cached == raw and dict(cached.items()) == dict(raw.items())

    def test_mutation_plus_invalidate_never_serves_stale(self):
        automaton = TablePSIOA(
            "mut",
            "q0",
            {"q0": Signature(outputs={"go"}), "q1": Signature(), "q2": Signature()},
            {("q0", "go"): dirac("q1")},
        )
        _fresh_cache()
        first = automaton.transition("q0", "go")
        assert first("q1") == 1
        # In-place mutation: retarget the transition, then invalidate.
        automaton.transitions[("q0", "go")] = dirac("q2")
        dropped = perf_cache.invalidate(automaton)
        assert dropped >= 1
        fresh = automaton.transition("q0", "go")
        assert fresh("q2") == 1 and fresh("q1") == 0

    def test_invalidate_drops_decisions_and_measures_of_the_object(self):
        automaton = coin_automaton("inv", Fraction(1, 2))
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 3)
        _fresh_cache()
        execution_measure(automaton, scheduler)
        assert perf_cache.CACHE.transitions.size() > 0
        perf_cache.invalidate(automaton)
        assert perf_cache.CACHE.transitions.size() == 0

    def test_disabled_cache_stays_empty(self):
        automaton = coin_automaton("off", Fraction(1, 2))
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 3)
        perf_cache.configure(enabled=False)
        perf_cache.clear()
        execution_measure(automaton, scheduler)
        automaton.transition("q0", "toss")
        stats = perf_cache.stats()
        assert all(block["size"] == 0 for block in stats.values())

    def test_bounded_store_respects_entry_cap(self):
        store = _BoundedStore("test-cap", max_owners=4, max_entries=3)
        owner_obj = object()
        for i in range(10):
            store.put(id(owner_obj), owner_obj, ("key", i), i)
        assert store.size() == 3
        assert store.evictions.value == 7
        # The survivors are the most recently inserted keys.
        assert store.get(id(owner_obj), ("key", 9)) == 9
        assert store.get(id(owner_obj), ("key", 0)) is None

    def test_bounded_store_respects_owner_cap(self):
        store = _BoundedStore("test-owners", max_owners=2, max_entries=8)
        keep = [object() for _ in range(3)]
        for obj in keep:
            store.put(id(obj), obj, "k", "v")
        # Third owner evicted the least-recently-used first owner wholesale.
        assert store.get(id(keep[0]), "k") is None
        assert store.get(id(keep[1]), "k") == "v"
        assert store.get(id(keep[2]), "k") == "v"

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_unfolding_identical_with_and_without_cache(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 5)
        _fresh_cache()
        cached = execution_measure(automaton, scheduler)
        perf_cache.configure(enabled=False)
        uncached = execution_measure(automaton, scheduler)
        perf_cache.configure(enabled=True)
        assert dict(cached.items()) == dict(uncached.items())
