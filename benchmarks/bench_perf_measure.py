"""Performance: exact execution-measure computation (epsilon_sigma).

The unfolding engine is the inner loop of every f-dist and every
implementation check; this bench tracks its scaling with scheduler depth
and with probabilistic branching, and records the engine's throughput
into ``BENCH_perf.json`` (gated against the committed baseline, see
``conftest.py``).
"""

import time
from fractions import Fraction

import pytest

from repro.core.composition import compose
from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.perf import cache as perf_cache
from repro.probability.measures import DiscreteMeasure, dirac
from repro.semantics.insight import accept_insight, f_dist
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler, PriorityScheduler
from repro.systems.channels import (
    channel_environment,
    guessing_adversary,
    real_channel,
)
from repro.secure.emulation import hidden_world
from repro.systems.coin import coin, coin_observer


def _branching_chain(depth):
    """The doubling coin chain used by the throughput workloads."""
    signatures = {}
    transitions = {}
    for i in range(depth):
        signatures[i] = Signature(outputs={("flip", i)})
        transitions[(i, ("flip", i))] = DiscreteMeasure(
            {(i + 1): Fraction(1, 2), (i, "dead"): Fraction(1, 2)}
        )
        signatures[(i, "dead")] = Signature(outputs={("stuck", i)})
        transitions[((i, "dead"), ("stuck", i))] = dirac((i, "gone"))
        signatures[(i, "gone")] = Signature()
    signatures[depth] = Signature()
    return TablePSIOA("chain", 0, signatures, transitions)


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_unfold_branching_chain(benchmark, depth):
    """A chain of coins: the execution tree doubles per toss."""
    chain = _branching_chain(depth)
    sched = PriorityScheduler([lambda a: True], depth * 2)

    measure = benchmark(execution_measure, chain, sched)
    assert measure.total_mass == 1


def test_unfold_throughput_point(perf_point):
    """The gated engine-throughput figure: raw unfoldings/s, cache off.

    Cache disabled so the point measures the unfolding engine itself —
    cached repeats would only measure memo-lookup speed."""
    perf_cache.configure(enabled=False)
    chain = _branching_chain(6)
    sched = PriorityScheduler([lambda a: True], 12)
    execution_measure(chain, sched)  # warm import paths / allocators
    rounds = 60
    start = time.perf_counter()
    for _ in range(rounds):
        measure = execution_measure(chain, sched)
    elapsed = time.perf_counter() - start
    assert measure.total_mass == 1
    perf_point(
        "measure.unfold.throughput",
        ops_s=rounds / elapsed,
        rounds=rounds,
        depth=6,
    )


@pytest.mark.parametrize("script_len", [3, 6, 12])
def test_fdist_coin_world(benchmark, script_len):
    env = coin_observer()
    biased = coin("biased", Fraction(2, 3))
    script = (["toss", "head", "acc"] * ((script_len + 2) // 3))[:script_len]
    sched = ActionSequenceScheduler(script, local_only=True)

    dist = benchmark(f_dist, accept_insight(), env, biased, sched)
    assert dist.total_mass == 1


def test_fdist_channel_world(benchmark):
    """The full secure-channel world: env || hide(real || Adv)."""
    env = channel_environment(1)
    system = hidden_world(real_channel("real", 3), guessing_adversary())
    sched = PriorityScheduler(
        [lambda a: isinstance(a, tuple), lambda a: a == "acc"], 10
    )

    dist = benchmark(f_dist, accept_insight(), env, system, sched)
    assert dist.total_mass == 1
