"""Schedulers (paper Definitions 3.1 and 4.6).

A scheduler of a PSIOA ``A`` maps each finite execution fragment to a
discrete *sub*-probability measure over the transitions enabled at the
fragment's last state; the deficiency is the probability of halting.
Because a PSIOA has exactly one transition per (state, enabled action),
decisions are represented here as sub-measures over *actions*.

The module ships the scheduler shapes used throughout the paper:

* :class:`FunctionScheduler` — arbitrary (adaptive) schedulers;
* :class:`DeterministicScheduler` — a policy picking one action (or halt);
* :class:`ActionSequenceScheduler` — *oblivious* schedulers that fix an
  action sequence in advance (the off-line schedulers of Section 4.4; they
  are creation-oblivious because decisions never inspect states);
* :class:`TaskScheduler` — task-schedule style schedulers in the spirit of
  [3]: a pre-chosen sequence of tasks (action predicates), each resolved
  deterministically among the enabled actions;
* :class:`RandomizedScheduler` — convex mixtures of schedulers;
* :class:`BoundedScheduler` — the ``b``-time-bounded wrapper of
  Definition 4.6 (halt after ``b`` actions).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence, Tuple

from repro.core.executions import Fragment
from repro.core.psioa import PSIOA
from repro.core.signature import Action
from repro.obs.metrics import counter as _counter
from repro.probability.measures import SubDiscreteMeasure, convex_combination

#: One increment per checked scheduling decision — the step count every
#: execution-measure unfolding and implementation check is made of.
_SCHEDULER_STEPS = _counter("scheduler.steps")

__all__ = [
    "Scheduler",
    "FunctionScheduler",
    "DeterministicScheduler",
    "ActionSequenceScheduler",
    "TaskScheduler",
    "PriorityScheduler",
    "RandomizedScheduler",
    "BoundedScheduler",
    "bound_scheduler",
]


class Scheduler:
    """Base scheduler interface (Definition 3.1).

    ``decide(automaton, fragment)`` returns a sub-probability measure over
    the actions enabled at ``lstate(fragment)``; mass deficiency means
    halting.  Implementations must only assign weight to enabled actions —
    :meth:`decide_checked` enforces this and is what the unfolding engine
    calls.
    """

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        raise NotImplementedError

    def decide_checked(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        _SCHEDULER_STEPS.inc()
        decision = self.decide(automaton, fragment)
        enabled = automaton.signature(fragment.lstate).all_actions
        stray = decision.support() - enabled
        if stray:
            raise ValueError(
                f"scheduler assigned mass to disabled actions {sorted(map(repr, stray))} "
                f"at {fragment.lstate!r}"
            )
        return decision

    # -- introspection used by the bounded layer (Definition 4.6) -------------

    def step_bound(self) -> Optional[int]:
        """An upper bound on the number of scheduled actions, if known."""
        return None


class FunctionScheduler(Scheduler):
    """A scheduler defined by an arbitrary decision function."""

    def __init__(
        self,
        decide: Callable[[PSIOA, Fragment], SubDiscreteMeasure],
        *,
        name: Hashable = "fn",
        step_bound: Optional[int] = None,
    ) -> None:
        self._decide = decide
        self.name = name
        self._step_bound = step_bound

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        return self._decide(automaton, fragment)

    def step_bound(self) -> Optional[int]:
        return self._step_bound


class DeterministicScheduler(Scheduler):
    """Picks a single action (or halts) from each fragment.

    ``policy(automaton, fragment)`` returns an enabled action or ``None``
    to halt.  This is the fully-adaptive deterministic scheduler class.
    """

    def __init__(
        self,
        policy: Callable[[PSIOA, Fragment], Optional[Action]],
        *,
        name: Hashable = "det",
    ) -> None:
        self._policy = policy
        self.name = name

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        action = self._policy(automaton, fragment)
        if action is None:
            return SubDiscreteMeasure.halt()
        return SubDiscreteMeasure({action: 1})

    @staticmethod
    def greedy(*, key=repr, name: Hashable = "greedy") -> "DeterministicScheduler":
        """Always fires the ``key``-least enabled action (a canonical
        maximal scheduler useful in tests)."""

        def policy(automaton: PSIOA, fragment: Fragment) -> Optional[Action]:
            enabled = automaton.signature(fragment.lstate).all_actions
            if not enabled:
                return None
            return min(enabled, key=key)

        return DeterministicScheduler(policy, name=name)


class ActionSequenceScheduler(Scheduler):
    """An *oblivious* scheduler: a fixed action sequence chosen in advance.

    At step ``i`` the scheduler fires ``sequence[i]`` if it is enabled and
    halts otherwise (and after the sequence is exhausted).  Decisions depend
    only on the number of steps taken — never on states — so the scheduler
    is oblivious and in particular creation-oblivious in the sense the
    paper needs for monotonicity w.r.t. creation (Section 4.4).

    ``local_only=True`` restricts firing to *locally controlled* actions of
    the scheduled automaton (outputs and internals).  This is the task-PIOA
    convention of [3]/[4]: inputs of the composed system are driven by
    component outputs, never injected by the scheduler — the right setting
    for closed-system distinguishing experiments, where an injected input
    would let the scheduler smuggle information to the environment.
    """

    def __init__(
        self,
        sequence: Sequence[Action],
        *,
        name: Hashable = None,
        local_only: bool = False,
    ) -> None:
        self.sequence: Tuple[Action, ...] = tuple(sequence)
        self.local_only = local_only
        self.name = name if name is not None else ("seq",) + self.sequence

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        i = len(fragment)
        if i >= len(self.sequence):
            return SubDiscreteMeasure.halt()
        action = self.sequence[i]
        signature = automaton.signature(fragment.lstate)
        allowed = signature.locally_controlled() if self.local_only else signature.all_actions
        if action not in allowed:
            return SubDiscreteMeasure.halt()
        return SubDiscreteMeasure({action: 1})

    def step_bound(self) -> Optional[int]:
        return len(self.sequence)


class TaskScheduler(Scheduler):
    """A lightweight task-*priority* scheduler (after [3], Section 4.4
    discussion).

    .. note:: This class matches tasks against the *step count*, which is a
       convenient approximation for test drivers.  The faithful off-line
       task-schedule semantics of [3] — replaying the schedule against the
       fragment, with no-op tasks consumed without steps — lives in
       :class:`repro.semantics.tasks.TaskScheduleScheduler`; prefer it for
       anything theorem-shaped.

    ``tasks`` is a pre-chosen sequence of *tasks*; each task is a predicate
    over actions (an equivalence class in [3]).  At step ``i`` the enabled
    actions satisfying ``tasks[i]`` are computed; if the set is empty the
    task is skipped (a no-op, moving to the next task at the same fragment
    is not expressible without stuttering, so we halt-or-fire: empty means
    *skip* by consuming the task and re-deciding), otherwise the
    ``key``-least matching action fires, resolving the task
    deterministically.
    """

    def __init__(
        self,
        tasks: Sequence[Callable[[Action], bool]],
        *,
        key=repr,
        name: Hashable = "tasks",
    ) -> None:
        self.tasks = tuple(tasks)
        self._key = key
        self.name = name

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        enabled = automaton.signature(fragment.lstate).all_actions
        # Consume tasks one per executed step; skip tasks with no match.
        index = len(fragment)
        for task in self.tasks[index:]:
            matching = [a for a in enabled if task(a)]
            if matching:
                return SubDiscreteMeasure({min(matching, key=self._key): 1})
            # Task disabled: per the off-line reading it is a no-op; continue
            # to the next task without consuming a step.
            index += 1
        return SubDiscreteMeasure.halt()

    def step_bound(self) -> Optional[int]:
        return len(self.tasks)


class PriorityScheduler(Scheduler):
    """A run-to-completion driver: fires the highest-priority enabled
    locally-controlled action, halting when none matches.

    ``priorities`` is an ordered list of predicates over actions; at each
    fragment the first predicate with a non-empty match against the enabled
    locally-controlled actions wins, resolved deterministically by ``key``.
    Restricting to locally-controlled actions keeps the scheduler from
    injecting unmatched inputs (the task-PIOA convention), so closed
    systems run their natural protocol flow.

    This is the canonical scheduler shape for protocol workloads: the
    schema of all priority permutations is small, covers the interesting
    interleavings, and every member is oblivious to state *content*
    (decisions depend only on which actions are enabled).
    """

    def __init__(
        self,
        priorities: Sequence[Callable[[Action], bool]],
        bound: int,
        *,
        key=repr,
        name: Hashable = "priority",
    ) -> None:
        self.priorities = tuple(priorities)
        self.bound = bound
        self._key = key
        self.name = name

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        if len(fragment) >= self.bound:
            return SubDiscreteMeasure.halt()
        local = automaton.signature(fragment.lstate).locally_controlled()
        for predicate in self.priorities:
            matching = [a for a in local if predicate(a)]
            if matching:
                return SubDiscreteMeasure({min(matching, key=self._key): 1})
        return SubDiscreteMeasure.halt()

    def step_bound(self) -> Optional[int]:
        return self.bound


class RandomizedScheduler(Scheduler):
    """A convex mixture of schedulers: decisions are mixed pointwise.

    Mixing pointwise realizes the randomized schedulers allowed by
    Definition 3.1 (decisions are arbitrary sub-probability measures).
    """

    def __init__(
        self,
        components: Sequence[Tuple[object, Scheduler]],
        *,
        name: Hashable = "mix",
    ) -> None:
        self.components = tuple(components)
        total = sum(weight for weight, _ in self.components)
        if total != 1 and abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total!r} != 1")
        self.name = name

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        mixed = convex_combination(
            [(w, s.decide(automaton, fragment)) for w, s in self.components]
        )
        if isinstance(mixed, SubDiscreteMeasure):
            return mixed
        return SubDiscreteMeasure({o: mixed(o) for o in mixed.support()})

    def step_bound(self) -> Optional[int]:
        bounds = [s.step_bound() for _, s in self.components]
        if any(b is None for b in bounds):
            return None
        return max(bounds) if bounds else 0


class BoundedScheduler(Scheduler):
    """The ``b``-time-bounded wrapper of Definition 4.6.

    Behaves like the base scheduler on fragments of length ``< b`` and
    halts with probability 1 on longer fragments, so it never schedules
    more than ``b`` actions.
    """

    def __init__(self, base: Scheduler, bound: int, *, name: Hashable = None) -> None:
        if bound < 0:
            raise ValueError("bound must be non-negative")
        self.base = base
        self.bound = bound
        self.name = name if name is not None else ("bounded", bound, getattr(base, "name", None))

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        if len(fragment) >= self.bound:
            return SubDiscreteMeasure.halt()
        return self.base.decide(automaton, fragment)

    def step_bound(self) -> Optional[int]:
        base_bound = self.base.step_bound()
        return self.bound if base_bound is None else min(self.bound, base_bound)


def bound_scheduler(scheduler: Scheduler, bound: int) -> Scheduler:
    """Wrap ``scheduler`` so it is ``bound``-time-bounded (Definition 4.6).

    Already-tighter schedulers are returned unchanged.
    """
    existing = scheduler.step_bound()
    if existing is not None and existing <= bound:
        return scheduler
    return BoundedScheduler(scheduler, bound)
