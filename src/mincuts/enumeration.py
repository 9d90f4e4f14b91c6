"""Backtracking enumeration of the node sets generating minimal s-t cuts.

Two engines search with the same state (prefix stack ``S``, remainder
``T``, per-level exclusion sets ``N``, blocked-candidate set ``B``):

* :func:`enumerate_mcvs` — the corrected search. It records the initial
  ``{s}``, retries other candidates when removing a candidate from the
  remainder disconnects it (tracking such failures in ``B``), and stops
  only once the search has backtracked all the way past the root. Every
  selection order, b-policy and trace setting runs one loop over bitmasks.
* :func:`run_yeh_original` — a faithful replica of the original 2006
  algorithm (Yeh, EJOR 174:1694-1705), kept for diagnosis. It never
  records ``{s}``, stops one level early, has no ``B`` set, and leaves the
  disconnected case of its step 2 undefined; :class:`YehPolicy` selects
  which of the three possible transfers to take so each documented failure
  mode can be reproduced on demand. It is one loop over the numbered
  steps on :class:`_State`, the step-by-step state it shares with the
  tests' step-loop reference of the corrected search.

Both run iteratively with explicit stacks, so deep graphs cannot exhaust
the call stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Literal, Union, get_args

from .graph import Cut, Graph, NodeSet, _bits, _connected_mask, cut_edges

__all__ = [
    "B_POLICIES",
    "YEH_POLICIES",
    "AscendingOrder",
    "EnumerationOptions",
    "EnumerationReport",
    "PriorityOrder",
    "RandomOrder",
    "RunStats",
    "RunStatus",
    "ScriptedOrder",
    "SelectionOrder",
    "TraceEvent",
    "TraceStep",
    "YehPolicy",
    "enumerate_mcvs",
    "run_yeh_original",
]

BPolicy = Literal["scoped", "persistent"]
OnDisconnected = Literal["goto-step1", "goto-step3", "goto-step4"]
B_POLICIES: tuple[str, ...] = get_args(BPolicy)
YEH_POLICIES: tuple[str, ...] = get_args(OnDisconnected)


@dataclass(frozen=True)
class AscendingOrder:
    """Pick the candidate with the smallest node index."""


@dataclass(frozen=True)
class ScriptedOrder:
    """Replay a fixed sequence of node indices.

    Each entry must be a legal candidate at the moment it is consulted;
    running out of entries, or supplying an illegal one, aborts the run
    with :attr:`RunStatus.SCRIPT_EXHAUSTED`.
    """

    nodes: tuple[int, ...]


@dataclass(frozen=True)
class RandomOrder:
    """Pick uniformly among the legal candidates, seeded per run."""

    seed: int


@dataclass(frozen=True)
class PriorityOrder:
    """Pick the candidate ranked earliest in ``ranking``.

    Unranked nodes come after all ranked ones, in ascending index order.
    A ranking that places a doomed candidate first is the cleanest way to
    drive the original algorithm's non-terminating transfer into its loop.
    """

    ranking: tuple[int, ...]


SelectionOrder = Union[AscendingOrder, ScriptedOrder, RandomOrder, PriorityOrder]


def _make_chooser(order: SelectionOrder) -> Callable[[tuple[int, ...]], int | None]:
    """Compile an order spec into ``candidates -> choice`` (None aborts).

    Candidates always arrive as a non-empty ascending tuple.
    """
    if isinstance(order, AscendingOrder):
        return lambda candidates: candidates[0]
    if isinstance(order, ScriptedOrder):
        entries = iter(order.nodes)

        def scripted(candidates: tuple[int, ...]) -> int | None:
            v = next(entries, None)
            return v if v in candidates else None

        return scripted
    if isinstance(order, RandomOrder):
        rng = random.Random(order.seed)
        return lambda candidates: rng.choice(candidates)
    if isinstance(order, PriorityOrder):
        rank = {v: i for i, v in enumerate(order.ranking)}
        fallback = len(rank)
        return lambda candidates: min(
            candidates, key=lambda v: (rank.get(v, fallback), v)
        )
    raise TypeError(f"unknown selection order: {order!r}")


class RunStatus(str, Enum):
    COMPLETED = "completed"
    STEP_LIMIT_EXCEEDED = "step-limit-exceeded"
    SCRIPT_EXHAUSTED = "script-exhausted"


class TraceStep(str, Enum):
    STEP0 = "step0"
    STEP1_SELECT = "step1-select"
    STEP1_EXHAUSTED = "step1-exhausted"
    STEP2_CONNECTED = "step2-connected"
    STEP2_DISCONNECTED = "step2-disconnected"
    STEP3_RECORD = "step3-record"
    STEP4_BACKTRACK = "step4-backtrack"
    STOP = "stop"


@dataclass(frozen=True)
class TraceEvent:
    """One step of a run.

    ``prefix`` snapshots the prefix stack after the event applies (so a
    record event shows the newly recorded stack, a backtrack event the
    shortened one). ``candidates`` is the legal candidate set on a select
    event; on an exhausted event it is the raw remainder after exclusions,
    which may still hold nodes that merely lack an edge into the prefix.
    """

    step: TraceStep
    prefix: tuple[int, ...]
    node: int | None = None
    candidates: tuple[int, ...] = ()


@dataclass
class RunStats:
    step1_visits: int = 0
    connectivity_checks: int = 0
    backtracks: int = 0
    records: int = 0
    steps: int = 0


@dataclass(frozen=True)
class EnumerationOptions:
    selection_order: SelectionOrder = AscendingOrder()
    b_policy: BPolicy = "scoped"
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.b_policy not in B_POLICIES:
            raise ValueError(f"unknown b-policy {self.b_policy!r}")


@dataclass(frozen=True)
class YehPolicy:
    """How the original-algorithm replica leaves its undefined branch.

    ``on_disconnected`` picks the transfer taken when deleting the chosen
    candidate disconnects the remainder (the case the original text leaves
    open); ``step_limit`` bounds total executed steps, defaulting to
    ``10 * 2**n`` — far beyond any terminating run at this scale, so only
    genuine non-termination trips it.
    """

    on_disconnected: OnDisconnected
    step_limit: int | None = None

    def __post_init__(self) -> None:
        if self.on_disconnected not in YEH_POLICIES:
            raise ValueError(f"unknown transfer {self.on_disconnected!r}")
        if self.step_limit is not None and self.step_limit <= 0:
            raise ValueError("step_limit must be positive")


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of one enumeration run on ``graph``.

    ``mcvs`` lists recorded node sets in discovery order and ``cuts`` their
    crossing-edge sets, index-parallel; the cuts are computed on first
    access. The replica can record sets that are not actually
    cut-generating (that is one of its defects); the corrected engine's
    output is sound whenever the input graph has no nodes off every
    source-sink path.
    """

    mcvs: tuple[NodeSet, ...]
    trace: tuple[TraceEvent, ...]
    stats: RunStats
    status: RunStatus
    graph: Graph

    @cached_property
    def cuts(self) -> tuple[Cut, ...]:
        return tuple(cut_edges(self.graph, u) for u in self.mcvs)


class _State:
    """Step-by-step search state over bitmasks, for the replica and tests.

    Per-level exclusion sets are plain ints, so the level copy made on
    descent is free and mutation on backtrack cannot leak across levels.
    """

    def __init__(self, g: Graph, record_trace: bool) -> None:
        self.g = g
        self.adj = g.adjacency_masks
        self.stack: list[int] = [g.source]
        self.stack_mask: int = 1 << g.source
        self.rest_mask: int = g.full_mask & ~self.stack_mask
        self.excluded: list[int] = [1 << g.sink]
        self.found: list[NodeSet] = []
        self.stats = RunStats()
        self.trace: list[TraceEvent] = []
        self.record_trace = record_trace

    def emit(self, step: TraceStep, node: int | None = None,
             candidates: tuple[int, ...] = ()) -> None:
        if self.record_trace:
            self.trace.append(
                TraceEvent(step, tuple(self.stack), node, candidates)
            )

    def legal_candidates(self, blocked: int) -> tuple[int, ...]:
        """Nodes in the remainder, not excluded or blocked, adjacent to the prefix."""
        raw = self.rest_mask & ~(blocked | self.excluded[-1])
        return tuple(v for v in _bits(raw) if self.adj[v] & self.stack_mask)

    def raw_candidates(self, blocked: int) -> tuple[int, ...]:
        return tuple(_bits(self.rest_mask & ~(blocked | self.excluded[-1])))

    def remainder_connected_without(self, v: int) -> bool:
        self.stats.connectivity_checks += 1
        return _connected_mask(self.adj, self.rest_mask & ~(1 << v))

    def descend(self, v: int) -> None:
        self.stack.append(v)
        self.stack_mask |= 1 << v
        self.rest_mask &= ~(1 << v)
        self.excluded.append(self.excluded[-1])

    def record(self) -> None:
        self.found.append(frozenset(self.stack))

    def backtrack(self) -> int:
        """Pop the deepest node, exclude it at the parent, return it."""
        self.stats.backtracks += 1
        u = self.stack.pop()
        self.stack_mask &= ~(1 << u)
        self.rest_mask |= 1 << u
        self.excluded.pop()
        self.excluded[-1] |= 1 << u
        return u

    def report(self, status: RunStatus) -> EnumerationReport:
        return EnumerationReport(
            mcvs=tuple(self.found),
            trace=tuple(self.trace),
            stats=self.stats,
            status=status,
            graph=self.g,
        )


def enumerate_mcvs(
    g: Graph, opts: EnumerationOptions | None = None
) -> EnumerationReport:
    """Enumerate every node set generating a minimal s-t cut.

    The search grows a connected prefix from the source one node at a time.
    At each position it picks a candidate from the remainder (excluded and
    blocked nodes aside) adjacent to the prefix; if deleting the candidate
    leaves the remainder connected, the extended prefix is recorded and the
    search descends, otherwise the candidate is blocked and another is
    tried. Exhausted positions backtrack, excluding the popped node at the
    parent level so no set is ever recorded twice; the run stops when the
    root position itself is exhausted.

    ``opts.b_policy`` controls the blocked set across backtracking.
    ``scoped`` (default) saves it on descent and restores it on ascent, so
    a blocked node is always one that would fail the connectivity test at
    the current position; this variant finds every result on inputs whose
    nodes all lie on some source-sink path (on other inputs the recorded
    ``{s}`` itself need not be cut-generating — prune first, see
    :func:`mincuts.graph.prune_irrelevant`). ``persistent`` carries the
    child's blocked set into the parent unchanged; that matches the
    historical presentation of this search step for step, but a stale
    block can mask a viable candidate after backtracking, so whole result
    subtrees can be missed — keep it for replication studies, not for
    answers (smallest failing case: K_{2,3} with both terminals in the
    three-node part).

    Completes on every valid input; a scripted order that runs dry aborts
    with status ``SCRIPT_EXHAUSTED`` and partial results.

    Every order, policy and trace setting runs the same loop over
    bitmasks: the prefix's frontier is one mask grown on descent and
    restored on backtrack, the legal candidates are one mask expression,
    and each connectivity check is one BFS. Untraced ascending runs take
    the lowest legal bit; other runs choose from the legal candidates as
    an ascending tuple. Trace events are built only when
    ``opts.record_trace`` is set.
    """
    opts = opts or EnumerationOptions()
    order = opts.selection_order
    tracing = opts.record_trace
    # Untraced ascending runs pick the lowest legal bit and build no tuple.
    if isinstance(order, AscendingOrder) and not tracing:
        choose = None
    else:
        choose = _make_chooser(order)
    scoped = opts.b_policy == "scoped"
    trace: list[TraceEvent] = []
    adj = g.adjacency_masks
    stack = [g.source]
    rest = g.full_mask & ~(1 << g.source)
    frontier = adj[g.source]  # nodes adjacent to the prefix
    excluded = 1 << g.sink
    blocked = 0
    # Per descended level, the parent position's state to restore.
    saved: list[tuple[int, int, int]] = []
    found = [frozenset(stack)]  # the root prefix {s} is itself recorded
    visits = checks = backtracks = 0
    steps = 1
    status = RunStatus.COMPLETED
    if tracing:
        trace.append(TraceEvent(TraceStep.STEP0, tuple(stack)))

    while True:
        # Step 1: pick a candidate adjacent to the prefix, or give up here.
        visits += 1
        steps += 1
        legal = rest & frontier & ~(blocked | excluded)
        if not legal:
            if tracing:
                raw = tuple(_bits(rest & ~(blocked | excluded)))
                trace.append(
                    TraceEvent(TraceStep.STEP1_EXHAUSTED, tuple(stack), None, raw)
                )
            # Step 4: stop at the root, otherwise back out one level.
            steps += 1
            if not saved:
                break
            backtracks += 1
            u = stack.pop()
            frontier, excluded, parent_blocked = saved.pop()
            if scoped:
                blocked = parent_blocked
            rest |= 1 << u
            excluded |= 1 << u
            if tracing:
                trace.append(TraceEvent(TraceStep.STEP4_BACKTRACK, tuple(stack), u))
            continue
        if choose is None:
            low = legal & -legal
        else:
            candidates = tuple(_bits(legal))
            v = choose(candidates)
            if v is None:
                status = RunStatus.SCRIPT_EXHAUSTED
                break
            low = 1 << v
            if tracing:
                trace.append(
                    TraceEvent(TraceStep.STEP1_SELECT, tuple(stack), v, candidates)
                )

        # Step 2: keep the pick only if the remainder stays connected without it.
        steps += 1
        checks += 1
        if _connected_mask(adj, rest ^ low):
            # Step 3: descend and record the extended prefix.
            steps += 1
            saved.append((frontier, excluded, blocked))
            v = low.bit_length() - 1
            stack.append(v)
            rest ^= low
            frontier |= adj[v]
            blocked = 0
            found.append(frozenset(stack))
            if tracing:
                prefix = tuple(stack)
                trace.append(TraceEvent(TraceStep.STEP2_CONNECTED, prefix[:-1], v))
                trace.append(TraceEvent(TraceStep.STEP3_RECORD, prefix, v))
        else:
            blocked |= low
            if tracing:  # a traced run picks through ``choose``, so ``v`` is set
                trace.append(TraceEvent(TraceStep.STEP2_DISCONNECTED, tuple(stack), v))

    if tracing:
        trace.append(TraceEvent(TraceStep.STOP, tuple(stack)))
    stats = RunStats(
        step1_visits=visits,
        connectivity_checks=checks,
        backtracks=backtracks,
        records=len(found) - 1,
        steps=steps,
    )
    return EnumerationReport(
        mcvs=tuple(found), trace=tuple(trace), stats=stats, status=status, graph=g
    )


def run_yeh_original(
    g: Graph, policy: YehPolicy, opts: EnumerationOptions | None = None
) -> EnumerationReport:
    """Run the original 2006 enumeration verbatim, defects included.

    Deliberately preserved defects:

    * the root set ``{s}`` is never recorded;
    * the stopping rule fires one backtrack early (at level 1), so whole
      subtrees of results are abandoned;
    * there is no blocked set, and the disconnected branch of step 2 names
      no transfer — ``policy.on_disconnected`` chooses one, each of which
      misbehaves in its own way: ``goto-step1`` may re-select the same
      doomed candidate forever (caught by the step budget), ``goto-step3``
      records a set that generates no minimal cut, ``goto-step4`` abandons
      the remaining results.

    The run is one loop over steps 1-4; every step, step 0 included,
    spends one step of budget. The step that would pass
    ``policy.step_limit`` is not taken: the run aborts with status
    ``STEP_LIMIT_EXCEEDED`` and partial results, and ``stats.steps`` is
    the limit plus one. If the root position is exhausted before any
    descent (level 0), the run stops rather than popping the source,
    which the original leaves undefined.
    """
    opts = opts or EnumerationOptions()
    choose = _make_chooser(opts.selection_order)
    st = _State(g, opts.record_trace)
    limit = policy.step_limit or 10 * (1 << g.node_count)
    # The step the disconnected branch of step 2 goes to: "goto-stepN" is N.
    on_disconnected = int(policy.on_disconnected.removeprefix("goto-step"))
    st.stats.steps = 1  # step 0: unlike the corrected engine, nothing is recorded
    st.emit(TraceStep.STEP0)
    step = 1
    while True:
        st.stats.step1_visits += step == 1  # counted even if the budget stops it
        st.stats.steps += 1
        if st.stats.steps > limit:
            return st.report(RunStatus.STEP_LIMIT_EXCEEDED)
        if step == 1:  # no blocked set: failed candidates stay eligible
            candidates = st.legal_candidates(0)
            if not candidates:
                if st.record_trace:
                    st.emit(TraceStep.STEP1_EXHAUSTED, None, st.raw_candidates(0))
                step = 4
                continue
            v = choose(candidates)
            if v is None:
                st.emit(TraceStep.STOP)
                return st.report(RunStatus.SCRIPT_EXHAUSTED)
            st.emit(TraceStep.STEP1_SELECT, v, candidates)
            step = 2
        elif step == 2:
            if st.remainder_connected_without(v):
                st.emit(TraceStep.STEP2_CONNECTED, v)
                step = 3
            else:
                st.emit(TraceStep.STEP2_DISCONNECTED, v)
                step = on_disconnected
        elif step == 3:
            st.descend(v)
            st.record()
            st.stats.records += 1
            st.emit(TraceStep.STEP3_RECORD, v)
            step = 1
        else:  # step 4, with the original early stopping rule (level 1, not 0)
            if len(st.stack) <= 2:
                st.emit(TraceStep.STOP)
                return st.report(RunStatus.COMPLETED)
            st.emit(TraceStep.STEP4_BACKTRACK, st.backtrack())
            step = 1
