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
  steps, with its state in locals like the corrected search.

Both run iteratively with explicit stacks, so deep graphs cannot exhaust
the call stack, and record each set as the ``int`` bitmask of its prefix
(:data:`mincuts.graph.NodeSet`); trace events keep the prefix as a tuple in
stack order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Literal, Union, get_args

from .graph import Cut, Graph, NodeSet, _bits, _connected_mask, _connected_without, cut_edges

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


def _make_chooser(order: SelectionOrder) -> Callable[[int], int]:
    """Compile an order spec into ``legal -> bit`` (0 aborts).

    ``legal`` is the non-empty mask of the legal candidates; random and
    priority orders draw from them as an ascending tuple.
    """
    if isinstance(order, AscendingOrder):
        return lambda legal: legal & -legal
    if isinstance(order, ScriptedOrder):
        entries = iter(order.nodes)

        def scripted(legal: int) -> int:
            v = next(entries, -1)
            return 1 << v if v >= 0 and legal >> v & 1 else 0

        return scripted
    if isinstance(order, RandomOrder):
        rng = random.Random(order.seed)
        return lambda legal: 1 << rng.choice(tuple(_bits(legal)))
    if isinstance(order, PriorityOrder):
        rank = {v: i for i, v in enumerate(order.ranking)}
        fallback = len(rank)
        return lambda legal: 1 << min(
            _bits(legal), key=lambda v: (rank.get(v, fallback), v)
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


@dataclass(frozen=True, slots=True)
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
    """How many of each numbered step a run took.

    ``step1_visits`` counts passes through step 1 (pick a candidate),
    ``connectivity_checks`` step 2 (test the pick), ``records`` step 3
    (descend and record; the root ``{s}`` of the corrected search is not
    counted) and ``backtracks`` the step-4 entries that pop a level.
    ``steps`` counts every step entered: step 0, each of the above, and a
    step 4 that stops the run (the replica also counts the step its budget
    refuses).

    In the corrected search these follow from the loop's structure, so
    :func:`enumerate_mcvs` counts only the checks and derives the rest:
    each record pushes a position and each backtrack pops one, so
    ``backtracks`` is ``records`` less the positions still open; every pass
    through step 1 ends in a check, a backtrack or the run's single exit,
    so ``step1_visits`` is ``connectivity_checks + backtracks + 1``; and
    ``steps`` adds step 0, those four counts and, on a completed run, the
    step 4 at the root. :func:`run_yeh_original` counts step by step,
    because its steps are its budget and a run can stop between any two.
    """

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

    ``mcvs`` lists the recorded node sets, as bitmasks, in discovery order
    (``graph.label_set(u)`` names the members of one), and ``cuts`` their
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
    restored on backtrack, and the legal candidates are one mask expression.
    A ``fails`` mask of picks proven to disconnect the remainder is saved
    alike and passed down on descent, so those checks run no BFS; below the
    root the remainder is connected, so every other BFS stops once the
    pick's neighbours meet. Every order picks through one chooser that
    takes the legal mask and returns the pick's bit; a traced run lists the
    candidates of its select events from the same mask.

    The loop's only stack is the saved positions, each with the node
    descended into, and its only counter is the connectivity checks; the
    other :class:`RunStats` counters are derived after the loop. Trace
    events are built only when ``opts.record_trace`` is set, and all the
    events at one position share one prefix tuple.
    """
    opts = opts or EnumerationOptions()
    choose = _make_chooser(opts.selection_order)
    tracing = opts.record_trace
    scoped = opts.b_policy == "scoped"
    trace: list[TraceEvent] = []
    adj = g.adjacency_masks
    full = g.full_mask
    rest = full & ~(1 << g.source)
    frontier = adj[g.source]  # nodes adjacent to the prefix
    excluded = 1 << g.sink
    blocked = 0
    fails = 0  # picks ``u`` already proven to disconnect ``rest - u``
    # Per descended level, the parent position's state to restore and the
    # node descended into.
    saved: list[tuple[int, int, int, int, int]] = []
    found = [full ^ rest]  # the root prefix {s} is itself recorded
    checks = 0
    status = RunStatus.COMPLETED
    if tracing:
        path = (g.source,)  # the prefix in stack order, shared by its events
        trace.append(TraceEvent(TraceStep.STEP0, path))

    while True:
        # Step 1: pick a candidate adjacent to the prefix, or give up here.
        legal = rest & frontier & ~(blocked | excluded)
        if not legal:
            if tracing:
                raw = tuple(_bits(rest & ~(blocked | excluded)))
                trace.append(TraceEvent(TraceStep.STEP1_EXHAUSTED, path, None, raw))
            # Step 4: stop at the root, otherwise back out one level.
            if not saved:
                break
            frontier, excluded, parent_blocked, fails, u = saved.pop()
            if scoped:
                blocked = parent_blocked
            rest |= 1 << u
            excluded |= 1 << u
            if tracing:
                path = path[:-1]
                trace.append(TraceEvent(TraceStep.STEP4_BACKTRACK, path, u))
            continue
        low = choose(legal)
        if not low:
            status = RunStatus.SCRIPT_EXHAUSTED
            break
        if tracing:
            v = low.bit_length() - 1
            trace.append(TraceEvent(TraceStep.STEP1_SELECT, path, v, tuple(_bits(legal))))

        # Step 2: keep the pick only if the remainder stays connected without it.
        # Only the root's remainder can be split, so only it needs the full BFS.
        checks += 1
        if not low & fails and (_connected_without(adj, rest, low) if saved
                                else _connected_mask(adj, rest ^ low)):
            # Step 3: descend and record the extended prefix.
            v = low.bit_length() - 1
            saved.append((frontier, excluded, blocked, fails, v))
            rest ^= low
            frontier |= adj[v]
            blocked = 0
            # A split ``rest - u`` stays split without ``v`` unless ``{v}`` was
            # one of its parts: ``u`` is then ``v``'s only neighbour, if any.
            near = adj[v] & rest
            if not near & (near - 1):
                fails &= ~near if near else 0
            found.append(full ^ rest)
            if tracing:
                trace.append(TraceEvent(TraceStep.STEP2_CONNECTED, path, v))
                path += (v,)
                trace.append(TraceEvent(TraceStep.STEP3_RECORD, path, v))
        else:
            blocked |= low
            fails |= low
            if tracing:  # ``v`` was set with the select event
                trace.append(TraceEvent(TraceStep.STEP2_DISCONNECTED, path, v))

    if tracing:
        trace.append(TraceEvent(TraceStep.STOP, path))
    # The loop's structure fixes the other counters (see ``RunStats``).
    records = len(found) - 1
    backtracks = records - len(saved)
    visits = checks + backtracks + 1
    stats = RunStats(
        step1_visits=visits,
        connectivity_checks=checks,
        backtracks=backtracks,
        records=records,
        steps=1 + visits + checks + records + backtracks
        + (status is RunStatus.COMPLETED),
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

    The run is one loop over steps 1-4 on local state, with one
    exclusion mask per level so a backtrack cannot leak upward. Every
    step, step 0 included, spends one step of budget. The step that would
    pass ``policy.step_limit`` is not taken: the run aborts with status
    ``STEP_LIMIT_EXCEEDED`` and partial results, and ``stats.steps`` is
    the limit plus one. If the root position is exhausted before any
    descent (level 0), the run stops rather than popping the source,
    which the original leaves undefined.
    """
    opts = opts or EnumerationOptions()
    choose = _make_chooser(opts.selection_order)
    tracing = opts.record_trace
    limit = policy.step_limit or 10 * (1 << g.node_count)
    # The step the disconnected branch of step 2 goes to: "goto-stepN" is N.
    on_disconnected = int(policy.on_disconnected.removeprefix("goto-step"))
    adj = g.adjacency_masks
    stack = [g.source]
    prefix = 1 << g.source
    rest = g.full_mask & ~prefix
    excluded = [1 << g.sink]
    found: list[NodeSet] = []
    trace: list[TraceEvent] = []
    stats = RunStats(steps=1)  # step 0: unlike the corrected engine, nothing is recorded

    def emit(step: TraceStep, node: int | None = None, candidates: int = 0) -> None:
        if tracing:
            trace.append(TraceEvent(step, tuple(stack), node, tuple(_bits(candidates))))

    def report(status: RunStatus) -> EnumerationReport:
        return EnumerationReport(
            mcvs=tuple(found), trace=tuple(trace), stats=stats, status=status, graph=g
        )

    emit(TraceStep.STEP0)
    step = 1
    while True:
        stats.step1_visits += step == 1  # counted even if the budget stops it
        stats.steps += 1
        if stats.steps > limit:
            return report(RunStatus.STEP_LIMIT_EXCEEDED)
        if step == 1:  # no blocked set: failed candidates stay eligible
            raw = rest & ~excluded[-1]
            legal = sum(1 << u for u in _bits(raw) if adj[u] & prefix)
            if not legal:
                emit(TraceStep.STEP1_EXHAUSTED, None, raw)
                step = 4
                continue
            low = choose(legal)
            if not low:
                emit(TraceStep.STOP)
                return report(RunStatus.SCRIPT_EXHAUSTED)
            v = low.bit_length() - 1
            emit(TraceStep.STEP1_SELECT, v, legal)
            step = 2
        elif step == 2:
            stats.connectivity_checks += 1
            if _connected_mask(adj, rest & ~low):
                emit(TraceStep.STEP2_CONNECTED, v)
                step = 3
            else:
                emit(TraceStep.STEP2_DISCONNECTED, v)
                step = on_disconnected
        elif step == 3:
            stack.append(v)
            prefix |= low
            rest &= ~low
            excluded.append(excluded[-1])
            found.append(prefix)
            stats.records += 1
            emit(TraceStep.STEP3_RECORD, v)
            step = 1
        else:  # step 4, with the original early stopping rule (level 1, not 0)
            if len(stack) <= 2:
                emit(TraceStep.STOP)
                return report(RunStatus.COMPLETED)
            stats.backtracks += 1
            u = stack.pop()
            prefix &= ~(1 << u)
            rest |= 1 << u
            excluded.pop()
            excluded[-1] |= 1 << u
            emit(TraceStep.STEP4_BACKTRACK, u)
            step = 1
