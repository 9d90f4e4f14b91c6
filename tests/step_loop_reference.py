"""The corrected search as a step-by-step loop, for tests.

This is the corrected search written step by step as the paper describes
it, on its own locals, with the candidates built as a tuple at every
position and handed to the shared chooser as a mask, the form the engine
passes. :func:`mincuts.enumerate_mcvs` runs the same search as one
bitmask loop; the tests hold the two to the same sets in the same order,
the same trace, the same ``RunStats`` and the same status, under every
selection order and both b-policies.
"""

from __future__ import annotations

from mincuts.enumeration import (
    EnumerationOptions,
    EnumerationReport,
    RunStats,
    RunStatus,
    TraceEvent,
    TraceStep,
    _make_chooser,
)
from mincuts.graph import Graph, _bits, _connected_mask


def reference_enumerate_mcvs(
    g: Graph, opts: EnumerationOptions | None = None
) -> EnumerationReport:
    """What :func:`mincuts.enumerate_mcvs` must return for ``g`` and ``opts``."""
    opts = opts or EnumerationOptions()
    choose = _make_chooser(opts.selection_order)
    scoped = opts.b_policy == "scoped"
    adj = g.adjacency_masks
    stack = [g.source]
    prefix = 1 << g.source
    rest = g.full_mask & ~prefix
    excluded = [1 << g.sink]
    blocked = 0
    saved_blocked: list[int] = []
    found = [prefix]  # the root prefix {s} is itself recorded
    trace: list[TraceEvent] = []
    stats = RunStats(steps=1)

    def emit(step: TraceStep, node: int | None = None,
             candidates: tuple[int, ...] = ()) -> None:
        if opts.record_trace:
            trace.append(TraceEvent(step, tuple(stack), node, candidates))

    def report(status: RunStatus) -> EnumerationReport:
        emit(TraceStep.STOP)
        return EnumerationReport(
            mcvs=tuple(found), trace=tuple(trace), stats=stats, status=status, graph=g
        )

    emit(TraceStep.STEP0)
    while True:
        # Step 1: pick a candidate adjacent to the prefix, or give up here.
        stats.step1_visits += 1
        stats.steps += 1
        raw = rest & ~(blocked | excluded[-1])
        candidates = tuple(v for v in _bits(raw) if adj[v] & prefix)
        if candidates:
            low = choose(sum(1 << v for v in candidates))
            if not low:
                return report(RunStatus.SCRIPT_EXHAUSTED)
            v = low.bit_length() - 1
            emit(TraceStep.STEP1_SELECT, v, candidates)

            # Step 2: keep v only if the remainder stays connected without it.
            stats.steps += 1
            stats.connectivity_checks += 1
            if _connected_mask(adj, rest & ~(1 << v)):
                emit(TraceStep.STEP2_CONNECTED, v)
                # Step 3: descend and record the extended prefix.
                stats.steps += 1
                if scoped:
                    saved_blocked.append(blocked)
                blocked = 0
                stack.append(v)
                prefix |= 1 << v
                rest &= ~(1 << v)
                excluded.append(excluded[-1])
                found.append(prefix)
                stats.records += 1
                emit(TraceStep.STEP3_RECORD, v)
            else:
                emit(TraceStep.STEP2_DISCONNECTED, v)
                blocked |= 1 << v
        else:
            emit(TraceStep.STEP1_EXHAUSTED, None, tuple(_bits(raw)))
            # Step 4: stop at the root, otherwise back out one level.
            stats.steps += 1
            if len(stack) == 1:
                return report(RunStatus.COMPLETED)
            stats.backtracks += 1
            u = stack.pop()
            prefix &= ~(1 << u)
            rest |= 1 << u
            excluded.pop()
            excluded[-1] |= 1 << u
            if scoped:
                blocked = saved_blocked.pop()
            emit(TraceStep.STEP4_BACKTRACK, u)
