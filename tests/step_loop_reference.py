"""The corrected search as a step-by-step loop over ``_State``, for tests.

This is the corrected search written step by step, one ``_State`` method
per step of the paper's description, with the candidates built as a tuple
at every position. :func:`mincuts.enumerate_mcvs` runs the same search as
one bitmask loop; the tests hold the two to the same sets in the same
order, the same trace, the same ``RunStats`` and the same status, under
every selection order and both b-policies.
"""

from __future__ import annotations

from mincuts.enumeration import (
    EnumerationOptions,
    EnumerationReport,
    RunStatus,
    TraceStep,
    _make_chooser,
    _State,
)
from mincuts.graph import Graph


def reference_enumerate_mcvs(
    g: Graph, opts: EnumerationOptions | None = None
) -> EnumerationReport:
    """What :func:`mincuts.enumerate_mcvs` must return for ``g`` and ``opts``."""
    opts = opts or EnumerationOptions()
    choose = _make_chooser(opts.selection_order)
    st = _State(g, opts.record_trace)
    scoped = opts.b_policy == "scoped"

    blocked = 0
    saved_blocked: list[int] = []

    st.record()  # the root prefix {s} is itself recorded
    st.stats.steps += 1
    st.emit(TraceStep.STEP0)

    while True:
        # Step 1: pick a candidate adjacent to the prefix, or give up here.
        st.stats.step1_visits += 1
        st.stats.steps += 1
        candidates = st.legal_candidates(blocked)
        if candidates:
            v = choose(candidates)
            if v is None:
                st.emit(TraceStep.STOP)
                return st.report(RunStatus.SCRIPT_EXHAUSTED)
            st.emit(TraceStep.STEP1_SELECT, v, candidates)

            # Step 2: keep v only if the remainder stays connected without it.
            st.stats.steps += 1
            if st.remainder_connected_without(v):
                st.emit(TraceStep.STEP2_CONNECTED, v)
                # Step 3: descend and record the extended prefix.
                st.stats.steps += 1
                if scoped:
                    saved_blocked.append(blocked)
                blocked = 0
                st.descend(v)
                st.record()
                st.stats.records += 1
                st.emit(TraceStep.STEP3_RECORD, v)
            else:
                st.emit(TraceStep.STEP2_DISCONNECTED, v)
                blocked |= 1 << v
        else:
            st.emit(TraceStep.STEP1_EXHAUSTED, None, st.raw_candidates(blocked))
            # Step 4: stop at the root, otherwise back out one level.
            st.stats.steps += 1
            if len(st.stack) == 1:
                st.emit(TraceStep.STOP)
                return st.report(RunStatus.COMPLETED)
            u = st.backtrack()
            if scoped:
                blocked = saved_blocked.pop()
            st.emit(TraceStep.STEP4_BACKTRACK, u)
