"""In-memory ``perf_counter_ns`` spans around fogtrace's public calls.

A :class:`Tracer` replaces functions and methods with wrappers that time
each call. Self time (a span's duration minus the time covered by its
child spans) and call counts are summed per span name as the spans close;
the raw spans themselves are kept in memory, up to a cap, and written out
when the run ends. Each thread keeps its own stack and sums, so concurrent
clients do not lose updates.
"""

from __future__ import annotations

import threading
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

KEEP_SPANS = 200_000


class _ThreadState:
    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.under: Counter = Counter()  # (parent span, span) -> calls
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self, keep: int = KEEP_SPANS):
        self.keep = keep
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def wrap(self, fn, name, on_result=None):
        """``fn`` timed as span ``name`` (a string, or a function of the call's arguments)."""
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            state = tracer._state()
            span = fixed or name(args)
            frame = [span, 0]
            state.stack.append(frame)
            ok = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter_ns()
                state.stack.pop()
                duration = t1 - t0
                state.self_ns[span] += duration - frame[1]
                state.total_ns[span] += duration
                state.calls[span] += 1
                parent = state.stack[-1] if state.stack else None
                if parent is not None:
                    parent[1] += duration
                    state.under[parent[0], span] += 1
                if not ok:
                    state.errors[span] += 1
                if len(state.spans) < tracer.keep:
                    state.spans.append((span, t0, t1, parent[0] if parent else "", state.thread))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` (module, class or instance) by its traced form."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        self._patches.append((owner, attr, original, own))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def totals(self) -> dict[str, Counter]:
        """Sums over every thread: self_ns, total_ns, calls, errors, under, counts."""
        out = {k: Counter() for k in ("self_ns", "total_ns", "calls", "errors", "under", "counts")}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, total in out.items():
                total.update(getattr(state, key))
        return out

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as CSV; returns how many were written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._states_lock:
            states = list(self._states)
        n = 0
        with path.open("w") as out:
            out.write("span,start_ns,end_ns,parent,thread\n")
            for state in states:
                for span, t0, t1, parent, thread in state.spans:
                    out.write(f"{span},{t0},{t1},{parent},{thread}\n")
                    n += 1
        return n


def diff(after: dict[str, Counter], before: dict[str, Counter]) -> dict[str, Counter]:
    out = {}
    for key, total in after.items():
        delta = Counter(total)
        delta.subtract(before[key])
        out[key] = delta
    return out
