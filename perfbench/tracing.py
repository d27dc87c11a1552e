"""Per-layer tracing from outside the package.

The tracer wraps public functions and methods of atomiso after import and
records one span per entry into a layer function: name, start, end, parent
span and operation id.  Spans stay in memory and are written out at the end
of the run.  A direct recursive call of the same function (``conjuncts``
calling ``conjuncts``) is counted as a call but opens no span, because it
does not cross a layer boundary.

Self time of a span is its duration minus the time its child spans cover.
Inclusive time of a function sums the spans that have no ancestor span of
the same function, so mutual recursion is not counted twice.

``engine``, ``structures`` and ``cli`` import ``algebra`` functions by
name, so installing a wrapper rebinds every module attribute in the process
that is bound to the wrapped function object.
"""

import array
import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.start = array.array("d")
        self.end = array.array("d")
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.op_id = -1
        # open spans: [span index, name, time covered by child spans]
        self.stack: list[list] = []
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        # call counts at the start of each operation
        self.op_calls: list[dict[str, int]] = []

    def begin_op(self, op_id: int) -> None:
        # operations do not nest; spans still open belong to an operation
        # a deadline cut short between two of their statements
        self.stack.clear()
        self.active.clear()
        self.op_id = op_id
        self.op_calls.append(dict(self.calls))

    def _open(self, name: str, t: float) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.start.append(t)
        self.end.append(t)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.op_id)
        frame = [idx, name, 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame: list, t: float) -> None:
        idx, name, child = frame
        self.stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if not self.active[name]:
            self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for fn.  hook(args, kwargs) runs before every
        call and returns None or a callable that receives
        (result, opened_span) afterwards."""
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            after = hook(args, kwargs) if hook is not None else None
            stack = tracer.stack
            frame = None
            if not stack or stack[-1][1] != name:
                frame = tracer._open(name, perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer._close(frame, perf())
            if after is not None:
                after(out, frame is not None)
            return out

        return traced

    def write_tsv(self, path) -> int:
        """Writes the spans as tab-separated lines, times relative to the
        first span; returns how many."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.7f}"
                    f"\t{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
        return len(self.start)


def rebind_function(owner, attr: str, wrapper) -> None:
    """Point every module attribute that holds owner.attr at wrapper."""
    orig = getattr(owner, attr)
    for mod in list(sys.modules.values()):
        space = getattr(mod, "__dict__", None)
        if not space:
            continue
        for key, val in list(space.items()):
            if val is orig:
                setattr(mod, key, wrapper)
