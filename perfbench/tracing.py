"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of ``sdgr`` from outside the package.  Each
call records a span (id, op, name, start, end, parent span) in memory; the
spans are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.  Calls to a generator function are
counted when the generator is created, and each step of it is one span, so
the work an enumerator does while it is iterated lands on it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.op = -1  # index of the op in progress; spans of one op share it
        self._stack: list[list] = []  # open frames: [span id, name, parent frame, child ns, start ns]
        self._next_id = 0

    def parent_name(self) -> str | None:
        """Name of the innermost open span, i.e. the caller of the current call."""
        return self._stack[-1][1] if self._stack else None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, parent, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[4] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, name, parent, child_ns, start = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, self.op, name, start, end, parent[0] if parent is not None else -1))

    def wrap(self, name: str, fn, probe=None):
        """Return fn wrapped in a span named `name`.  `probe(tracer, args, result)`
        runs after a call returns, with the caller's span still open."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = self._open(name)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Patch every target for the duration of the block.

        `targets` holds (name, owner, attribute, probe).  A class attribute is
        patched on the class, which also catches calls through instances and
        operators.  A module function is patched under every name that binds
        it in any loaded ``sdgr`` module, since ``from .x import f`` makes a
        second binding that patching the defining module alone would miss.
        """
        modules = [m for key, m in sys.modules.items() if key == "sdgr" or key.startswith("sdgr.")]
        undo = []
        try:
            for name, owner, attr, probe in targets:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, probe)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, op, name, start ns, end ns, parent id."""
        with open(path, "w") as fh:
            fh.write("id\top\tname\tstart_ns\tend_ns\tparent\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
