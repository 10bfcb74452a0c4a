"""Call tracing from outside the package.

The tracer replaces each public function of the traced modules by a
wrapper that records one span per call: its name, start, end, the index
of the enclosing span and the benchmark operation it belongs to.  The
wrapper is installed on every module attribute bound to the same function
object, so a call from one module into another (``groups`` calling
``matcore.op_norm`` through its own imported name, say) is caught too.
Spans stay in memory until the run ends; self time is computed from them
afterwards.  Nothing inside the package is changed or imported by this
file.
"""

from __future__ import annotations

import functools
import time
import types


class Tracer:
    """Records spans for wrapped functions.

    ``spans`` holds one tuple ``(name, start, end, parent, op)`` per
    finished call, in the order the calls started; ``parent`` is the index
    of the enclosing span or -1, and ``op`` is whatever ``self.op`` held
    when the call started.  ``namers`` maps a function's qualified name
    to a callable ``(args, kwargs) -> str`` whose result is appended to
    the span name, which splits one function's spans by an argument.
    """

    def __init__(self, clock=time.perf_counter, namers=None):
        self.clock = clock
        self.namers = dict(namers or {})
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        spans = self.spans
        stack = self._stack
        clock = self.clock
        namer = self.namers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if namer is None else f"{name}.{namer(args, kwargs)}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, op)

        return traced

    def install(self, layers: dict, owners) -> list[str]:
        """Wrap the public functions of each module in ``layers``.

        ``layers`` maps a layer name to its module; a function counts as
        public when it is listed in the module's ``__all__`` and defined in
        that module.  Every attribute of every module in ``owners`` that
        is bound to such a function is replaced by the wrapper.  Returns
        the qualified names wrapped.
        """
        wrapped = []
        for layer, module in layers.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn)
                for owner in owners:
                    hits = [key for key, value in vars(owner).items() if value is fn]
                    for key in hits:
                        self._installed.append((owner, key, fn))
                        setattr(owner, key, wrapper)
                wrapped.append(name)
        return wrapped

    def uninstall(self):
        """Put every original function back."""
        for owner, key, fn in reversed(self._installed):
            setattr(owner, key, fn)
        self._installed.clear()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children.  Calls are synchronous and single-threaded, so the
    children of a span never overlap one another."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans) -> dict[str, tuple[int, float]]:
    """Calls and total self seconds per span name."""
    out: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in out.items()}
