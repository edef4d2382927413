"""Spans around the calls into smseg's modules, recorded from outside.

The tracer replaces a module attribute with a wrapper at the name its
callers look up (``smseg.pipeline.kmeans``, ``smseg.mfe.conv2d_3x3``, ...),
so calls made inside the library are timed without touching ``src/``.
Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out once, when the run ends. ``restore`` puts every original back.
"""

import functools
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index, op]
        self.counts = []             # (op, name, value)
        self.op = None               # index of the op being run, None in set-up
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((self.op, name, value))

    def wrap(self, module, attr, measure=None, memory=False):
        """Patch ``module.attr`` with a spanned wrapper.

        The span is named ``<defining module>.<function>``. ``measure``
        maps (args, kwargs, result) to a dict of counts; ``memory`` records
        the tracemalloc peak inside the call as ``<span>.peak_bytes``.
        """
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                if memory:
                    self.count(name + ".peak_bytes", tracemalloc.get_traced_memory()[1])
            finally:
                if memory:
                    tracemalloc.stop()
            if measure:
                for key, value in measure(args, kwargs, result).items():
                    self.count(f"{name}.{key}", value)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def per_op(self, ops):
        """Per-op totals: {op: {span name: [total s, self s, calls]}} plus
        {op: {count name: summed value}} for the given op indices."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times = {op: {} for op in ops}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in times:
                acc = times[op].setdefault(name, [0.0, 0.0, 0])
                acc[0] += end - start
                acc[1] += end - start - child[i]
                acc[2] += 1
        counts = {op: {} for op in ops}
        for op, name, value in self.counts:
            if op in counts:
                counts[op][name] = counts[op].get(name, 0) + value
        return times, counts
