"""In-memory span tracer over polspin's public functions.

`Tracer.install()` wraps every public function defined in the traced
modules and rebinds the wrapper in every loaded `polspin*` module that
holds the function, because `cli` and `partial` import names with
`from .x import y`.  Each call records one span (function id, start, end,
parent span, raised); `uninstall()` restores the originals.  The
benchmark adds its own root span around each operation via `op_span`.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

ROOT = "bench.op"


class Tracer:
    def __init__(self, layers):
        self.names = [ROOT]  # function id -> "layer.function"
        self.layer_of = ["bench"]
        self._originals = {}  # id(original) -> (original, wrapper)
        self._bindings = []  # (module, attribute, original)
        self.spans = []  # (fid, start_ns, end_ns, parent index, raised)
        self.lines = 0  # lines handed to dsl.parse_train
        self._stack = [-1]
        for layer in layers:
            mod = importlib.import_module(f"polspin.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))

    def _wrap(self, fn, qualname, layer):
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        spans, stack = self.spans, self._stack
        counts_lines = qualname == "dsl.parse_train"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_lines:
                self.lines += args[0].count("\n" if isinstance(args[0], str) else b"\n") + 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (fid, start, end, parent, raised)

        return wrapper

    def install(self):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "polspin" or modname.startswith("polspin.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def reset(self):
        self.spans.clear()
        self.lines = 0

    def op_span(self, fn, *args):
        """Run fn(*args) under a benchmark root span."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, False)

    def summary(self):
        """Per function id: calls, inclusive ns, self ns, raised count."""
        n = len(self.names)
        calls, incl, self_ns, raised = [0] * n, [0] * n, [0] * n, [0] * n
        child = [0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, start, end, _, err) in enumerate(self.spans):
            calls[fid] += 1
            incl[fid] += end - start
            self_ns[fid] += end - start - child[i]
            raised[fid] += err
        return calls, incl, self_ns, raised

    def write(self, path):
        """Write the spans as CSV: name, start and end (ns from the first span), parent."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,raised\n")
            for i, (fid, start, end, parent, err) in enumerate(self.spans):
                fh.write(f"{i},{self.names[fid]},{start - t0},{end - t0},{parent},{int(err)}\n")
