"""Span tracing around the program's public functions, from outside the program.

install() replaces every public function of the seven package modules, and
the gram / gram_and_partials / logpdf methods of the kernel and range-model
classes, with a wrapper that records one span per call: name, start, end
and the index of the enclosing span. Copies bound by ``from .x import f``
in other modules are replaced as well, so internal calls are traced too.
Private helpers (``hyperopt._Problem``, ``tracking._run_row``, ...) are not
wrapped: their time counts as self time of the public function above them.
Spans stay in memory until write() dumps them as JSON lines.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("manifold", "kernels", "gp", "hyperopt", "simulator", "tracking", "cli")
METHOD_NAMES = ("gram", "gram_and_partials", "logpdf")

# Calls whose span name carries the method argument, e.g. tracking.train_method[HvM].
_TAGGED = {"tracking.train_method": 1, "tracking.run_tracking": 1}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self._stack = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; yields its index."""
        self._open(name)
        try:
            yield len(self.spans) - 1
        finally:
            self._close()

    def wrap(self, name, fn):
        tag_pos = _TAGGED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            label = name if tag_pos is None else f"{name}[{args[tag_pos]}]"
            self._open(label)
            try:
                return fn(*args, **kw)
            finally:
                self._close()

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"torusgp.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth in METHOD_NAMES:
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for mod in list(modules.values()) + [importlib.import_module("torusgp")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def descendants(self, index):
        below = {index}
        for i in range(index + 1, len(self.spans)):
            if self.spans[i][3] in below:
                below.add(i)
        below.discard(index)
        return sorted(below)

    def layer_self_seconds(self, index):
        """Self time per layer over the spans below one span."""
        selfs = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for i in self.descendants(index):
            layer = self.spans[i][0].split(".")[0]
            if layer in out:
                out[layer] += selfs[i]
        return out

    def duration(self, index):
        return self.spans[index][2] - self.spans[index][1]

    def children(self, index):
        return [i for i, s in enumerate(self.spans) if s[3] == index]

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
