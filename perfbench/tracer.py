"""Per-layer tracing from outside the library.

Every public function and method of each layer module is replaced by a
wrapper that counts its calls.  When a call crosses from one layer into
another, the wrapper also charges the elapsed time since the last layer
change to the layer that was running, so each layer accumulates its self
time: time spent in its own code, not in the layers it calls.  Counts and
times are aggregated as calls happen; no span is kept per call, because one
pass makes millions of calls.

A function imported by name into other modules (``from .simpcube import
partition_face``) is bound in several module namespaces; the tracer rebinds
every such name, so no call escapes through an alias.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

HARNESS = "harness"


class LayerTracer:
    """Wraps the public callables of ``layers`` (module names under
    ``package``) while installed; ``counts`` maps ``(layer, qualname)`` to
    calls and ``self_s`` maps each layer to its self time in seconds."""

    def __init__(self, package: str, layers):
        self.package = package
        self.layers = tuple(layers)
        self.counts = {}
        self.self_s = dict.fromkeys(self.layers + (HARNESS,), 0.0)
        self.snf_entries = 0
        # running layer and the clock reading at the last layer change
        self._state = [HARNESS, 0.0]
        self._patches = []

    # ----- timing core ----------------------------------------------------------------

    def _switch(self, layer):
        now = time.perf_counter()
        state = self._state
        self.self_s[state[0]] += now - state[1]
        previous = state[0]
        state[0] = layer
        state[1] = now
        return previous

    def _wrap_function(self, layer, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)
        state = self._state
        switch = self._switch

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[key] += 1
                gen = fn(*args, **kwargs)
                while True:
                    # the body runs on each resume, in the consumer's layer
                    previous = switch(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        switch(previous)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if state[0] == layer:
                return fn(*args, **kwargs)
            previous = switch(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                switch(previous)
        return wrapper

    def _wrap_snf(self, fn):
        """smith_normal_form also sums the size of every matrix it gets."""
        inner = self._wrap_function("snf", ("snf", fn.__qualname__), fn)

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            rows = len(a)
            self.snf_entries += rows * (len(a[0]) if rows else 0)
            return inner(a, *args, **kwargs)
        return wrapper

    # ----- installing and removing wrappers -------------------------------------------

    def _public_callables(self, module):
        """(owner, attribute, original, qualname) for each public function of
        the module and each public method, property or constructor of the
        classes it defines."""
        name = module.__name__
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == name:
                yield module, attr, value, value.__qualname__
            elif inspect.isclass(value) and value.__module__ == name:
                for cattr, member in list(vars(value).items()):
                    if cattr.startswith("_") and cattr not in ("__init__",
                                                               "__call__"):
                        continue
                    yield value, cattr, member, f"{value.__name__}.{cattr}"

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        replaced = {}  # id(original function) -> wrapper
        for layer in self.layers:
            module = sys.modules[f"{self.package}.{layer}"]
            for owner, attr, member, qualname in self._public_callables(module):
                key = (layer, qualname)
                if isinstance(member, (staticmethod, classmethod)):
                    wrapped = type(member)(
                        self._wrap_function(layer, key, member.__func__))
                elif isinstance(member, property):
                    if member.fget is None:
                        continue
                    wrapped = property(
                        self._wrap_function(layer, key, member.fget),
                        member.fset, member.fdel, member.__doc__)
                elif inspect.isfunction(member):
                    if layer == "snf" and attr == "smith_normal_form":
                        wrapped = self._wrap_snf(member)
                    else:
                        wrapped = self._wrap_function(layer, key, member)
                    replaced[id(member)] = (member, wrapped)
                else:
                    continue
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, member))
                    setattr(owner, attr, wrapped)
        # rebind every module-level name bound to a wrapped function
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._state[:] = [HARNESS, time.perf_counter()]

    def uninstall(self):
        self._switch(HARNESS)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self, layer: str, qualname: str) -> int:
        return self.counts.get((layer, qualname), 0)
