"""Per-layer timing by wrapping permavoid's public functions from outside.

The layers are the package's modules.  Each public function of a layer
module, and ``__init__`` and each public method of a public class it
defines, is replaced by a wrapper that counts the call and times it.  A
name is patched where callers look it up: on its own module, and on
every permavoid module that bound it with ``from ... import``.  The
kernels are reached as ``kernels.<fn>`` attribute lookups, so patching
the ``kernels`` module catches every call into that layer, and calls
the kernel twins make among themselves are not counted.

A layer's self time is its wrappers' time minus the time of traced
calls nested inside them.  Generator functions are timed per resumed
step, so work done while a consumer iterates lands in the generator's
layer.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "hypergraphs", "perms", "avoidance", "rngutil", "matrices",
          "contraction", "extremal", "gridhg", "kernels")
# ``contains`` is left out: no job calls it through ``kernels``, only the
# kernel twins do internally, so its figures would read 0 on every run.
KERNEL_FNS = ("count_occurrences", "copy_count_histogram", "count_avoiders",
              "count_matrix_copies", "matrix_contains_perm")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.fn_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []  # per open call: [nested time]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _account(self, layer, key, elapsed, frame, new_call=True):
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        self.calls[layer] += new_call
        self.self_s[layer] += elapsed - frame[0]
        if key is not None:
            self.fn_calls[key] += new_call
            self.fn_s[key] += elapsed

    def _wrap(self, fn, layer: str, key: "str | None"):
        stack = self._stack
        clock = time.perf_counter
        account = self._account

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        # One call, however many times it is resumed.
                        account(layer, key, clock() - start, frame, first)
                        first = False
                    yield item
        else:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    account(layer, key, clock() - start, frame)

        try:
            functools.update_wrapper(wrapper, fn)
        except AttributeError:
            pass  # compiled kernels lack some function attributes
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, layer, None)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, None))

    def install(self, package: str = "permavoid") -> None:
        modules = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if layer == "kernels":
                    if not callable(obj) or inspect.ismodule(obj):
                        continue
                    key = f"kernels.{name}" if name in KERNEL_FNS else None
                    wrapper = self._wrap(obj, layer, key)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)
                    continue
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, layer, None)
                else:
                    continue
                replaced[id(obj)] = (obj, wrapper)
                self._set(mod, name, wrapper)
        # Rebind names other modules imported with ``from ... import``.
        # Private modules (the kernel twins) are the implementation, not
        # callers: their calls among themselves stay inside the layer.
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            if modname.rpartition(".")[2].startswith("_"):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------- results

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.fn_calls.clear()
        self.fn_s.clear()

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for fn in KERNEL_FNS:
            out[f"kernels.{fn}.calls"] = self.fn_calls[f"kernels.{fn}"]
            out[f"kernels.{fn}.s"] = self.fn_s[f"kernels.{fn}"]
        return out
