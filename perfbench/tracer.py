"""Span tracer that wraps the public functions of ``loctimes`` from outside.

Each traced layer is named ``module.function`` (``density.density_certified``,
``flows.flow_table``, ...) or ``module.Class.method``.  The tracer looks the
function up in its defining submodule, reached with ``importlib.import_module("loctimes.<module>")``
because attributes of the package itself may be re-exported functions of the
same name (``loctimes.density`` is the function, not the submodule).  It then
replaces that object in *every* loaded ``loctimes`` module that binds it, so
calls through ``harness.sample_paths_fixed_time`` or ``density.flow_table``
are seen as well as calls through the defining module.

A layer that no longer exists (a later refactor may remove
``density.torus_series`` or move a sampler) is reported in ``absent`` and
never fails the run.

Spans are kept in memory as ``[layer, start, end, parent]`` rows and reduced
when the run ends: a layer's busy time counts only its outermost spans, and
its self time subtracts the time covered by its direct child spans.
"""

import functools
import gzip
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter


class Tracer:
    """Install wrappers with :meth:`install`, undo them with :meth:`uninstall`.

    ``observers`` maps a layer to ``f(args, kwargs, result, span_index)``,
    called after the wrapped function returns, to record counters that only
    the arguments or the result show (rows of a flow table, paths sampled).
    """

    def __init__(self, layers: Sequence[str],
                 observers: Optional[Dict[str, Callable]] = None):
        self.layers = list(layers)
        self.observers = dict(observers or {})
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.absent: List[str] = []
        self.enabled = True
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.originals: Dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for layer in self.layers:
            module_name, _, rest = layer.partition(".")
            owner_name, _, func_name = rest.rpartition(".")
            if owner_name:
                owner = _find(module_name, owner_name)
                original = vars(owner).get(func_name) if owner is not None else None
            else:
                original = _find(module_name, func_name)
            if original is None:
                self.absent.append(layer)
                continue
            self.originals[layer] = original
            wrapper = self._wrap(layer, original)
            if owner_name:
                # a method is bound only by its class
                self._patched.append((owner, func_name, original))
                setattr(owner, func_name, wrapper)
                continue
            for module in _loctimes_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, original):
        observer = self.observers.get(layer)
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = len(spans)
            row = [layer, _clock(), 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                row[2] = _clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result, index)
            return result

        # keep the memoization handles of an lru_cache wrapper reachable
        for handle in ("cache_info", "cache_clear"):
            if hasattr(original, handle):
                setattr(wrapper, handle, getattr(original, handle))
        return wrapper

    # -- recording helpers ----------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def within(self, index: int, layers) -> bool:
        """Whether span ``index`` has an enclosing span of one of ``layers``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in layers:
                return True
            parent = self.spans[parent][3]
        return False

    # -- reduction ------------------------------------------------------------

    def summary(self, groups: Optional[Dict[str, Sequence[str]]] = None) -> Dict[str, dict]:
        """Per layer (and per named group of layers): calls, busy_s, self_s.

        busy_s sums the spans of the layer (or group) that have no enclosing
        span of the same layer (or group), so recursion is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        by_layer: Dict[str, List[int]] = {}
        for i, (layer, start, end, parent) in enumerate(self.spans):
            by_layer.setdefault(layer, []).append(i)
            if parent >= 0:
                child_time[parent] += end - start
        members = {layer: (layer,) for layer in self.layers}
        members.update(groups or {})
        out: Dict[str, dict] = {}
        for name, layers in members.items():
            wanted = set(layers)
            indices = [i for layer in wanted for i in by_layer.get(layer, ())]
            busy = own = 0.0
            for i in indices:
                _, start, end, _ = self.spans[i]
                own += (end - start) - child_time[i]
                if not self.within(i, wanted):
                    busy += end - start
            out[name] = {"calls": len(indices), "busy_s": busy, "self_s": own}
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,layer,start,end,parent\n")
            for i, (layer, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{layer},{start!r},{end!r},{parent}\n")


def _loctimes_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "loctimes" or name.startswith("loctimes."))]


def _find(module_name: str, func_name: str):
    """The function in its defining submodule, or in any loctimes submodule
    that defines it after a move; None when it is gone."""
    try:
        module = importlib.import_module(f"loctimes.{module_name}")
    except ImportError:
        module = None
    found = getattr(module, func_name, None) if module is not None else None
    if callable(found):
        return found
    for other in _loctimes_modules():
        candidate = vars(other).get(func_name)
        if callable(candidate) and getattr(candidate, "__module__", "") == other.__name__:
            return candidate
    return None


def calibrate_overhead(n: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a trivial function."""
    def noop():
        return None

    tracer = Tracer([])
    wrapped = tracer._wrap("calibration.noop", noop)
    t0 = _clock()
    for _ in range(n):
        noop()
    bare = _clock() - t0
    t0 = _clock()
    for _ in range(n):
        wrapped()
    traced = _clock() - t0
    return max(traced - bare, 0.0) / n
