"""Spans and counters around the public functions of each fcperm layer.

Installed from outside the program: ``install`` replaces every public
function, and the public methods of every class, with a wrapper, in every
``fcperm`` namespace that binds the name (``rsk`` is bound in ``rsk``,
``crowding``, ``checks``, ``cli`` and the package itself) and in registry
tables such as ``checks.CHECKS``.

Each wrapper keeps a stack of open frames, so a layer's self time is the
time spent in its functions minus the time spent in the functions they call
(of any layer); the self times of all layers add up to the time spent inside
the outermost wrapped calls.  Spans (function, parent span, request, start,
end, busy time) are kept in flat arrays and written out by ``dump`` once the
run ends.  A generator gets one span whose busy time is the sum of its
resumptions.  The hottest functions, listed in ``UNSPANNED``, are counted
and timed but record no span.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "permutations",
    "patterns",
    "rsk",
    "words",
    "heaps",
    "crowding",
    "weak_order",
    "checks",
    "cli",
)

UNSPANNED = {
    "permutations.Permutation.__post_init__",
    "permutations.Permutation.__call__",
    "permutations.Permutation.times",
    "rsk.Tableau.__post_init__",
    "words.commutation_moves",
    "heaps.Heap.label",
    "heaps.Heap.less",
}

# results whose size is a work count
SIZED = {
    "words.commutation_class",
    "heaps.labeled_linear_extensions",
    "weak_order.fc_elements",
}

_WRAPPED_DUNDERS = ("__post_init__", "__call__")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self.returned: list[int] = []
        self.self_time = [0.0] * len(LAYERS)
        self.inside = [0.0]  # child-time accumulators; [0] is outside every layer
        self.stack = [-1]  # open span ids
        self.request = [-1]
        self.span_func = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")

    def fid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _register(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.yielded.append(0)
        self.returned.append(0)
        return len(self.names) - 1

    def _open_span(self, fid: int, t0: float) -> int:
        sid = len(self.span_func)
        self.span_func.append(fid)
        self.span_parent.append(self.stack[-1])
        self.span_request.append(self.request[0])
        self.span_start.append(t0)
        self.span_end.append(t0)
        self.span_busy.append(0.0)
        return sid

    def wrap(self, name: str, layer: int, fn):
        fid = self._register(name, layer)
        calls, inside, self_time, stack = self.calls, self.inside, self.self_time, self.stack
        clock = perf_counter

        if name in UNSPANNED:
            if inspect.isgeneratorfunction(fn):
                # the body runs in whoever resumes it
                def counted(*args, **kwargs):
                    calls[fid] += 1
                    return fn(*args, **kwargs)

                return counted

            def timed(*args, **kwargs):
                calls[fid] += 1
                inside.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    self_time[layer] += d - inside.pop()
                    inside[-1] += d

            return timed

        span_end, span_busy, returned, yielded = (
            self.span_end, self.span_busy, self.returned, self.yielded,
        )
        open_span = self._open_span

        if inspect.isgeneratorfunction(fn):

            def spanned_gen(*args, **kwargs):
                calls[fid] += 1
                it = fn(*args, **kwargs)
                sid = -1
                busy = 0.0
                count = 0
                try:
                    while True:
                        t0 = clock()
                        if sid < 0:
                            sid = open_span(fid, t0)
                        stack.append(sid)
                        inside.append(0.0)
                        done = False
                        try:
                            item = next(it)
                        except StopIteration:
                            done = True
                        finally:
                            t1 = clock()
                            d = t1 - t0
                            stack.pop()
                            self_time[layer] += d - inside.pop()
                            inside[-1] += d
                            busy += d
                            span_end[sid] = t1
                        if done:
                            return
                        count += 1
                        yield item
                finally:
                    yielded[fid] += count
                    if sid >= 0:
                        span_busy[sid] = busy
                    it.close()

            return spanned_gen

        sized = name in SIZED

        def spanned(*args, **kwargs):
            calls[fid] += 1
            t0 = clock()
            sid = open_span(fid, t0)
            stack.append(sid)
            inside.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                self_time[layer] += d - inside.pop()
                inside[-1] += d
                span_end[sid] = t1
                span_busy[sid] = d
            if sized:
                returned[fid] += len(result)
            return result

        return spanned

    # -- results -------------------------------------------------------------

    def layer_calls(self) -> list[int]:
        out = [0] * len(LAYERS)
        for fid, count in enumerate(self.calls):
            out[self.layer_of[fid]] += count
        return out

    def calls_under(self, callee: str, ancestor: str) -> int:
        """Spans of ``callee`` opened while a span of ``ancestor`` was open."""
        target, anc = self.fid(callee), self.fid(ancestor)
        if target < 0 or anc < 0:
            return 0
        func, parent = self.span_func, self.span_parent
        total = 0
        for sid in range(len(func)):
            if func[sid] != target:
                continue
            p = parent[sid]
            while p >= 0 and func[p] != anc:
                p = parent[p]
            total += p >= 0
        return total

    def mean_busy(self, name: str) -> float:
        target = self.fid(name)
        busy = [b for f, b in zip(self.span_func, self.span_busy) if f == target]
        return sum(busy) / len(busy) if busy else 0.0

    def dump(self, directory: Path) -> None:
        """Write the spans as raw arrays plus a JSON header naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = ("func", "parent", "request", "start", "end", "busy")
        for column in columns:
            with open(directory / f"{column}.bin", "wb") as fh:
                getattr(self, f"span_{column}").tofile(fh)
        header = {
            "layers": LAYERS,
            "functions": [
                {"name": n, "layer": LAYERS[l], "calls": c}
                for n, l, c in zip(self.names, self.layer_of, self.calls)
            ],
            "columns": {c: getattr(self, f"span_{c}").typecode for c in columns},
            "spans": len(self.span_func),
        }
        (directory / "header.json").write_text(json.dumps(header, indent=1))


def _public_functions(module):
    """(qualified name, owner, attribute, function, kind) for every public
    function and method defined in ``module``."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj, "function"
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                    continue
                qual = f"{name}.{attr}"
                if isinstance(member, classmethod):
                    yield qual, obj, attr, member.__func__, "classmethod"
                elif inspect.isfunction(member):
                    yield qual, obj, attr, member, "method"


def fcperm_namespaces():
    import fcperm

    return [fcperm] + [importlib.import_module(f"fcperm.{layer}") for layer in LAYERS]


def rebind(namespaces, original, replacement) -> int:
    """Point every module-level name, and every tuple or function value of a
    module-level dict, that holds ``original`` at ``replacement``."""
    count = 0
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)
                count += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        count += 1
                    elif isinstance(v, tuple) and any(x is original for x in v):
                        value[k] = tuple(replacement if x is original else x for x in v)
                        count += 1
    return count


def install(tracer: Tracer) -> int:
    """Wrap every layer's public functions; returns how many were wrapped."""
    namespaces = fcperm_namespaces()
    wrapped = 0
    for layer_index, layer in enumerate(LAYERS):
        module = importlib.import_module(f"fcperm.{layer}")
        for qual, owner, attr, fn, kind in list(_public_functions(module)):
            wrapper = tracer.wrap(f"{layer}.{qual}", layer_index, fn)
            if kind == "function":
                rebind(namespaces, fn, wrapper)
            elif kind == "classmethod":
                setattr(owner, attr, classmethod(wrapper))
            else:
                setattr(owner, attr, wrapper)
            wrapped += 1
    return wrapped
