"""Outside-in layer tracer: wraps ``repro`` callables, charges self time.

The tracer never edits the program.  :meth:`LayerTracer.install`
replaces every function and method defined in a layer's modules with a
timing wrapper, at every place a caller looks the name up: the class
``__dict__`` (so bound methods and event-loop callbacks created after
install resolve to the wrapper) and every ``repro`` module global bound
to the same function object (``repro.experiments.runner`` imports
``build_network`` and the six metric functions by name; ``repro.api``
re-exports ``run_experiment``).  :meth:`LayerTracer.uninstall` puts
every original object back, and :func:`assert_unwrapped` proves it.

Spans are kept in memory as per-function aggregates (calls, inclusive
seconds, self seconds).  A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
spans under a root add up to the root's duration exactly; a layer's
self time is the sum over its functions.  Packages that belong to no
layer (``repro.mining``, ``repro.protocols``, ...) are not wrapped, so
their time is charged to the layer that called them.

Callbacks the event loop dispatches are private methods
(``Network._deliver``, ``GossipNode._accept``, ...), so private
functions are wrapped too; dunder methods are not, except ``__init__``
and ``__call__``.  Properties and cached properties are left alone.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Any, Callable

# Layer name -> the modules (or packages, by prefix) it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.net.simulator", "repro.net.events"),
    "net": (
        "repro.net.network",
        "repro.net.links",
        "repro.net.topology",
        "repro.net.latency",
        "repro.net.partitions",
    ),
    "gossip": ("repro.net.gossip", "repro.net.interning"),
    "consensus": ("repro.core", "repro.bitcoin", "repro.ghost"),
    "crypto": ("repro.crypto",),
    "ledger": ("repro.ledger",),
    "metrics": ("repro.metrics",),
    "sanitizer": ("repro.sanitizer",),
    "obs": ("repro.obs",),
    "experiments": ("repro.experiments",),
}
LAYER_NAMES = tuple(LAYERS)

_MARK = "__perfbench_wrapped__"
_WRAPPED_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str) -> str | None:
    for layer, owned in LAYERS.items():
        for prefix in owned:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return None


def import_layer_modules() -> None:
    """Import every module of every layer, so lazy imports get wrapped."""
    for owned in LAYERS.values():
        for name in owned:
            module = importlib.import_module(name)
            path = getattr(module, "__path__", None)
            if path is None:
                continue
            for info in pkgutil.walk_packages(path, name + "."):
                importlib.import_module(info.name)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _is_wrapped(obj: object) -> bool:
    func = obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj
    return getattr(func, _MARK, False) is True


def assert_unwrapped() -> None:
    """Raise if any tracer wrapper is still reachable from a repro module."""
    for module in _repro_modules():
        for name, value in vars(module).items():
            if _is_wrapped(value):
                raise RuntimeError(f"tracer wrapper left on {module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    if _is_wrapped(raw):
                        raise RuntimeError(
                            f"tracer wrapper left on {value.__qualname__}.{attr}"
                        )


class FunctionStat:
    """One wrapped function's aggregated spans."""

    __slots__ = ("layer", "name", "acc")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        # [calls, inclusive seconds, self seconds]; a list so the wrapper
        # updates it in place without attribute lookups.
        self.acc = [0, 0.0, 0.0]


class LayerTracer:
    """Installs and removes the wrappers and owns their statistics."""

    def __init__(self) -> None:
        # frames[-1] accumulates the durations of the innermost open
        # span's children; frames[0] is the root (outside every span).
        self.frames: list[float] = [0.0]
        self.stats: dict[str, FunctionStat] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._hooks: dict[str, tuple[Callable[[], None], Callable[[], None]]] = {}

    # -- wrapping -----------------------------------------------------------

    def hook(self, name: str, on_enter: Callable[[], None], on_exit: Callable[[], None]) -> None:
        """Call ``on_enter()``/``on_exit()`` around the function ``name``
        (``module:qualname``).  Must be set before :meth:`install`."""
        self._hooks[name] = (on_enter, on_exit)

    def _wrapper(self, func: Callable, stat: FunctionStat) -> Callable:
        frames = self.frames
        clock = time.perf_counter
        acc = stat.acc
        hooks = self._hooks.get(stat.name)
        if hooks is None:

            def traced(*args, **kwargs):
                frames.append(0.0)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    duration = clock() - start
                    child = frames.pop()
                    frames[-1] += duration
                    acc[0] += 1
                    acc[1] += duration
                    acc[2] += duration - child

        else:
            on_enter, on_exit = hooks

            def traced(*args, **kwargs):
                on_enter()
                frames.append(0.0)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    duration = clock() - start
                    child = frames.pop()
                    frames[-1] += duration
                    acc[0] += 1
                    acc[1] += duration
                    acc[2] += duration - child
                    on_exit()

        traced.__name__ = getattr(func, "__name__", "traced")
        traced.__qualname__ = getattr(func, "__qualname__", "traced")
        traced.__doc__ = func.__doc__
        traced.__wrapped__ = func
        setattr(traced, _MARK, True)
        return traced

    def _stat(self, layer: str, name: str) -> FunctionStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = FunctionStat(layer, name)
        return stat

    def _wrap_raw(self, raw: Any, layer: str, name: str) -> Any | None:
        """The wrapped replacement for a class/module dict entry, or None."""
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrapper(raw.__func__, self._stat(layer, name)))
        if isinstance(raw, classmethod):
            return classmethod(self._wrapper(raw.__func__, self._stat(layer, name)))
        if inspect.isfunction(raw):
            return self._wrapper(raw, self._stat(layer, name))
        return None

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_layer_modules()
        assert_unwrapped()
        replaced: dict[int, Any] = {}
        for module in _repro_modules():
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{module.__name__}:{value.__qualname__}"
                    wrapped = self._wrap_raw(value, layer, name)
                    replaced[id(value)] = wrapped
                    self._patch(module, attr, wrapped)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (BaseException, enum.Enum))
                ):
                    for member, raw in list(vars(value).items()):
                        if member.startswith("__") and member not in _WRAPPED_DUNDERS:
                            continue
                        name = f"{module.__name__}:{value.__qualname__}.{member}"
                        wrapped = self._wrap_raw(raw, layer, name)
                        if wrapped is not None:
                            self._patch(value, member, wrapped)
        # Rebind every other module's imported alias of a wrapped
        # function (``from ..metrics import consensus_delay``).
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and vars(module)[attr] is not wrapped:
                    self._patch(module, attr, wrapped)
        missing = set(self._hooks) - set(self.stats)
        if missing:
            self.uninstall()
            raise KeyError(f"hooked functions not found: {sorted(missing)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        assert_unwrapped()

    # -- results ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        for stat in self.stats.values():
            totals[stat.layer] += stat.acc[2]
        return totals

    # Lookups by name raise KeyError for a function the program no longer
    # defines, so a rename fails the benchmark instead of reading as 0.

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].acc[0] for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n].acc[1] for n in names)

    def matching(self, layer: str, suffix: str) -> list[str]:
        """Names of ``layer``'s wrapped functions ending in ``suffix``."""
        return [
            n for n, s in self.stats.items() if s.layer == layer and n.endswith(suffix)
        ]

    def dump(self) -> list[dict]:
        """Per-function span aggregates, largest self time first."""
        rows = [
            {
                "layer": s.layer,
                "function": s.name,
                "calls": s.acc[0],
                "total_s": s.acc[1],
                "self_s": s.acc[2],
            }
            for s in self.stats.values()
            if s.acc[0]
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["function"]))
        return rows
