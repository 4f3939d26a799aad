"""Spans around graphent's public functions, for the traced run.

Every public function of the modules in ``LAYERS`` is wrapped, and the
wrapper is bound wherever graphent looks the function up: in every graphent
module's namespace and in the package's.  Modules are fetched with
``importlib.import_module`` because the package rebinds the name
``graphent.optimize`` to the function of that name.

Spans are aggregated as they close, keyed by (name, parent name): count,
total time and self time (total minus the time of direct child spans).  Span
stacks are thread-local because ``optimize`` runs restart blocks in a thread
pool; a span opened on a pool thread has the parent ``POOL``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

LAYERS = ("graphs", "states", "bounds", "optimize", "catalog", "cli")

POOL = "(pool)"

# Called once per qubit or per alphabet entry inside other spans: a wrapper
# there would cost more than the call it measures.
LEAVES = {"graphs.bits_of", "graphs.mask_of", "states.haar_random_pair",
          "states.pair_overlap", "states.fubini_study_distance"}


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str | None], list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1][0]
            else:
                parent = None if threading.current_thread() is main else POOL
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    s = self.stats.setdefault((name, parent), [0, 0.0, 0.0])
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - frame[1]

        return traced

    def install(self) -> None:
        package = importlib.import_module("graphent")
        modules = {layer: importlib.import_module(f"graphent.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in LEAVES or isinstance(value, type)
                        or not callable(value)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(value)] = self._wrap(name, value)
        for ns in (package, *modules.values()):
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def total(self, name: str, parents=None) -> float:
        return sum(s[1] for (n, p), s in self.stats.items()
                   if n == name and (parents is None or p in parents))

    def self_time(self, match: str) -> float:
        """Self time of the span named ``match``, or of a whole layer for ``"layer."``."""
        return sum(s[2] for (n, _), s in self.stats.items()
                   if n == match or (match.endswith(".") and n.startswith(match)))

    def profile(self) -> list[dict]:
        return [{"span": n, "parent": p, "count": s[0], "total_s": s[1], "self_s": s[2]}
                for (n, p), s in sorted(self.stats.items(), key=lambda kv: -kv[1][1])]
