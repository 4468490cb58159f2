"""Call counts and self times of package functions, recorded from outside.

A Tracer wraps named functions of a package without editing its source: a
module-level function is replaced in every loaded module of the package
that binds it (``experiments.measure``, ``protocol.measure`` and
``fabrication.measure`` are three bindings of one function), and a method
``Class.name`` is replaced on its class.  Callers that look the name up at
call time then run the wrapper.

Self time is a call's duration minus the durations of the wrapped calls it
made.  Totals are kept per phase (set-up, then one phase per iteration), so
a run can report set-up plus a median iteration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Wraps ``module.function`` and ``module.Class.method`` names of a package.

    names are dotted paths below the package, e.g. ``"mesh.propagate"`` or
    ``"protocol.CrpDatabase.load"``.  clock is replaceable so tests can
    drive it by hand.
    """

    def __init__(self, package: str, names, clock=time.perf_counter):
        self.package = package
        self.names = tuple(names)
        self.clock = clock
        self.phases: list[dict] = []
        self._open: list[float] = []  # child time of each call in progress
        self._restore: list[tuple[object, str, object]] = []
        self.phase("setup")

    def phase(self, label: str) -> None:
        """Start a new bucket of per-name totals and counters."""
        self._phase = {"label": label, "calls": defaultdict(int),
                       "self_s": defaultdict(float), "counters": defaultdict(int)}
        self.phases.append(self._phase)

    def add(self, counter: str, amount: int) -> None:
        self._phase["counters"][counter] += amount

    def _wrap(self, name: str, fn):
        clock = self.clock
        open_calls = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
                phase = self._phase
                phase["calls"][name] += 1
                phase["self_s"][name] += elapsed - children

        return traced

    def _package_modules(self):
        prefix = self.package + "."
        return [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == self.package or key.startswith(prefix))
        ]

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every name; raises LookupError for a name that does not exist."""
        modules = self._package_modules()
        for name in self.names:
            module_name, _, rest = name.partition(".")
            module = sys.modules.get(f"{self.package}.{module_name}")
            if module is None:
                raise LookupError(f"{self.package}.{module_name} is not imported")
            if "." in rest:
                class_name, method = rest.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__.get(method)
                if raw is None:
                    raise LookupError(f"{name} does not exist")
                if isinstance(raw, classmethod):
                    self._set(owner, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, method, self._wrap(name, raw))
                continue
            original = module.__dict__.get(rest)
            if original is None:
                raise LookupError(f"{name} does not exist")
            wrapped = self._wrap(name, original)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._set(namespace, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> list[dict]:
        """Per phase: label, calls and self seconds of every name, and counters."""
        return [
            {
                "label": phase["label"],
                "calls": {name: phase["calls"].get(name, 0) for name in self.names},
                "self_s": {name: phase["self_s"].get(name, 0.0) for name in self.names},
                "counters": dict(phase["counters"]),
            }
            for phase in self.phases
        ]
