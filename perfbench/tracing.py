"""Spans around calls into twistkit's layers, recorded from outside the package.

A :class:`Tracer` replaces selected functions and methods with wrappers that
record one span per call (name, start, end, parent span) in flat in-memory
arrays; :meth:`Tracer.write` saves them when the run ends.  A function is
patched wherever callers look it up: on its defining module or class, and
on every loaded module that imported the same object by name (``from x
import y``), the benchmark's own modules included.  Leaving the context
manager restores every original.

A call to a wrapped function while a span of the same name is already open
belongs to that open span and records nothing of its own.  That makes
``actions.pairing.calls`` count outermost pairings (a boosted pairing runs
a twisted one inside it) and ``actions.closed_form.calls`` count closed-form
evaluations, not the helpers they delegate to.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

Hook = Callable[[Counter, tuple, object], None]


@dataclass(frozen=True)
class Target:
    """One traced operation: where its code lives and the span it records.

    ``owners`` are modules or public classes, as ``"twistkit.module"`` or
    ``"twistkit.module:Class"``; each of ``attrs`` is patched on the owner,
    or for a class on the base class that defines it.  ``hook`` runs after
    each outermost call with the counters, the call's positional arguments
    and its result.
    """

    span: str
    owners: tuple[str, ...]
    attrs: tuple[str, ...]
    hook: Optional[Hook] = None


def _count_terms(counters: Counter, args: tuple, result) -> None:
    counters["operator_algebra.compose.terms_out"] += len(result.terms)


def _count_generators(counters: Counter, args: tuple, result) -> None:
    counters["actions.generators"] += args[2].n_generators


def _count_singular(counters: Counter, args: tuple, result) -> None:
    counters["dynamics.singular"] += bool(result.singular)


_FIELD_OPERATOR = ("twistkit.operator_algebra:FieldOperator",)
_GRASSMANN = ("twistkit.grassmann:GrassmannNumber",)
_ALL_GEOMETRIES = (
    "twistkit.geometries:ManifoldGeometry",
    "twistkit.geometries:DoubledGeometry",
    "twistkit.geometries:ElectrodynamicsGeometry",
)
_SECTORED_GEOMETRIES = _ALL_GEOMETRIES[1:]

#: Every traced operation, grouped by layer (the span's first component).
TARGETS: tuple[Target, ...] = (
    Target("operator_algebra.compose", _FIELD_OPERATOR, ("compose",), _count_terms),
    Target("operator_algebra.adjoint", _FIELD_OPERATOR, ("adjoint",)),
    Target("operator_algebra.add", _FIELD_OPERATOR, ("__add__",)),
    Target("operator_algebra.apply", _FIELD_OPERATOR, ("apply",)),
    Target("operator_algebra.operator_equal", ("twistkit.operator_algebra",),
           ("operator_equal",)),
    Target("grassmann.mul", _GRASSMANN, ("__mul__", "__rmul__")),
    Target("grassmann.add", _GRASSMANN, ("__add__", "__radd__")),
    Target("grassmann.antisymmetric_pair_form", ("twistkit.grassmann",),
           ("antisymmetric_pair_form",)),
    Target("actions.fermionic_action", ("twistkit.actions",), ("fermionic_action",),
           _count_generators),
    Target("actions.fermionic_action_quadratic", ("twistkit.actions",),
           ("fermionic_action_quadratic",)),
    Target("actions.pairing", ("twistkit.actions",),
           ("twisted_pairing", "boosted_pairing")),
    Target("actions.closed_form", ("twistkit.actions",), (
        "manifold_lagrangian_action",
        "doubled_lagrangian_action",
        "electro_lagrangian_action",
        "boosted_manifold_lagrangian_action",
        "boosted_doubled_lagrangian_action",
        "boosted_electro_lagrangian_action",
    )),
    Target("geometries.boosted_operator", _ALL_GEOMETRIES, ("boosted_operator",)),
    Target("geometries.h_r_section", _ALL_GEOMETRIES, ("h_r_section",)),
    Target("geometries.selfadjoint_fluctuation", _SECTORED_GEOMETRIES,
           ("selfadjoint_fluctuation",)),
    Target("geometries.fluctuation_parameters", _SECTORED_GEOMETRIES,
           ("fluctuation_parameters",)),
    Target("dynamics.solve", ("twistkit.dynamics:PlaneWaveProblem",), ("solve",),
           _count_singular),
)

#: Span names in report order.
SPANS: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))


def resolve_owner(path: str):
    """The module or class that ``"pkg.module"`` or ``"pkg.module:Class"`` names."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Context manager that patches :data:`TARGETS` and records spans."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.names: list[str] = list(dict.fromkeys(t.span for t in targets))
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._depth = [0] * len(self.names)
        self._stack: list[int] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ----- patching -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                for path in target.owners:
                    owner = resolve_owner(path)
                    for attr in target.attrs:
                        home = owner
                        if isinstance(owner, type):
                            home = next(c for c in owner.__mro__ if attr in c.__dict__)
                        if (home, attr) not in self._patched:
                            self._patch_everywhere(home, attr, target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch_everywhere(self, owner, attr: str, target: Target) -> None:
        original = owner.__dict__[attr]
        wrapper = self._wrap(target, original)
        self._set(owner, attr, original, wrapper)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if module is owner or namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(module, key, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @property
    def _patched(self) -> set:
        return {(owner, attr) for owner, attr, _ in self._patches}

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn):
        sid = self._ids[target.span]
        depth, stack, hook, counters = self._depth, self._stack, target.hook, self.counters
        name, parent, start, end = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[sid]:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            depth[sid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[sid] -= 1
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    # ----- summaries ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def summary(self) -> dict[str, tuple[int, float]]:
        """``span name -> (calls, self seconds)`` over every recorded span."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        covered = np.zeros_like(dur)
        inner = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][inner], dur[inner])
        self_time = dur - covered
        calls = np.bincount(cols["name"], minlength=len(self.names))
        busy = np.bincount(cols["name"], weights=self_time, minlength=len(self.names))
        return {
            n: (int(calls[i]), float(busy[i])) for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Save the spans: ``names`` plus one column per span field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **self.arrays())
