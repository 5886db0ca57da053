"""Span tracer that wraps padiclab's public functions from the outside.

``Tracer.install()`` replaces each traced function, in every padiclab module
and in the package namespace that binds it, with a wrapper that records a
span (name, start, end, parent).  Calls from ``cli``, from the other modules
and from the benchmark all look these names up at call time, so they go
through the wrapper; the program's files stay untouched.  ``uninstall()``
puts the originals back.

Three functions are called hundreds of thousands of times per pass
(``core.make_pair``, ``core.pval`` and ``core.residue``).  A span per call
would not fit in memory, so their calls are folded into one *group* per
(parent span, function): a call count, the summed duration and the summed
duration of their own children.  Every other call gets its own span.  A
function calling itself (``digits_to_int`` recurses through its module
global) records only the outermost call.

Self time is a span's duration minus the time of its direct children,
spans and groups alike.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator

ROOT = -1


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = math.nan
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Group:
    """Folded calls of one hot function below one parent span."""

    name: str
    parent: int
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and how its span is named.

    With ``by_norm`` the span name ends in the call's norm argument (the
    second one), and ``attrs`` turns arguments and result into counters
    stored on the span.
    """

    module: str
    func: str
    name: str
    attrs: Callable[[tuple, dict, Any], dict] | None = None
    folded: bool = False
    by_norm: bool = False


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.groups: dict[tuple[int, str], Group] = {}
        # Frames: [nearest span index, function object, child seconds].
        self._stack: list[list] = [[ROOT, None, 0.0]]
        self._patches: list[tuple[ModuleType, str, Any]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """A span opened by the benchmark itself."""
        index = self._open(name, None, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str, func: Any, attrs: dict) -> int:
        top = self._stack[-1]
        index = len(self.spans)
        self.spans.append(Span(name, top[0], 0.0, attrs=attrs))
        self._stack.append([index, func, 0.0])
        self.spans[index].start = self.clock()
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        frame = self._stack.pop()
        span = self.spans[index]
        span.end = end
        span.child_s = frame[2]
        self._stack[-1][2] += span.duration

    def wrap(self, target: Target, func: Callable) -> Callable:
        tracer = self
        stack = self._stack
        clock = self.clock

        name = target.name
        if target.folded:
            groups = self.groups

            def folded(*args, **kwargs):
                top = stack[-1]
                if top[1] is func:
                    return func(*args, **kwargs)
                frame = [top[0], func, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    top[2] += duration
                    key = (top[0], name)
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = Group(name, top[0])
                    group.calls += 1
                    group.total_s += duration
                    group.child_s += frame[2]

            return folded

        def spanned(*args, **kwargs):
            if stack[-1][1] is func:
                return func(*args, **kwargs)
            span_name = f"{name}.{_arg(args, kwargs, 1, 'norm')}" if target.by_norm else name
            index = tracer._open(span_name, func, {})
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if target.attrs is not None:
                tracer.spans[index].attrs.update(target.attrs(args, kwargs, result))
            return result

        return spanned

    # -- installation ----------------------------------------------------

    def install(self, package: ModuleType, targets: list[Target]) -> None:
        """Wrap every target wherever a padiclab namespace binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [package] + [
            getattr(package, attr)
            for attr in sorted(vars(package))
            if isinstance(getattr(package, attr), ModuleType)
            and getattr(package, attr).__name__.startswith(package.__name__ + ".")
        ]
        for target in targets:
            home = getattr(package, target.module)
            original = getattr(home, target.func)
            wrapper = self.wrap(target, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span and group as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "kind": "span", "id": index, "name": span.name,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    "self_s": span.self_s, "attrs": span.attrs,
                }) + "\n")
            for group in self.groups.values():
                handle.write(json.dumps({
                    "kind": "group", "name": group.name, "parent": group.parent,
                    "calls": group.calls, "total_s": group.total_s,
                    "self_s": group.self_s,
                }) + "\n")


# ---------------------------------------------------------------------------
# what padiclab exposes to the tracer
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, position: int, key: str) -> Any:
    return args[position] if len(args) > position else kwargs[key]


def _file_bytes(position: int, key: str):
    return lambda args, kwargs, result: {
        "bytes": os.path.getsize(_arg(args, kwargs, position, key))
    }


def _chain_attrs(args, kwargs, result) -> dict:
    return {"digits": args[0].precision, "entries": len(result.entries)}


def _padicle_attrs(args, kwargs, result) -> dict:
    pairs = result.inputs.get("pairs", 0)
    if result.inputs.get("mode") == "full":
        return {"probes": pairs * (pairs - 1) // 2}
    return {"probes": max(pairs - 1, 0)}


def padiclab_targets() -> list[Target]:
    """Every traced public function, named ``<module>.<function>``."""
    plain = {
        "core": ("from_rational", "digits_to_int", "int_to_digits"),
        "constructors": (
            "build_digit_rule", "build_lacunary", "build_factorial",
            "schneider_exponent_driven", "surgery_transform",
            "build_ratio_witness",
        ),
        "lattice": ("uniform_minimum", "uniform_minimum_enum"),
        "exponents": (
            "build_report", "save_report", "load_report", "cross_check_uniform",
        ),
        "verify": ("check_korollar",),
    }
    targets = [
        Target(module, func, f"{module}.{func}")
        for module, funcs in plain.items()
        for func in funcs
    ]
    targets += [
        Target("core", func, f"core.{func}", folded=True)
        for func in ("make_pair", "pval", "residue")
    ]
    targets += [
        Target("core", "save_digit_file", "core.save_digit_file", _file_bytes(1, "path")),
        Target("core", "load_digit_file", "core.load_digit_file", _file_bytes(0, "path")),
        Target("lattice", "chain", "lattice.chain", _chain_attrs, by_norm=True),
        Target("lattice", "oracle_chain", "lattice.oracle_chain",
               lambda args, kwargs, result: {"entries": len(result.entries)}, by_norm=True),
        Target("lattice", "save_chain_csv", "lattice.save_chain_csv", _file_bytes(1, "path")),
        Target("lattice", "load_chain_entries", "lattice.load_chain_entries",
               _file_bytes(0, "path")),
        Target("verify", "check_padicle", "verify.check_padicle", _padicle_attrs),
    ]
    targets += [
        Target("cli", f"_cmd_{command}", f"cli.{command}")
        for command in ("construct", "approx", "estimate", "verify", "sweep")
    ]
    return targets
