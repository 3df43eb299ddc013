"""Span tracer that times calls into kzfox from outside the program.

``Tracer.install`` replaces every module-level binding of each traced
function in the loaded ``kzfox`` modules with a timing wrapper (a function
imported into three modules is wrapped in all three), and replaces traced
``FreeSeries`` methods on the class.  ``Tracer.uninstall`` puts the originals
back.  Calls made through references the wrapper cannot reach, such as a
function stored in a dict or a closure, are not seen.

Each span accumulates, per name: calls, busy time (outermost activations
only, so recursion is not counted twice) and self time (duration minus the
time covered by traced child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_MARK = "__perfbench_traced__"


def holonomy_key(conn, path, *args, **kwargs):
    """The (geometry, degree) input of a ``holonomy_reg`` call."""
    return (
        conn.punctures.points,
        conn.trunc_degree,
        repr(path.start),
        repr(path.end),
        path.points,
    )


# (span name, module, attribute, key function); attributes with a dot are
# class methods.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("kz_holonomy.holonomy_reg", "kzfox.kz_holonomy", "holonomy_reg", holonomy_key),
    ("kz_holonomy.mu_bar_rhs", "kzfox.kz_holonomy", "mu_bar_rhs", None),
    ("kz_holonomy.pentagon_projection_check", "kzfox.kz_holonomy",
     "pentagon_projection_check", None),
    ("kz_holonomy.goldman_bracket_check", "kzfox.kz_holonomy",
     "goldman_bracket_check", None),
    ("free_hopf.mul", "kzfox.free_hopf", "FreeSeries.__mul__", None),
    ("free_hopf.log", "kzfox.free_hopf", "FreeSeries.log", None),
    ("free_hopf.exp", "kzfox.free_hopf", "FreeSeries.exp", None),
    ("free_hopf.inverse", "kzfox.free_hopf", "FreeSeries.inverse", None),
    ("free_hopf.coproduct", "kzfox.free_hopf", "FreeSeries.coproduct", None),
    ("brackets_coactions.double_bracket_from_pairing", "kzfox.brackets_coactions",
     "double_bracket_from_pairing", None),
    ("brackets_coactions.necklace_bracket", "kzfox.brackets_coactions",
     "necklace_bracket", None),
    ("brackets_coactions.necklace_cobracket", "kzfox.brackets_coactions",
     "necklace_cobracket", None),
    ("brackets_coactions.coaction_mu_kks", "kzfox.brackets_coactions",
     "coaction_mu_kks", None),
    ("brackets_coactions.mu_bar_kks", "kzfox.brackets_coactions", "mu_bar_kks", None),
    ("fox_calculus.d_left", "kzfox.fox_calculus", "d_left", None),
    ("fox_calculus.d_right", "kzfox.fox_calculus", "d_right", None),
    ("fox_calculus.rho_kks", "kzfox.fox_calculus", "rho_kks", None),
    ("trivial_extension.square_z", "kzfox.trivial_extension", "square_z", None),
    ("trivial_extension.square_w", "kzfox.trivial_extension", "square_w", None),
    ("trivial_extension.square_zw", "kzfox.trivial_extension", "square_zw", None),
    ("kz_paths.intersections", "kzfox.kz_paths", "intersections", None),
    ("kz_paths.self_intersections", "kzfox.kz_paths", "self_intersections", None),
    ("kz_paths.subpath", "kzfox.kz_paths", "subpath", None),
    ("kz_paths.rotation_number", "kzfox.kz_paths", "rotation_number", None),
    ("rep_space.evaluate", "kzfox.rep_space", "evaluate", None),
    ("rep_space.verify_theorem2", "kzfox.rep_space", "verify_theorem2", None),
    ("rep_space.bivector_pi", "kzfox.rep_space", "bivector_pi", None),
    ("coefficients.r_zeta_series", "kzfox.coefficients", "r_zeta_series", None),
    ("coefficients.r_am_series", "kzfox.coefficients", "r_am_series", None),
]


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s", "keys")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.keys = set()


def _kzfox_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "kzfox" or name.startswith("kzfox."))
    ]


class Tracer:
    """Collects spans in memory; ``reset`` starts a fresh tally."""

    def __init__(self):
        self._restore: List[Tuple[object, str, object]] = []
        self.stats: Dict[str, SpanStats] = {}
        self._children: List[float] = []  # child time of each open span
        self._depth: Dict[str, int] = {}

    def reset(self) -> None:
        self.stats = {}

    def _enter(self, name: str):
        self._children.append(0.0)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        return depth, time.perf_counter()

    def _exit(self, name: str, depth: int, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._children.pop()
        self._depth[name] = depth
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.self_s += dt - child
        if depth == 0:
            stats.busy_s += dt
        if self._children:
            self._children[-1] += dt

    @contextmanager
    def span(self, name: str):
        depth, t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, depth, t0)

    def _wrap(self, name: str, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
            depth, t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, depth, t0)
                if key is not None:
                    self.stats[name].keys.add(k)

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _kzfox_modules()
        for name, module_name, attr, key in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, key))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, key)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, binding, original))
                        setattr(m, binding, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def traced_bindings() -> List[str]:
    """Every kzfox binding that currently holds a tracing wrapper."""
    found = []
    for m in _kzfox_modules():
        for binding, value in vars(m).items():
            if getattr(value, _MARK, False):
                found.append(f"{m.__name__}.{binding}")
            elif isinstance(value, type):
                found += [
                    f"{m.__name__}.{binding}.{k}"
                    for k, v in vars(value).items() if getattr(v, _MARK, False)
                ]
    return found
