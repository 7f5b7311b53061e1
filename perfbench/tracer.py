"""Per-layer spans for traced benchmark runs, recorded from outside the library.

``Tracer.install()`` replaces each layer's public functions with timing
wrappers in every ``shilov.*`` namespace that binds them, so a call made
through any import path lands in the right span.  A span's self time is its
duration minus the durations of the spans it encloses, so the self times of
all layers plus the untraced remainder add up to the traced interval.
``uninstall()`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# layer name -> (module, function names)
LAYERS = {
    "boundary.certify_peak": ("shilov.boundary", ["certify_peak"]),
    "boundary.shilov_estimate": ("shilov.boundary", ["shilov_estimate"]),
    "boundary.reverify": ("shilov.boundary", ["reverify_certificate"]),
    "boundary.witnesses": ("shilov.boundary", ["witnesses_from_algebra", "witnesses_from_system"]),
    "boundary.verify_product": ("shilov.boundary", ["verify_product_theorem", "verify_peak_product"]),
    "algebra.validate_algebra": ("shilov.algebra", ["validate_algebra"]),
    "characters.characters": ("shilov.characters", ["characters"]),
    "function_algebras.as_algebra": ("shilov.function_algebras", ["as_algebra"]),
    "function_algebras.check_admissible": ("shilov.function_algebras", ["check_admissible"]),
    "function_algebras.check_natural": ("shilov.function_algebras", ["check_natural"]),
    "function_algebras.span_membership": ("shilov.function_algebras", ["span_membership"]),
    "function_algebras.build": ("shilov.function_algebras", [
        "make_CXE", "make_lip", "make_poly", "make_rational", "span_BE", "close_under_products",
    ]),
    "spaces": ("shilov.spaces", None),  # every public function of the module
    "cli.main": ("shilov.cli", ["main"]),
    "cli.validate_config": ("shilov.cli", ["validate_config"]),
    "cli.run_config": ("shilov.cli", ["run_config"]),
    "reports.canonical_json": ("shilov.reports", ["canonical_json"]),
}
LBFGS = "boundary.lbfgs"  # scipy.optimize.minimize as called from shilov.boundary


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.statuses: dict[str, int] = {}
        self.max_algebra_dim = 0
        self._open: list[float] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, before=None, after=None):
        """Time ``fn`` as a span of ``layer``; ``before`` sees the arguments
        and ``after`` the result of each call, outside the span."""
        span = self.spans.setdefault(layer, Span())

        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                span.calls += 1
                span.self_s += duration - children
                span.durations.append(duration)

        def traced(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            result = timed(*args, **kwargs)
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "shilov" and not name.startswith("shilov."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _count_status(self, cert) -> None:
        self.statuses[cert.status] = self.statuses.get(cert.status, 0) + 1

    def _note_dim(self, E, *args, **kwargs) -> None:
        self.max_algebra_dim = max(self.max_algebra_dim, E.dim)

    def install(self) -> "Tracer":
        hooks = {
            "certify_peak": {"after": self._count_status},
            "validate_algebra": {"before": self._note_dim},
        }
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            if names is None:
                names = [
                    n for n, f in vars(module).items()
                    if inspect.isfunction(f) and f.__module__ == module_name
                    and not n.startswith("_")
                ]
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._wrap(layer, original, **hooks.get(name, {})))

        boundary = sys.modules["shilov.boundary"]
        scipy = boundary.scipy
        minimize = self._wrap(LBFGS, scipy.optimize.minimize)
        self._restore.append((boundary, "scipy", scipy))
        boundary.scipy = _Proxy(scipy, optimize=_Proxy(scipy.optimize, minimize=minimize))
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-layer calls, self times and durations as plain data."""
        return {
            "spans": {
                name: {"calls": s.calls, "self_s": s.self_s, "durations": s.durations}
                for name, s in self.spans.items()
            },
            "statuses": dict(self.statuses),
            "max_algebra_dim": self.max_algebra_dim,
        }
