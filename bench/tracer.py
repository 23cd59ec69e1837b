"""Per-layer spans recorded from outside the program.

``Tracer`` replaces public functions and methods of the ``varid`` modules
with timing wrappers for the length of a ``with`` block and puts the
originals back on exit.  Module-level functions are replaced in every
``varid`` namespace that imported them, so calls between modules are
seen too.  Spans nest: a layer's self time is its span time minus the
time of the spans opened inside it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class Stat:
    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0  # steps, Newton iterations, ... as the span defines


def _steps_of_grid_arg(args, kwargs, out):
    return kwargs["grid"].steps if "grid" in kwargs else args[3].steps


def _steps_of_traj(index):
    return lambda args, kwargs, out: args[index].grid.steps


class Tracer:
    def __init__(self):
        self.stats = {}
        self.top_s = 0.0  # time inside outermost spans
        self._stack = []
        self._patched = []  # (owner, name, original, is_class)

    # -- spans -----------------------------------------------------------------

    def stat(self, key: str) -> Stat:
        if key not in self.stats:
            self.stats[key] = Stat(layer=key.split(".", 1)[0])
        return self.stats[key]

    def timed(self, key: str, fn, units=None):
        """``fn`` wrapped in a span named ``key``; ``units(args, kwargs,
        result)`` adds to the span's unit count."""
        stat = self.stat(key)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_s += elapsed
            if units is not None:
                stat.units += units(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------------

    def _replace_function(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "varid" and not name.startswith("varid."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original, False))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patched.append((cls, attr, cls.__dict__[attr], True))
        setattr(cls, attr, wrapper)

    def __enter__(self):
        from varid import cli, estimation, integrator, linearization, model, models

        for cls, attr in (
            (models.ChainModel, "lagrangian_derivatives"),
            (models.ClosedLoopModel, "constraint"),
            (models.ClosedLoopModel, "constraint_jacobian"),
            (models.ClosedLoopModel, "constraint_hessian"),
        ):
            self._replace_method(
                cls, attr, self.timed(f"models.{attr}", cls.__dict__[attr])
            )
        self._replace_method(
            estimation.FeedbackForce,
            "value",
            self.timed("estimation.FeedbackForce.value", estimation.FeedbackForce.value),
        )

        plain = [
            (model, "slot_derivatives", None),
            (integrator, "simulate", None),
            (integrator, "rollout", _steps_of_grid_arg),
            (integrator, "step", lambda a, k, out: out.newton_iters),
            (linearization, "linearize_trajectory", _steps_of_traj(1)),
            (linearization, "linearize_step", None),
            (estimation, "adjoint_gradient", _steps_of_traj(0)),
            (estimation, "cost", _steps_of_traj(0)),
            (estimation, "ingest_series", None),
            (cli, "main", None),
        ]
        for mod, attr, units in plain:
            layer = mod.__name__.split(".")[-1]
            original = getattr(mod, attr)
            self._replace_function(
                original, self.timed(f"{layer}.{attr}", original, units)
            )

        # identify: count the rollouts it spends, and put the CLI's
        # per-iteration callback (path recording) in the cli layer
        original = estimation.identify
        rollouts = self.stat("integrator.rollout")
        record = self.stat("estimation.identify.rollouts")

        def counted_identify(*args, **kwargs):
            if kwargs.get("callback") is not None:
                kwargs["callback"] = self.timed("cli.callback", kwargs["callback"])
            before = rollouts.calls
            try:
                return original(*args, **kwargs)
            finally:
                record.units += rollouts.calls - before

        self._replace_function(
            original,
            self.timed(
                "estimation.identify", counted_identify, lambda a, k, out: out.iterations
            ),
        )
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched, patched = [], self._patched
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, is_class in patched
            if (owner.__dict__[attr] if is_class else getattr(owner, attr)) is not original
        ]
        if leftovers:
            raise RuntimeError(f"tracer left wrappers in place: {leftovers}")

    # -- metrics ---------------------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        return sum(s.self_s for s in self.stats.values() if s.layer == layer)
