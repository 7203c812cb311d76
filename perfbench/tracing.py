"""Layer spans recorded from outside the package.

The package modules import each other's functions with ``from .x import
y``, so every importing module holds its own binding of ``y``.  Tracing a
function therefore means replacing it in every loaded ``mcsgame`` module
that holds it, which is what ``Tracer.install`` does.  Nothing under
``src/`` is edited.

Spans are aggregated as they close, keyed by (nearest traced caller,
name): a run makes millions of ``best_response`` calls, too many to keep
one record each.  Self time is a span's duration minus the durations of
the traced spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute) pairs wrapped in the traced run; the span name is
# "module.attribute", so each layer is named after its package module.
TARGETS = [
    ("model", "mu_payoff"),
    ("model", "mu_own_profit"),
    ("follower", "best_response"),
    ("leader", "compute_se"),
    ("dynamics", "env_step"),
    ("dynamics", "respond"),
    ("dynamics", "env_reset"),
    ("learner", "train"),
    ("learner", "policy_sample"),
    ("learner", "mlp_forward"),
    ("learner", "mlp_backward"),
    ("learner", "ppo_actor_gradient"),
    ("learner", "critic_loss_and_gradient"),
    ("learner", "ppo_surrogate"),
    ("learner", "TrajectoryBuffer.stacked"),
    ("experiments", "generate_scenario"),
    ("experiments", "run_sweep"),
    ("experiments", "play_greedy"),
    ("experiments", "play_random"),
    ("reporting", "write_csv"),
    ("reporting", "write_manifest"),
    ("svgplot", "line_chart"),
    ("cli", "main"),
]


def _compute_se_units(args, result):
    return {"users": args[0].n, "iterations": result.iterations}


def _train_units(args, result):
    return {"episodes": args[2].episodes}


def _write_csv_units(args, result):
    return {"bytes": os.path.getsize(result)}


# Work measured at a span boundary, summed per (caller, name) key.
UNITS = {
    "leader.compute_se": _compute_se_units,
    "learner.train": _train_units,
    "reporting.write_csv": _write_csv_units,
}


class Tracer:
    """Aggregating span recorder over the TARGETS, swapped in by install()."""

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[tuple, list] = {}
        self.missing: list[str] = []
        self._bindings: list[tuple] | None = None

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        units = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = tracer.stats.get((parent, name))
                if rec is None:
                    rec = tracer.stats[(parent, name)] = [0, 0.0, 0.0, {}]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if units is not None:
                extra = rec[3]
                for key, value in units(args, result).items():
                    extra[key] = extra.get(key, 0) + value
            return result

        return traced

    def _resolve(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every binding of every target."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mcsgame" or key.startswith("mcsgame."))]
        bindings = []
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            holder = importlib.import_module(f"mcsgame.{mod_name}")
            if "." in attr:  # a method: one binding, on the class
                cls_name, attr = attr.split(".")
                holder = getattr(holder, cls_name, None)
            original = getattr(holder, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if isinstance(holder, type):
                bindings.append((holder, attr, original, wrapper))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, key, original, wrapper))
        return bindings

    def install(self) -> None:
        """Rebind every target in every loaded mcsgame module that holds it."""
        if self._bindings is None:
            self._bindings = self._resolve()
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._bindings or ():
            setattr(holder, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per-name calls, total_s, self_s and summed units over all callers."""
        out: dict[str, dict] = {}
        for (_, name), (calls, total, self_s, extra) in self.stats.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
            for key, value in extra.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def calls_from(self, parent: str, name: str) -> int:
        rec = self.stats.get((parent, name))
        return rec[0] if rec else 0

    def call_counts(self) -> dict[str, int]:
        return {f"{parent}>{name}": rec[0] for (parent, name), rec in self.stats.items()}
