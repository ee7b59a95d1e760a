"""In-memory span tracer that wraps gas's public callables from outside the package.

Each target is patched wherever a caller looks it up: a function is replaced
in every ``gas`` module that binds the same object (so ``from .goals import
goal_loss`` in ``training`` is covered), a method on its class. A target that
a refactor removed is recorded as absent and the run goes on.

A span is (id, name, start, end, parent, op): ``op`` is the benchmark
operation that caused it. Self time is the span's duration minus the time
its traced children cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, callable) pairs under src/gas, in the order they are reported
TARGETS = (
    ("dataset", "generate_offline_dataset"),
    ("dataset", "save_dataset"),
    ("dataset", "sample_batch"),
    ("goals", "goal_loss"),
    ("goals", "GoalNets.values"),
    ("goals", "save_goals"),
    ("goals", "load_goals"),
    ("policy", "policy_loss"),
    ("policy", "act"),
    ("policy", "save_policy"),
    ("policy", "load_policy"),
    ("nn", "Mlp.forward"),
    ("nn", "Mlp.forward_cached"),
    ("nn", "Mlp.backward"),
    ("nn", "OptimState.apply"),
    ("training", "train_gas"),
    ("envs", "ChainRunEnv.step"),
    ("evaluate", "run_episode"),
    ("oracle", "brute_force_goal"),
    ("cli", "main"),
)

# Mlp.forward delegates to forward_cached; treating it as a leaf keeps the
# 1-row evaluation forwards apart from the batched training forwards.
OPAQUE = {"nn.Mlp.forward"}

# per-op cap on stored spans; aggregates always cover every span
SPANS_PER_OP = 500


def target_names() -> list:
    return [f"{module}.{attr}" for module, attr in TARGETS]


def _goal_loss_flops(args, kwargs) -> float:
    """Computed matmul FLOPs of one goal_loss call: both nets, forward and
    backward (weight gradients on every layer, input gradients below the top)."""
    batch = args[0] if args else kwargs["batch"]
    nets = args[1] if len(args) > 1 else kwargs["nets"]
    rows = len(batch)
    flops = 0.0
    for net in (nets.reward_net, nets.cost_net):
        sizes = net.layer_sizes
        products = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
        flops += 2.0 * rows * (2 * sum(products) + sum(products[1:]))
    return flops


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.absent = []
        self.op = None
        self._stack = []            # [span_id, name, start, child_seconds]
        self._next_id = 0
        self._suppress = 0
        self._installed = []        # (owner, attr, original, owner defined it)
        self._per_op = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.by_parent = defaultdict(float)   # (name, parent name) -> inclusive s
        self.episode_ms = []
        self.episode_points = defaultdict(set)
        self.goal_flops = 0.0
        self.flops_known = True

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gas" or name.startswith("gas."))]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"gas.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None)
                if not isinstance(cls, type) or not callable(original):
                    self.absent.append(name)
                    continue
                self._patch(cls, meth, original, name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, name)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the wrapper so the base class shows through
                delattr(owner, attr)
        self._installed = []

    def _patch(self, owner, attr, original, name) -> None:
        own = attr in vars(owner)
        setattr(owner, attr, self._wrap(original, name))
        self._installed.append((owner, attr, original, own))

    def _wrap(self, fn, name):
        opaque = name in OPAQUE
        tracer = self

        def traced(*args, **kwargs):
            if tracer._suppress:
                return fn(*args, **kwargs)
            tracer._open(name)
            if opaque:
                tracer._suppress += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if opaque:
                    tracer._suppress -= 1
                duration = tracer._close()
                if name == "evaluate.run_episode":
                    tracer._observe_episode(duration, args, kwargs)
                elif name == "goals.goal_loss":
                    tracer._observe_goal_loss(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.by_parent[(name, parent[1] if parent else None)] += duration
        if self._per_op[self.op] < SPANS_PER_OP:
            self._per_op[self.op] += 1
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.op))
        else:
            self.dropped += 1
        return duration

    @contextlib.contextmanager
    def operation(self, name: str, op: str):
        """A root span for one benchmark operation; nested spans carry its op id."""
        previous, self.op = self.op, op
        self._open(name)
        try:
            yield
        finally:
            self._close()
            self.op = previous

    def _observe_episode(self, duration, args, kwargs) -> None:
        self.episode_ms.append(duration * 1e3)
        r_target = args[3] if len(args) > 3 else kwargs.get("r_target")
        c_target = args[4] if len(args) > 4 else kwargs.get("c_target")
        self.episode_points[self.op].add((r_target, c_target))

    def _observe_goal_loss(self, args, kwargs) -> None:
        if not self.flops_known:
            return
        try:
            self.goal_flops += _goal_loss_flops(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.flops_known = False

    # -- reporting ----------------------------------------------------------

    def root_seconds(self) -> float:
        return sum(s for (_, parent), s in self.by_parent.items() if parent is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")
