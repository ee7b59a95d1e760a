"""Deterministic toy constrained environments and batched rollouts.

Two desk-scale environments with per-step binary costs:

* ``ChainRun`` -- a 1-D runner. Action a in [-1, 1] maps to speed
  v = (a+1)/2; reward is v and a step costs 1 whenever v > 0.5. The
  constrained optimum is analytic (run at v=1 on as many steps as the
  budget allows, v=0.5 otherwise).
* ``GridCircle`` -- a 2-D agent rewarded for circling the origin
  counter-clockwise while staying inside the radial band [0.5, 1.5].

Both expose normalized time tau = t/T as the last state component so that
learners see a bounded clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError

ActionSource = Callable[[np.ndarray, int], "np.ndarray | float"]

CHAIN_RUN = "ChainRun"
GRID_CIRCLE = "GridCircle"


@dataclass(frozen=True)
class EnvSpec:
    name: str
    episode_length: int
    state_dim: int
    action_dim: int

    def __post_init__(self) -> None:
        if self.episode_length < 2:
            raise ConfigError(f"episode_length must be >= 2, got {self.episode_length}")


def chainrun_spec(episode_length: int = 32) -> EnvSpec:
    return EnvSpec(CHAIN_RUN, episode_length, state_dim=2, action_dim=1)


def gridcircle_spec(episode_length: int = 64) -> EnvSpec:
    return EnvSpec(GRID_CIRCLE, episode_length, state_dim=3, action_dim=2)


class _ToyEnv:
    """Dynamics live in ``step_batch`` over (B, d) states; ``step`` is its
    one-row case. Out-of-range actions are clipped to [-1, 1] and counted
    in ``clamp_warnings``, one per clipped row."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.clamp_warnings = 0

    def step(self, state, action, t: int):
        next_states, rewards, costs, done = self.step_batch(
            np.asarray(state, dtype=np.float64)[None, :], action, t)
        return next_states[0], float(rewards[0]), float(costs[0]), done

    def _clamped_actions(self, actions, t: int) -> np.ndarray:
        """(B, action_dim) actions clipped to [-1, 1], one warning per clipped row."""
        if t >= self.spec.episode_length:
            raise ContractError(f"step at t={t} past horizon T={self.spec.episode_length}")
        a = np.asarray(actions, dtype=np.float64).reshape(-1, self.spec.action_dim)
        out_of_range = np.any(np.abs(a) > 1.0, axis=1)
        if out_of_range.any():
            self.clamp_warnings += int(out_of_range.sum())
            a = np.clip(a, -1.0, 1.0)
        return a


class ChainRunEnv(_ToyEnv):
    """1-D runner; state is (position x, normalized time tau)."""

    def reset(self) -> np.ndarray:
        return np.array([0.0, 0.0])

    def step_batch(self, states, actions, t: int):
        T = self.spec.episode_length
        a = self._clamped_actions(actions, t)
        v = (a[:, 0] + 1.0) / 2.0
        next_states = np.column_stack([states[:, 0] + v, np.full(len(v), (t + 1) / T)])
        return next_states, v, (v > 0.5).astype(np.float64), t + 1 == T


class GridCircleEnv(_ToyEnv):
    """2-D circler; state is (x, y, normalized time tau).

    Reward is the counter-clockwise tangential progress (x*a_y - y*a_x)
    scaled by 1/max(|p|, 0.5); a step costs 1 when the next position leaves
    the radial band [0.5, 1.5].
    """

    def reset(self) -> np.ndarray:
        return np.array([1.0, 0.0, 0.0])

    def step_batch(self, states, actions, t: int):
        T = self.spec.episode_length
        a = self._clamped_actions(actions, t)
        x, y = states[:, 0], states[:, 1]
        nx, ny = x + 0.1 * a[:, 0], y + 0.1 * a[:, 1]
        rewards = (x * a[:, 1] - y * a[:, 0]) / np.maximum(np.hypot(x, y), 0.5)
        radius = np.hypot(nx, ny)
        costs = ((radius > 1.5) | (radius < 0.5)).astype(np.float64)
        next_states = np.column_stack([nx, ny, np.full(len(x), (t + 1) / T)])
        return next_states, rewards, costs, t + 1 == T


_ENV_CLASSES = {CHAIN_RUN: ChainRunEnv, GRID_CIRCLE: GridCircleEnv}


def make_env(spec: EnvSpec, seed: int = 0):
    """Build an environment from its spec; unknown names are config errors.

    Both environments are deterministic, so ``seed`` changes nothing.
    """
    if spec.name not in _ENV_CLASSES:
        known = ", ".join(sorted(_ENV_CLASSES))
        raise ConfigError(f"unknown environment {spec.name!r} (known: {known})")
    return _ENV_CLASSES[spec.name](spec)


def spec_by_name(name: str, episode_length: int) -> EnvSpec:
    if name == CHAIN_RUN:
        return chainrun_spec(episode_length)
    if name == GRID_CIRCLE:
        return gridcircle_spec(episode_length)
    raise ConfigError(f"env_name must be {CHAIN_RUN} or {GRID_CIRCLE}, got {name!r}")


def rollout_actors(env, actors: "list[ActionSource]"):
    """Run every actor for one episode from ``env.reset()``, all stepped
    together: one ``step_batch`` per t. Returns the stacked (N, T, d) states,
    (N, T, action_dim) clipped actions and (N, T) rewards and costs."""
    spec = env.spec
    n, T = len(actors), spec.episode_length
    states = np.empty((n, T, spec.state_dim))
    actions = np.empty((n, T, spec.action_dim))
    rewards = np.empty((n, T))
    costs = np.empty((n, T))
    state = np.tile(env.reset(), (n, 1))
    for t in range(T):
        states[:, t] = state
        rows = actions[:, t]
        # an actor returns a float or an (action_dim,) array; row assignment
        # broadcasts either without building an array per call
        for i, actor in enumerate(actors):
            rows[i] = actor(state[i], t)
        state, rewards[:, t], costs[:, t], _done = env.step_batch(state, rows, t)
    np.clip(actions, -1.0, 1.0, out=actions)
    return states, actions, rewards, costs

