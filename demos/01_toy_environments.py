"""Tour of the toy constrained environments.

ChainRun is a 1-D runner where speed is reward and speeding (v > 0.5) costs;
its constrained optimum is known in closed form, which is what makes the
whole test story quantitative. GridCircle is a 2-D orbiter with a radial
safety band.

Run: python demos/01_toy_environments.py
"""

import numpy as np

import gas

# --- ChainRun basics --------------------------------------------------------

env = gas.make_env(gas.chainrun_spec(32), seed=0)
print("ChainRun state after reset:", env.reset())

# a rollout is a one-row corpus; total_returns() gives each row's (R, C)
(reward,), (cost,) = gas.rollout(env, lambda state, t: 1.0).total_returns()  # flat out
print(f"always fast : reward={reward:5.1f} cost={cost:5.1f}")

(reward,), (cost,) = gas.rollout(env, lambda state, t: 0.0).total_returns()  # free speed
print(f"always slow : reward={reward:5.1f} cost={cost:5.1f}")

(reward,), (cost,) = gas.rollout(env, lambda state, t: 1.0 if t < 8 else 0.0).total_returns()
print(f"8 fast, rest: reward={reward:5.1f} cost={cost:5.1f}")

# The analytic optimum: spend the budget on full-speed steps, cruise otherwise.
for budget in (0, 4, 8, 16, 32):
    print(f"optimum under cost budget {budget:2d}: "
          f"{gas.chainrun_optimum(32, budget):5.1f}")

# For small horizons the closed form matches exhaustive search.
print("exhaustive check (T=10, budget=4):",
      gas.chainrun_optimum(10, 4), "==",
      gas.chainrun_optimum_exhaustive(10, 4))

# --- segments via prefix sums -------------------------------------------------

episode = gas.rollout(env, lambda state, t: 1.0 if 10 <= t < 20 else 0.0)
r_seg, c_seg = episode.segment_returns(0, 8, 15)  # row 0, steps 8..15 inclusive
print(f"\nsegment [8, 15]: reward={r_seg} cost={c_seg}")

# --- GridCircle ---------------------------------------------------------------

grid = gas.make_env(gas.gridcircle_spec(64), seed=0)
state = grid.reset()
total_r = total_c = 0.0
for t in range(64):
    # hand-rolled orbit controller: tangential push plus radial correction
    x, y = state[0], state[1]
    norm = max(np.hypot(x, y), 1e-8)
    action = np.clip([-y / norm + 2 * (1 - norm) * x / norm,
                      x / norm + 2 * (1 - norm) * y / norm], -1, 1)
    state, r, c, _ = grid.step(state, action, t)
    total_r += r
    total_c += c
print(f"\nGridCircle orbit: reward={total_r:.2f} cost={total_c:.0f} "
      f"(final radius {np.hypot(state[0], state[1]):.2f})")
