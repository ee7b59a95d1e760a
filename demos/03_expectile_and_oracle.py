"""Expectile regression and the brute-force achievable-goal oracle.

The asymmetric squared loss |alpha - 1(u<0)| u^2 interpolates between the
mean (alpha = 0.5) and the maximum (alpha -> 1) of a sample set; that is
what lets a regression estimate "the best return available here" without
ever maximizing over actions.

Run: python demos/03_expectile_and_oracle.py
"""

import numpy as np

import gas
from gas.oracle import ProbeQuery, brute_force_goal, brute_force_goals, default_state_tolerance

# --- scalar expectiles ----------------------------------------------------------

samples = np.arange(1.0, 11.0)
print("samples:", samples)
for alpha in (0.5, 0.7, 0.9, 0.99):
    m = gas.solve_scalar_expectile(samples, alpha)
    print(f"  alpha={alpha:4.2f}: expectile = {m:6.3f}")
print("(0.5 recovers the mean; alpha -> 1 walks to the maximum)")

# --- the oracle over augmented segments ------------------------------------------

env = gas.make_env(gas.chainrun_spec(32), seed=0)
data = gas.generate_offline_dataset(env, gas.stitch_mix(), 200, seed=0)
tol = default_state_tolerance(env.spec)

start = env.reset()
print("\nbest achievable from the start state, by cost budget:")
budgets = (2.5, 5.0, 10.0, 20.0, 32.0)
# one call answers every budget: the start state is matched against the corpus once
answers = brute_force_goals(data, [ProbeQuery(start, 0, budget, tol) for budget in budgets])
for budget, ans in zip(budgets, answers):
    print(f"  budget {budget:5.1f}: V*={ans.v_r_star:6.2f} at cost {ans.v_c_star:4.1f} "
          f"({ans.support_count} matching segments)")

# Augmentation strictly beats trajectory suffixes at mid-episode probes:
wide = tol.copy()
wide[-1] = 1.0  # ignore the clock, match on position only
probe = ProbeQuery(np.array([0.45 * 16, 0.5]), 16, 6.3, wide)
aug = brute_force_goal(data, probe)
suf = brute_force_goal(data, probe, suffix_only=True)
print(f"\nmid-episode probe: augmented V*={aug.v_r_star:.2f} "
      f"vs suffix-only V*={suf.v_r_star:.2f}")
