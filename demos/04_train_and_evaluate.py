"""Train a small GAS model and re-target it across cost budgets zero-shot.

One checkpoint is trained on the ChainRun stitching corpus, then swept over
nine cost budgets without retraining. Env and policy are deterministic, so
each (budget, reward target) point is one rollout; all nine run together as
one batch, one goal-net and one policy forward per step. The small
architecture and 1,500 iterations keep this to seconds, and such a model
still overshoots the tightest budgets (cost_norm > 1.1 fails the safety
gate); the acceptance suite gates a 20k-iteration model.

Run: python demos/04_train_and_evaluate.py
"""

import gas
from gas.config import seed_streams
from gas.evaluate import EvalConfig, evaluate, reward_target_table, sweep_gates
from gas.oracle import chainrun_optimum
from gas.training import NetHyper, train_gas

T = 32
env = gas.make_env(gas.chainrun_spec(T), seed=0)
data = gas.generate_offline_dataset(env, gas.stitch_mix(), 200, seed=0)
print(f"corpus: {data.n} trajectories, R_max={data.r_max:.2f}, C_max={data.c_max:.0f}")

hyper = NetHyper(n_layers=3, hidden=64, embedding=32, batch_size=256,
                 learning_rate=3e-3, lr_final_fraction=0.1)
result = train_gas(data, gas.AugmentConfig(), hyper, 0.9, 1500, seed_streams(0))
it, l_r, l_c, l_pi = result.history[-1]
print(f"trained {it} iterations: L_R={l_r:.3f} L_C={l_c:.3f} L_pi={l_pi:.4f}")

# --- zero-shot sweep ---------------------------------------------------------------

cfg = EvalConfig(target_reward_fraction=1.0)
report = evaluate(result.pol, result.nets, env, cfg, data.r_max, data.c_max,
                  target_table=reward_target_table(data, cfg.thresholds))
print("\nbudget  reward  optimum  cost  cost_norm")
for row in report.rows:
    budget = row["threshold_cost"]
    print(f"{budget:6.1f}  {row['reward_return']:6.2f}  {chainrun_optimum(T, budget):7.2f}"
          f"  {row['cost_return']:4.0f}  {row['cost_norm']:9.2f}")
print("\ngates:", sweep_gates(report))
