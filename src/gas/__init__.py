"""Goal-assisted stitching for offline safe RL on solvable toy CMDPs.

Library layout:

* :mod:`gas.envs` -- deterministic toy environments and batched rollouts
* :mod:`gas.dataset` -- offline dataset and its segment returns, one-actor
  rollouts, segment augmentation, relabeling, reshaping, batch sampling,
  file formats
* :mod:`gas.nn` -- numpy MLP, optimizer, expectile primitive, grad checker
* :mod:`gas.goals` -- reward/cost goal functions (expectile regression) and
  the checkpoint bundle format (``write_bundle`` / ``read_bundle``)
* :mod:`gas.policy` -- constrained advantage-weighted policy, batched ``act``
* :mod:`gas.oracle` -- brute-force achievable-goal oracle, analytic planner
* :mod:`gas.training` -- the training loop (interleaved or two-phase)
* :mod:`gas.evaluate` -- target-conditioned rollouts, metrics, sweeps, ablations
* :mod:`gas.config`, :mod:`gas.cli` -- run configuration and CLI
"""

from .envs import CHAIN_RUN, GRID_CIRCLE, EnvSpec, chainrun_spec, gridcircle_spec, make_env
from .dataset import (AugmentConfig, OfflineDataset, TransitionBatch,
                      build_reshape_index, generate_offline_dataset, load_dataset,
                      mix_by_name, pure_block_mix, relabel, rollout, sample_batch,
                      save_dataset, slow_only_mix, stitch_mix)
from .errors import ConfigError, ContractError, GasError, NonFiniteError, SchemaError
from .nn import expectile_term, expectile_weight, grad_check, solve_scalar_expectile
from .goals import (AdvantagePair, GoalNets, InputNorm, goal_inputs, goal_loss,
                    load_goals, save_goals)
from .policy import PolicyNet, act, load_policy, policy_loss, save_policy
from .oracle import (ProbeQuery, brute_force_goal, chainrun_optimum,
                     chainrun_optimum_exhaustive, default_state_tolerance,
                     probe_grid_from_dataset)
from .training import NetHyper, train_gas
# the function ``evaluate`` is not re-exported: it would shadow the module
from .evaluate import (EvalConfig, EvalReport, robustness_sweep, rollout_policy,
                       run_ablation, run_episode, sweep_gates)
from .config import RunConfig, seed_streams

__version__ = "0.1.0"
