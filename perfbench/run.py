#!/usr/bin/env python3
"""Benchmark of the gas library: training throughput and the zero-shot sweep.

Run from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

Workloads: train_small, train_large, eval_sweep (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics; with ``--trace 1`` the public callables
of every ``src/gas`` module are wrapped and the per-layer metrics are
reported instead. ``--smoke`` shrinks every iteration count for a quick
check. The line before the result records the environment and the
unbounded outcomes; run artefacts go to ``perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench_runs"

# the standard ChainRun stitch corpus of the acceptance suite
T = 32
N_TRAJ = 200
ALPHA = 0.9
LOG_EVERY = 10
ORACLE_CHECKS_PER_CYCLE = 3  # the call is short, so each cycle samples it more often

# acceptance architecture (HYPER in tests/test_acceptance.py) as CLI keys;
# policy_weight_decay has no CLI key, so CLI-trained policies use weight_decay
ACCEPTANCE_KEYS = ("n_layers=4", "hidden=128", "embedding=64", "batch_size=256",
                   "learning_rate=0.003", "grad_clip=0.25", "weight_decay=0.001",
                   "lr_final_fraction=0.03")
ACCEPTANCE_HYPER = dict(n_layers=4, hidden=128, embedding=64, batch_size=256,
                        learning_rate=3e-3, grad_clip=0.25, weight_decay=1e-3,
                        lr_final_fraction=0.03, policy_weight_decay=3e-3)

# iterations: per timed train_gas call (train_*) or per set-up `gas train` (eval_sweep);
# setups: set-up repeats before the timed part (a train_* step adds one more);
# setup_s is their median
WORKLOADS = {
    "train_small": {"hyper": ACCEPTANCE_HYPER, "keys": ACCEPTANCE_KEYS,
                    "iterations": 300, "smoke_iterations": 4, "setups": 3},
    "train_large": {"hyper": {}, "keys": (), "iterations": 30, "smoke_iterations": 2,
                    "setups": 3},
    "eval_sweep": {"hyper": ACCEPTANCE_HYPER, "keys": ACCEPTANCE_KEYS,
                   "iterations": 300, "smoke_iterations": 4, "setups": 3},
}

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "sweep_s": "s",
    "rollout_steps_per_s": "steps/s",
    "oracle_check_s": "s",
    "sweep_reward_norm_mean": "ratio",
    "peak_rss_mb": "MB",
}


class Run:
    """Operation and failure counts of one benchmark process."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.gate_exits = 0
        self.probe_ms = []
        self._ops = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    @contextlib.contextmanager
    def op(self, kind: str):
        """One counted operation; in a traced run also a root span."""
        self.attempted += 1
        self._ops += 1
        if self.tracer is None:
            yield
            return
        with self.tracer.operation(f"bench.{kind}", f"{kind}#{self._ops}"):
            yield


def load_gas():
    """Import gas from src/ of the checkout; None when the sources are absent."""
    src = ROOT / "src"
    if not (src / "gas" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import gas
    import gas.cli
    return gas


def median(values):
    return statistics.median(values) if values else float("nan")


def upper_quartile(values):
    """Timed metrics other than set-up are the upper quartile of the run's
    calls. A shared host alternates, for seconds to minutes, between a common
    slow state and an occasional fast one. The upper quartile measures the
    common state, and it varied least across runs of the same code."""
    return float(np.percentile(values, 75)) if values else float("nan")


def machine_probe() -> float:
    """Milliseconds of a fixed loop of Python arithmetic and small numpy ops that
    does not touch gas: a record of how fast the machine ran during a run."""
    w = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    x = np.ones(64)
    start = time.perf_counter()
    for i in range(2000):
        x = np.maximum(x @ w * 0.01 + i * 1e-6, 0.0)
    return (time.perf_counter() - start) * 1e3


def timed_phase(run: Run, seconds: float, step) -> tuple:
    """Calls ``step`` (which returns a dict with its ``seconds``) at least twice,
    and then while the next call is expected to end within ``seconds``, so a run
    measures for ``seconds`` and not one step more. Returns (untraced, measured)
    steps. A traced run alternates an untraced and a traced step, so machine
    drift hits both sides of the overhead estimate alike; the traced steps are
    the measured ones."""
    untraced, measured = [], []
    start = time.perf_counter()
    while True:
        if run.tracer is not None:
            untraced.append(step())
            run.tracer.install()
        measured.append(step())
        if run.tracer is not None:
            run.tracer.uninstall()
        run.probe_ms.append(machine_probe())
        elapsed = time.perf_counter() - start
        per_step = elapsed / len(measured)
        if len(measured) >= 2 and elapsed + per_step > seconds:
            return untraced, measured


# -- environment record ---------------------------------------------------


def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn()), f"{lib.name}:{symbol}"
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return (int(env) if env and env.isdigit() else None), "OPENBLAS_NUM_THREADS"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(dtype: str, threads_at_start) -> dict:
    """The BLAS thread count is read at start and at end: the program may set it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = _blas_threads()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gas").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads_start": threads_at_start, "blas_threads_end": threads,
        "blas_threads_source": source,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dtype": dtype, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
    }


# -- shared pieces ----------------------------------------------------------


def probe_grid(gas, data) -> list:
    """The acceptance probe grid: low/high/median-cost trajectories, several
    times, non-atomic budget fractions (probe_grid in tests/test_acceptance.py)."""
    tol = gas.oracle.default_state_tolerance(data.env_meta)
    _, costs = data.total_returns()
    ids = (int(np.argmin(costs)), int(np.argmax(costs)),
           int(np.argsort(costs)[data.n // 2]))
    probes = []
    for tid, times in zip(ids, ((0, 4, 8, 12, 16), (0, 4, 8), (0, 6, 10))):
        for t in times:
            for fraction in (0.15, 0.3, 0.55, 0.8, 0.95):
                probes.append(gas.oracle.ProbeQuery(data.states[tid, t].copy(), t,
                                                    fraction * (T - t), tol))
    return probes


def dataset_bytes(data) -> bytes:
    """The corpus arrays as raw bytes, to compare set-ups."""
    return b"".join(np.ascontiguousarray(a).tobytes()
                    for a in (data.states, data.actions, data.reward_prefix, data.cost_prefix))


def param_dtype(nets) -> str:
    try:
        return str(nets.reward_net.weights[0].dtype)
    except (AttributeError, IndexError, TypeError):
        return "unknown"


def model_fingerprint(probes, nets, pol) -> bytes:
    """Goal values and policy actions on the probe grid, as raw bytes."""
    states = np.stack([p.state for p in probes])
    c_hat = np.array([p.c_hat for p in probes])
    t_prime = np.array([float(p.t_prime) for p in probes])
    r_hat = np.full(len(probes), 0.5 * T)
    v_r, v_c = nets.values(states, r_hat, c_hat, t_prime)
    actions = pol.forward(states, r_hat, c_hat, v_r, v_c, t_prime)
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for a in (v_r, v_c, actions))


def oracle_quality(run: Run, gas, data, probes, nets) -> dict:
    """Criterion-4 quantities on the acceptance probe grid, plus a bound check:
    no segment of k steps with cost <= c can earn more than the ChainRun optimum."""
    rel, cost_ok, feasible, bound_ok = [], 0, 0, True
    for probe in probes:
        answer = gas.oracle.brute_force_goal(data, probe)
        if not answer.feasible:
            continue
        feasible += 1
        k = T - probe.t_prime
        bound_ok &= (answer.v_r_star <= gas.oracle.chainrun_optimum(k, probe.c_hat) + 1e-9
                     and answer.v_c_star <= probe.c_hat + 1e-9)
        v_r, v_c = nets.values(probe.state[None, :], np.array([1.05 * answer.v_r_star]),
                               np.array([probe.c_hat]), np.array([float(probe.t_prime)]))
        rel.append(abs(float(v_r[0]) - answer.v_r_star) / max(abs(answer.v_r_star), 1e-8))
        cost_ok += float(v_c[0]) <= probe.c_hat + 1e-9
    run.check("oracle answers within the ChainRun optimum", feasible > 0 and bound_ok,
              f"{feasible} feasible probes")
    if not feasible:
        return {}
    return {"oracle_agreement_r": float(np.mean(np.array(rel) <= 0.10)),
            "oracle_budget_c": cost_ok / feasible, "oracle_feasible_probes": feasible}


def cli(run: Run, gas, argv: list, log) -> float:
    """One in-process CLI call; exit 1 or 2 is a failure, exit 3 a recorded outcome."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        code = gas.cli.main(argv)
        elapsed = time.perf_counter() - start
    run.check(f"gas {argv[0]} exit code", code in (0, 3), f"exit {code}")
    run.gate_exits += code == 3
    return elapsed


def eval_cycle(run: Run, gas, keys: list, run_dir: Path, log) -> dict:
    """`gas sweep` at the CLI-default grid, then `gas oracle-check` a few times."""
    (run_dir / "sweep.json").unlink(missing_ok=True)
    with run.op("sweep"):
        sweep_s = cli(run, gas, ["sweep", *keys], log)
    oracle_s, oracle = [], []
    for _ in range(ORACLE_CHECKS_PER_CYCLE):
        (run_dir / "oracle_check.json").unlink(missing_ok=True)
        with run.op("oracle_check"):
            oracle_s.append(cli(run, gas, ["oracle-check", *keys], log))
        oracle.append((run_dir / "oracle_check.json").read_bytes())
    return {"sweep_s": sweep_s, "oracle_check_s": oracle_s, "seconds": sweep_s + sum(oracle_s),
            "sweep": (run_dir / "sweep.json").read_bytes(), "oracle": oracle}


def check_cycles(run: Run, cycles: list) -> dict:
    """Repeat and row checks on the eval cycles; returns the sweep outcomes."""
    run.check("sweep.json byte-identical across repeats",
              all(c["sweep"] == cycles[0]["sweep"] for c in cycles))
    run.check("oracle_check.json byte-identical across repeats",
              all(o == cycles[0]["oracle"][0] for c in cycles for o in c["oracle"]))
    report = json.loads(cycles[0]["sweep"])
    rows, summary = report["rows"], report["summary"]
    by_threshold = {}
    for row in rows:
        by_threshold.setdefault(row["threshold_frac"], set()).add(
            (row["reward_return"], row["cost_return"]))
    run.check("sweep rows agree within each threshold",
              bool(rows) and all(len(v) == 1 for v in by_threshold.values()),
              f"{sum(len(v) for v in by_threshold.values())} distinct outcomes "
              f"over {len(by_threshold)} thresholds")
    run.check("sweep returns within [0, T]",
              all(0.0 <= r["reward_return"] <= T and 0.0 <= r["cost_return"] <= T
                  for r in rows))
    oracle = json.loads(cycles[0]["oracle"][0])
    return {"rollouts": len(rows),
            "sweep_reward_norm_mean": statistics.fmean(s["reward_norm_mean"] for s in summary),
            "sweep_cost_norm_max": max(s["cost_norm_mean"] for s in summary),
            "cli_oracle_agreement": oracle.get("agreement_fraction")}


def cycle_times(cycles: list) -> dict:
    return {"sweep_s": [c["sweep_s"] for c in cycles],
            "oracle_check_s": [s for c in cycles for s in c["oracle_check_s"]]}


def overhead(untraced: list, traced: list):
    """Median traced step time / median untraced step time - 1; None untraced."""
    if not untraced:
        return None
    return median([s["seconds"] for s in traced]) / median([s["seconds"] for s in untraced]) - 1.0


def eval_metrics(cycles: list, outcome: dict) -> dict:
    sweep_s = upper_quartile([c["sweep_s"] for c in cycles])
    return {"sweep_s": sweep_s,
            "rollout_steps_per_s": outcome["rollouts"] * T / sweep_s,
            "oracle_check_s": upper_quartile(cycle_times(cycles)["oracle_check_s"]),
            "sweep_reward_norm_mean": outcome["sweep_reward_norm_mean"]}


# -- workloads ------------------------------------------------------------


def train_workload(run: Run, gas, spec: dict, args, work: Path, log) -> dict:
    """train_gas calls on the corpus, alternating with eval cycles on the
    trained model, so both sample the whole run."""
    seed = args.seed
    iterations = spec["smoke_iterations"] if args.smoke else spec["iterations"]
    hyper = gas.training.NetHyper(**spec["hyper"])
    keys = [*spec["keys"], f"alpha={ALPHA}", f"seed={seed}", f"out_dir={work}"]
    tracer = run.tracer

    # untimed: a 1-iteration `gas train` leaves checkpoints whose metadata the
    # trained model is saved with, so `gas sweep` and `gas oracle-check` load it
    cli(run, gas, ["train", *keys, "iterations=1"], log)
    _, goals_meta = gas.goals.load_goals(work / "goals.ckpt")
    _, policy_meta = gas.policy.load_policy(work / "policy.ckpt")

    def setup():
        start = time.perf_counter()
        with run.op("setup"):
            env = gas.envs.make_env(gas.envs.chainrun_spec(T), seed)
            data = gas.dataset.generate_offline_dataset(env, gas.dataset.stitch_mix(),
                                                        N_TRAJ, seed)
            gas.training.build_models(data, hyper, gas.config.seed_streams(seed))
        return time.perf_counter() - start, data

    if tracer:
        tracer.install()
    setups = [setup() for _ in range(spec["setups"])]
    if tracer:
        tracer.uninstall()
    data = setups[0][1]
    corpus = dataset_bytes(data)
    probes = probe_grid(gas, data)

    def train_call():
        with run.op("train"):
            start = time.perf_counter()
            result = gas.training.train_gas(data, gas.dataset.AugmentConfig(), hyper, ALPHA,
                                            iterations, gas.config.seed_streams(seed),
                                            schedule="interleaved", log_every=LOG_EVERY)
            elapsed = time.perf_counter() - start
            history = getattr(result, "history", [])
            fingerprint = (repr(history).encode()
                           + model_fingerprint(probes, result.nets, result.pol))
        run.check("train_gas losses finite",
                  all(math.isfinite(v) for row in history for v in row))
        return {"seconds": elapsed, "result": result, "fingerprint": fingerprint}

    # the first call is the warm-up, untimed; every call trains the same model
    first = train_call()
    with run.op("save"):
        gas.goals.save_goals(work / "goals.ckpt", first["result"].nets, goals_meta)
        gas.policy.save_policy(work / "policy.ckpt", first["result"].pol, policy_meta)

    def step():
        setup_s, again = setup()
        train = train_call()
        del train["result"]  # the same model as the first call's; keep memory flat
        cycle = eval_cycle(run, gas, keys, work, log)
        return {"setup_s": setup_s, "same_data": dataset_bytes(again) == corpus,
                "train": train, "cycle": cycle,
                "seconds": setup_s + train["seconds"] + cycle["seconds"]}

    untraced, steps = timed_phase(run, args.seconds, step)
    if tracer:
        tracer.install()
    calls = [s["train"] for s in steps]
    run.check("repeated set-ups generate the same corpus",
              all(dataset_bytes(d) == corpus for _, d in setups)
              and all(s["same_data"] for s in untraced + steps))
    run.check("repeated train_gas calls bit-identical",
              all(c["fingerprint"] == first["fingerprint"]
                  for c in calls + [s["train"] for s in untraced]))
    cycles = [s["cycle"] for s in steps]
    outcome = check_cycles(run, [s["cycle"] for s in untraced] + cycles)
    with run.op("quality"):
        outcome.update(oracle_quality(run, gas, data, probes, first["result"].nets))

    samples = iterations * hyper.batch_size
    setup_s = [s for s, _ in setups] + [s["setup_s"] for s in steps]
    metrics = {"setup_s": median(setup_s),
               "train_samples_per_s": samples / upper_quartile([c["seconds"] for c in calls]),
               **eval_metrics(cycles, outcome)}
    return {"metrics": metrics, "outcome": outcome, "overhead": overhead(untraced, steps),
            "dtype": param_dtype(first["result"].nets),
            "ops": {"iterations_per_call": iterations,
                    "setup_s": setup_s,
                    "warmup_train_s": first["seconds"],
                    "untraced_train_s": [s["train"]["seconds"] for s in untraced],
                    "train_s": [c["seconds"] for c in calls],
                    **cycle_times(cycles)}}


def eval_workload(run: Run, gas, spec: dict, args, work: Path, log) -> dict:
    """Set-up trains a checkpoint through the CLI; the timed part sweeps it."""
    seed = args.seed
    iterations = spec["smoke_iterations"] if args.smoke else spec["iterations"]
    tracer = run.tracer
    batch = int(dict(k.split("=") for k in spec["keys"])["batch_size"])

    def setup(i):
        run_dir = work / f"setup{i}"
        keys = [*spec["keys"], f"alpha={ALPHA}", f"seed={seed}", f"out_dir={run_dir}"]
        start = time.perf_counter()
        with run.op("setup"):
            cli(run, gas, ["gen-dataset", *keys], log)
            train_s = cli(run, gas, ["train", *keys, f"iterations={iterations}"], log)
        outputs = {n: (run_dir / n).read_bytes()
                   for n in ("goals.ckpt", "policy.ckpt", "loss.csv")}
        return time.perf_counter() - start, train_s, outputs, keys

    if tracer:
        tracer.install()
    setups = [setup(i) for i in range(spec["setups"])]
    if tracer:
        tracer.uninstall()
    run.check("repeated `gas train` outputs byte-identical",
              all(s[2] == setups[0][2] for s in setups))
    run_dir, keys = work / "setup0", setups[0][3]

    untraced, cycles = timed_phase(run, args.seconds,
                                   lambda: eval_cycle(run, gas, keys, run_dir, log))
    if tracer:
        tracer.install()
    outcome = check_cycles(run, untraced + cycles)

    with run.op("quality"):
        nets, _ = gas.goals.load_goals(run_dir / "goals.ckpt")
        env = gas.envs.make_env(gas.envs.chainrun_spec(T), seed)
        data = gas.dataset.generate_offline_dataset(env, gas.dataset.stitch_mix(), N_TRAJ, seed)
        outcome.update(oracle_quality(run, gas, data, probe_grid(gas, data), nets))

    metrics = {"setup_s": median([s[0] for s in setups]),
               "train_samples_per_s": (iterations * batch
                                       / upper_quartile([s[1] for s in setups])),
               **eval_metrics(cycles, outcome)}
    return {"metrics": metrics, "outcome": outcome, "overhead": overhead(untraced, cycles),
            "dtype": param_dtype(nets),
            "ops": {"setup_train_iterations": iterations,
                    "setup_s": [s[0] for s in setups],
                    "setup_train_s": [s[1] for s in setups],
                    "untraced": cycle_times(untraced), **cycle_times(cycles)}}


# -- per-layer metrics --------------------------------------------------------


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from tracing import target_names

    names = {}
    for target in target_names():
        names[f"{target}.calls"] = "count"
        names[f"{target}.self_ms"] = "ms"
        names[f"{target}.share"] = "fraction"
    names.update({
        "goals.goal_loss.gflop_per_s": "GFLOP/s",
        "evaluate.run_episode.p50_ms": "ms",
        "evaluate.run_episode.p99_ms": "ms",
        "evaluate.distinct_rollout_fraction": "fraction",
        "training.train_gas.sample_share": "fraction",
        "training.train_gas.goal_share": "fraction",
        "training.train_gas.policy_share": "fraction",
        "training.train_gas.optim_share": "fraction",
        "quality.oracle_agreement_r": "fraction",
        "quality.oracle_budget_c": "fraction",
        "quality.sweep_cost_norm_max": "ratio",
        "trace.overhead_pct": "%",
    })
    return names


def per_layer_metrics(tracer, outcome: dict, overhead) -> dict:
    from tracing import target_names

    root_s = tracer.root_seconds() or float("nan")
    values = {}
    for target in target_names():
        values[f"{target}.calls"] = tracer.calls.get(target, 0)
        values[f"{target}.self_ms"] = tracer.self_s.get(target, 0.0) * 1e3
        values[f"{target}.share"] = tracer.self_s.get(target, 0.0) / root_s
    loss_s = tracer.total_s.get("goals.goal_loss", 0.0)
    # inclusive time: the matmuls run in the wrapped nn children of goal_loss
    values["goals.goal_loss.gflop_per_s"] = (
        tracer.goal_flops / loss_s / 1e9 if loss_s and tracer.flops_known else 0.0)
    episodes = tracer.episode_ms
    values["evaluate.run_episode.p50_ms"] = float(np.percentile(episodes, 50)) if episodes else 0.0
    values["evaluate.run_episode.p99_ms"] = float(np.percentile(episodes, 99)) if episodes else 0.0
    distinct = sum(len(points) for points in tracer.episode_points.values())
    values["evaluate.distinct_rollout_fraction"] = distinct / len(episodes) if episodes else 0.0
    train_s = tracer.total_s.get("training.train_gas", 0.0)
    for short, target in (("sample", "dataset.sample_batch"), ("goal", "goals.goal_loss"),
                          ("policy", "policy.policy_loss"), ("optim", "nn.OptimState.apply")):
        inside = tracer.by_parent.get((target, "training.train_gas"), 0.0)
        values[f"training.train_gas.{short}_share"] = inside / train_s if train_s else 0.0
    values["quality.oracle_agreement_r"] = outcome.get("oracle_agreement_r", 0.0)
    values["quality.oracle_budget_c"] = outcome.get("oracle_budget_c", 0.0)
    values["quality.sweep_cost_norm_max"] = outcome.get("sweep_cost_norm_max", 0.0)
    values["trace.overhead_pct"] = 100.0 * overhead if overhead is not None else 0.0
    return values


# -- entry point ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    gas = load_gas()
    if gas is None:
        print(f"error: no gas sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads_at_start, _ = _blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    os.environ.pop("GAS_OUT_DIR", None)  # the CLI would write elsewhere
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / "work"
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    run = Run(tracer)
    spec = WORKLOADS[args.workload]
    workload = eval_workload if args.workload == "eval_sweep" else train_workload
    try:
        with open(out / "cli.log", "w") as log:
            measured = workload(run, gas, spec, args, work, log)
    except Exception:  # any exception is a failed operation; report and stop
        traceback.print_exc()
        run.failed += 1
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics = measured["metrics"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        values = per_layer_metrics(tracer, measured["outcome"], measured["overhead"])
        units = per_layer_names()
        tracer.write(out / "spans.jsonl")
    else:
        values, units = metrics, END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(measured["dtype"], threads_at_start),
        "outcome": {**measured["outcome"], "gate_exit_3": run.gate_exits},
        "ops": measured["ops"], "failures": run.failures,
        "machine_probe_ms": {"median": median(run.probe_ms), "samples": run.probe_ms},
        "end_to_end": metrics,
        "trace_overhead_pct": (None if measured["overhead"] is None
                               else 100.0 * measured["overhead"]),
        "absent_targets": tracer.absent if tracer else [],
        "spans_recorded": len(tracer.spans) if tracer else 0,
        "spans_dropped": tracer.dropped if tracer else 0,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("environment", "outcome", "ops", "machine_probe_ms",
                       "trace_overhead_pct", "absent_targets")}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
