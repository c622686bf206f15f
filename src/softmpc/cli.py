"""Command line entry point: data generation, training, certification,
simulation and the end-to-end pipeline.

Timing lives in the benchmark harness, perfbench/run.py, which drives the
closed loop and the offline labeling through this package's public API.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_CONTROLLER = 4
EXIT_SOLVER = 5


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str, code: int):
        super().__init__(f"[{stage}] {message}")
        self.code = code


def _load_config(path: str):
    from .simkit import load_scenario
    try:
        return load_scenario(path)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        raise StageError("config", str(exc), EXIT_CONFIG)


def _mode_by_name(config, name: str):
    for mode, kind, model_file in config.mode_specs:
        if mode.name.upper() == name.upper():
            return mode, kind, model_file
    raise StageError("config", f"mode {name} not defined in the config",
                     EXIT_CONFIG)


def cmd_gen_data(args) -> int:
    from .oracle import generate_dataset, save_dataset, LonSampler, LatSampler
    from .simkit import scenario_template
    config = _load_config(args.config)
    mode, kind, _ = _mode_by_name(config, args.mode)
    template = scenario_template(config, kind)
    count = args.count or config.data_counts.get(mode.name.upper(), 500)
    sampler = LonSampler() if kind == "lon" else LatSampler()
    t0 = time.perf_counter()
    rows, balance = generate_dataset(template, mode, count, args.seed,
                                     sampler=sampler, workers=args.workers)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_dataset(rows, args.out, template, mode, args.seed, balance, sampler)
    print(f"gen-data {mode.name}: {count} samples, "
          f"{balance:.2%} feasible, {time.perf_counter() - t0:.1f}s -> {args.out}")
    if balance in (0.0, 1.0):
        print("warning: single-class dataset; classifier training will fail",
              file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    from .oracle import load_dataset
    from .surrogate import LipschitzBudget, max_state_step, save_model, train_mode_model
    config = _load_config(args.config)
    mode, kind, _ = _mode_by_name(config, args.mode)
    thetas, feasible, slacks = load_dataset(args.data)
    kw = config.surrogate_kw
    dist_key = "max_disturbance_lon" if kind == "lon" else "max_disturbance_lat"
    max_dist = float(kw.get(dist_key, 40.0))
    step_bound = float(kw.get("max_state_step", 0.0))
    if step_bound <= 0.0:
        step_bound = max_state_step(config.params, config.horizon,
                                    config.params.v_max,
                                    n_samples=20_000, seed=args.seed)
    budget = LipschitzBudget(max_disturbance=max_dist,
                             max_state_step=step_bound,
                             ceilings=mode.ceiling_vector())
    slacks_f = np.where(np.isnan(slacks), 0.0, slacks)
    t0 = time.perf_counter()
    model = train_mode_model(
        mode.name, mode.channels, mode.ceiling_vector(), thetas, feasible,
        slacks_f, budget, hidden=tuple(kw.get("hidden", (64, 64))),
        epochs=int(kw.get("epochs", 2000)), seed=args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_model(model, args.out)
    hist = model.train_history
    print(f"train {mode.name}: eps={model.eps:.4g} "
          f"threshold={model.threshold:.3g} "
          f"val-acc={hist['classifier']['accuracy_val']:.3f} "
          f"{time.perf_counter() - t0:.1f}s -> {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .surrogate import certify, load_model
    try:
        model = load_model(args.model)
    except (FileNotFoundError, ValueError) as exc:
        raise StageError("certify", str(exc), EXIT_CONFIG)
    report = certify(model, n_pairs=args.pairs, seed=args.seed)
    print(json.dumps(report, indent=1, sort_keys=True))
    if not report["certified"] or not report.get("sampled_within_bound", True):
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simkit import emit_plots, metrics, run, write_decision_log, write_log_csv
    config = _load_config(args.config)
    log = run(config, use_oracle=args.oracle)
    os.makedirs(args.out, exist_ok=True)
    write_log_csv(log, os.path.join(args.out, f"{config.name}_traj.csv"))
    write_decision_log(log, os.path.join(args.out, f"{config.name}_decisions.jsonl"))
    emit_plots(log, args.out, config.name, config)
    m = metrics(log)
    with open(os.path.join(args.out, f"{config.name}_metrics.json"), "w") as fh:
        json.dump(m, fh, indent=1, sort_keys=True)
    print(json.dumps(m, indent=1, sort_keys=True))
    if log.failed and not args.allow_failure:
        return EXIT_CONTROLLER
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """gen-data -> train -> certify -> simulate -> plots for every mode."""
    from types import SimpleNamespace
    config = _load_config(args.config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    data_dir = os.path.join(out, "data")
    model_dir = os.path.join(out, "models")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(model_dir, exist_ok=True)

    try:
        for mode, kind, _ in config.mode_specs:
            data_file = os.path.join(data_dir, f"{mode.name.lower()}.csv")
            rc = cmd_gen_data(SimpleNamespace(
                config=args.config, mode=mode.name, out=data_file,
                count=args.count, seed=args.seed, workers=args.workers))
            if rc != EXIT_OK:
                raise StageError("gen-data", f"mode {mode.name}", rc)
        model_files = {}
        for mode, kind, _ in config.mode_specs:
            data_file = os.path.join(data_dir, f"{mode.name.lower()}.csv")
            model_file = os.path.join(model_dir, f"{mode.name.lower()}.json")
            rc = cmd_train(SimpleNamespace(
                config=args.config, mode=mode.name, data=data_file,
                out=model_file, seed=args.seed))
            if rc != EXIT_OK:
                raise StageError("train", f"mode {mode.name}", rc)
            model_files[mode.name] = model_file
        for mode, kind, _ in config.mode_specs:
            rc = cmd_certify(SimpleNamespace(
                model=model_files[mode.name], pairs=args.pairs, seed=args.seed))
            if rc != EXIT_OK:
                raise StageError("certify", f"mode {mode.name}",
                                 EXIT_CERTIFICATION)
        # simulate with the freshly trained models
        config2 = _load_config(args.config)
        config2.mode_specs = [
            (mode, kind, model_files[mode.name])
            for mode, kind, _ in config2.mode_specs]
        from .simkit import emit_plots, metrics, run, write_decision_log, write_log_csv
        log = run(config2, use_oracle=False)
        write_log_csv(log, os.path.join(out, f"{config2.name}_traj.csv"))
        write_decision_log(log, os.path.join(out, f"{config2.name}_decisions.jsonl"))
        emit_plots(log, out, config2.name, config2)
        with open(os.path.join(out, f"{config2.name}_metrics.json"), "w") as fh:
            json.dump(metrics(log), fh, indent=1, sort_keys=True)
        if log.failed:
            raise StageError("simulate", "controller reported failure",
                             EXIT_CONTROLLER)
    except StageError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise StageError("pipeline", repr(exc), EXIT_SOLVER)
    print(f"pipeline complete -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softmpc",
        description="Priority-driven soft-constrained MPC toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="label slack samples with the oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit the surrogate pair for one mode")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="check the Lipschitz certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="closed-loop scenario run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use oracle feasibility instead of the surrogates")
    p.add_argument("--allow-failure", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="gen-data, train, certify, simulate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pairs", type=int, default=20_000)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
