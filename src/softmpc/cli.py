"""Command line entry point: data generation, training, certification,
simulation and the end-to-end pipeline.

Timing lives in the benchmark harness, perfbench/run.py, which drives the
closed loop and the offline labeling through this package's public API.
"""
from __future__ import annotations

import argparse
import configparser
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
    except (FileNotFoundError, ValueError, configparser.Error) as exc:
        raise StageError("config", str(exc), EXIT_CONFIG)


def _read_file(kind: str, filename: str, load):
    """load(filename); a file that cannot be read is a [config] error."""
    try:
        return load(filename)
    except (OSError, ValueError, KeyError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise StageError("config", f"{kind} file {filename!r}: {detail}",
                         EXIT_CONFIG) from None


def _mode_by_name(config, name: str):
    for mode, kind, model_file in config.mode_specs:
        if mode.name.upper() == name.upper():
            return mode, kind, model_file
    raise StageError("config", f"mode {name} not defined in the config",
                     EXIT_CONFIG)


def cmd_gen_data(args) -> int:
    from .oracle import generate_dataset, save_dataset, sidecar_path
    from .simkit import scenario_template
    if os.path.abspath(sidecar_path(args.out)) == os.path.abspath(args.out):
        raise StageError("config", f"--out {args.out!r}: the dataset's .json "
                         "metadata sidecar would overwrite it; give the "
                         "dataset another extension, such as .csv",
                         EXIT_CONFIG)
    config = _load_config(args.config)
    mode, kind, _ = _mode_by_name(config, args.mode)
    template = scenario_template(config, kind)
    count = args.count or config.data_counts.get(mode.name.upper(), 500)
    t0 = time.perf_counter()
    rows, balance = generate_dataset(template, mode, count, args.seed,
                                     workers=args.workers)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_dataset(rows, args.out, template, mode, args.seed, balance)
    print(f"gen-data {mode.name}: {count} samples, "
          f"{balance:.2%} feasible, {time.perf_counter() - t0:.1f}s -> {args.out}")
    if balance in (0.0, 1.0):
        print("warning: single-class dataset; classifier training will fail",
              file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    from .oracle import load_dataset
    from .simkit import SURROGATE_DEFAULTS
    from .surrogate import LipschitzBudget, max_state_step, save_model, train_mode_model
    config = _load_config(args.config)
    mode, kind, _ = _mode_by_name(config, args.mode)
    thetas, feasible, slacks = _read_file("data", args.data, load_dataset)
    kw = {**SURROGATE_DEFAULTS, **config.surrogate_kw}
    step_bound = max_state_step(config.params, config.horizon,
                                config.params.v_max, n_samples=20_000,
                                seed=args.seed)
    budget = LipschitzBudget(max_disturbance=kw[f"max_disturbance_{kind}"],
                             max_state_step=step_bound,
                             ceilings=mode.ceiling_vector())
    slacks_f = np.where(np.isnan(slacks), 0.0, slacks)
    t0 = time.perf_counter()
    try:
        model = train_mode_model(
            mode.name, mode.channels, mode.ceiling_vector(), thetas, feasible,
            slacks_f, budget, epochs=kw["epochs"], seed=args.seed)
    except ValueError as exc:    # a dataset the surrogates cannot learn
        raise StageError("config", f"data file {args.data!r}: {exc}",
                         EXIT_CONFIG) from None
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
    model = _read_file("model", args.model, load_model)
    report = certify(model, n_pairs=args.pairs, seed=args.seed)
    print(json.dumps(report, indent=1, sort_keys=True))
    if not report["certified"] or not report.get("sampled_within_bound", True):
        return EXIT_CERTIFICATION
    return EXIT_OK


def _write_outputs(log, out: str, config) -> dict:
    """Trajectory CSV, decision log, plots and metrics JSON of one run;
    returns the metrics."""
    from .simkit import emit_plots, metrics, write_decision_log, write_log_csv
    write_log_csv(log, os.path.join(out, f"{config.name}_traj.csv"))
    write_decision_log(log, os.path.join(out, f"{config.name}_decisions.jsonl"))
    emit_plots(log, out, config.name, config)
    m = metrics(log)
    with open(os.path.join(out, f"{config.name}_metrics.json"), "w") as fh:
        json.dump(m, fh, indent=1, sort_keys=True)
    return m


def cmd_simulate(args) -> int:
    from .controller import ModelError
    from .simkit import run
    config = _load_config(args.config)
    try:
        log = run(config, use_oracle=args.oracle)
    except ModelError as exc:    # raised before the first cycle
        raise StageError("config", str(exc), EXIT_CONFIG)
    os.makedirs(args.out, exist_ok=True)
    m = _write_outputs(log, args.out, config)
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
    modes = [mode.name for mode, _, _ in config.mode_specs]
    data = {m: os.path.join(out, "data", f"{m.lower()}.csv") for m in modes}
    models = {m: os.path.join(out, "models", f"{m.lower()}.json") for m in modes}

    try:
        for m in modes:
            cmd_gen_data(SimpleNamespace(
                config=args.config, mode=m, out=data[m], count=args.count,
                seed=args.seed, workers=args.workers))
        for m in modes:
            cmd_train(SimpleNamespace(config=args.config, mode=m, data=data[m],
                                      out=models[m], seed=args.seed))
        for m in modes:
            if cmd_certify(SimpleNamespace(model=models[m], pairs=args.pairs,
                                           seed=args.seed)) != EXIT_OK:
                raise StageError("certify", f"mode {m}", EXIT_CERTIFICATION)
        # simulate with the freshly trained models
        config.mode_specs = [(mode, kind, models[mode.name])
                             for mode, kind, _ in config.mode_specs]
        from .simkit import run
        log = run(config, use_oracle=False)
        _write_outputs(log, out, config)
        if log.failed:
            raise StageError("simulate", "controller reported failure",
                             EXIT_CONTROLLER)
    except StageError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise StageError("pipeline", repr(exc), EXIT_SOLVER)
    print(f"pipeline complete -> {out}")
    return EXIT_OK


def _int_at_least(text: str, low: int) -> int:
    if int(text) < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
    return int(text)


def positive_int(text: str) -> int:
    """A --count, --workers or --pairs value: an integer of at least 1."""
    return _int_at_least(text, 1)


def seed_int(text: str) -> int:
    """A --seed value: an integer of at least 0, as numpy's generators take."""
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softmpc",
        description="Priority-driven soft-constrained MPC toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="label slack samples with the oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--count", type=positive_int, default=None)
    p.add_argument("--seed", type=seed_int, default=7)
    p.add_argument("--workers", type=positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit the surrogate pair for one mode")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=seed_int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="check the Lipschitz certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", type=positive_int, default=100_000)
    p.add_argument("--seed", type=seed_int, default=7)
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
    p.add_argument("--count", type=positive_int, default=None)
    p.add_argument("--seed", type=seed_int, default=7)
    p.add_argument("--pairs", type=positive_int, default=20_000)
    p.add_argument("--workers", type=positive_int, default=None)
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
