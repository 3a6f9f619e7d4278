"""Command-line driver: configured runs, k-step verification, seed studies.

Commands
--------
run <config.json>      identify an invariant set, write result/history/samples
verify <result.json>   re-certify a finished run over k = 1..kmax map steps
                       (--kmax, default 20)
study <config.json>    repeat a run over consecutive seeds and aggregate
systems                list built-in systems and their default parameters

Each file of a run directory has one writing command: `run` writes
config-echo.json, result.json, history.csv, timings.csv and
samples/iter_####.csv (and removes stale iter_*.csv and kstep.csv), `verify`
kstep.csv, and `study` study_config.json, study_runs.csv and study_summary.csv.
Everything except timings.csv is a pure function of (config, seed), and a
command writes its files once it has finished, so one that fails writes
nothing new into its output directory.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .algorithm import CollapseError, RbfOptions, check_run_settings, run, verify_k_step
from .ellipsoid import Ellipsoid
from .hybrid import (
    IntegrationOptions,
    NoConvergence,
    UnstableLinearization,
    check_contraction_scale,
    contraction_init,
    fd_jacobian,
    find_fixed_point,
)
from .rbf import RBFSet, RbfSamplingError
from .systems import SYSTEM_NAMES, build_system

OUTPUT_ROOT_ENV = "INVSET_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


# The exceptions that end a run (or one seed of a study) as `run failed: …`,
# each with its hint, if any.
_RUN_FAILURES = {
    CollapseError: None,
    RbfSamplingError: None,
    UnstableLinearization: "the linearization at the fixed point must be contracting and "
    "diagonalizable; check the fixed_point_seed or system parameters",
    NoConvergence: "provide a better init.fixed_point_seed",
}


class ConfigError(ValueError):
    """Configuration file failed validation."""


def _json(kinds, description):
    """Conversion that accepts only values of `kinds`, never a bool, as given."""

    def check(value):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"expected {description}, got {value!r}")
        return value

    return check


_INTEGER = _json(int, "an integer")
_NUMBER = _json((int, float), "a number")
_TEXT = _json(str, "a string")


def _object(value):
    """A copy of `value` if it is a JSON object: validation fills in its defaults."""
    return dict(_json(dict, "an object")(value))


def _numbers(value):
    """`value` as given if it is a JSON number, never a bool or a string, or a
    list or object of such."""
    if isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _numbers(item)
        return value
    return _NUMBER(value)


# The nested blocks whose every value is numeric, bar the named text keys.
_NUMERIC_BLOCKS = {"system_params": (), "integration": ("method",), "rbf": (), "init": ("mode",)}

# Top-level config keys: (JSON type check, default).  The values of the
# nested blocks are checked by `_numbers`, then by the classes they configure.
_DEFAULTS = {
    "system": (_TEXT, None),
    "system_params": (_object, {}),
    "representation": (_TEXT, "ellipsoid"),
    "N": (_INTEGER, 1000),
    "eps_target": (_NUMBER, 0.03),
    "beta": (_NUMBER, 1e-9),
    "max_iters": (_INTEGER, 500),
    "seed": (_INTEGER, 0),
    "init": (_object, {"mode": "contraction"}),
    "integration": (_object, {}),
    "rbf": (_object, {}),
    "output_dir": (_TEXT, "invset-run"),
}


def _reject_unknown(mapping, allowed, path):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {path}")


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _checked(path, fn, *args, **kwargs):
    """`fn(*args, **kwargs)` on the value at `path`, raising ConfigError for
    the KeyError, TypeError or ValueError of a malformed value."""
    try:
        return fn(*args, **kwargs)
    except KeyError as exc:
        raise ConfigError(f"{path} is missing the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> dict:
    """Parse and validate a run configuration file, filling in defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return validate_config(raw)


def validate_config(raw) -> dict:
    """Validate a parsed run configuration, filling in defaults."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _reject_unknown(raw, set(_DEFAULTS), "config")
    _require(raw.get("system") in SYSTEM_NAMES, f"system must be one of {SYSTEM_NAMES}")

    cfg = {
        key: _checked(f"config.{key}", convert, raw.get(key, default))
        for key, (convert, default) in _DEFAULTS.items()
    }
    for block, text_keys in _NUMERIC_BLOCKS.items():
        for key, value in cfg[block].items():
            if key not in text_keys:
                _checked(f"config.{block}.{key}", _numbers, value)

    options = _checked("config.integration", IntegrationOptions, **cfg["integration"])
    cfg["integration"] = dataclasses.asdict(options)
    cfg["rbf"] = dataclasses.asdict(_checked("config.rbf", RbfOptions, **cfg["rbf"]))
    bundle = _checked(
        "config.system_params", build_system, cfg["system"], cfg["system_params"], options
    )
    dim = bundle.reduced_dim
    settings = (cfg["eps_target"], cfg["beta"], cfg["max_iters"], cfg["representation"])
    _checked("config", check_run_settings, cfg["N"], dim, *settings)

    init = cfg["init"]
    mode = init.get("mode")
    if mode == "explicit":
        _reject_unknown(init, {"mode", "ellipsoid"}, "config.init")
        _require("ellipsoid" in init, "explicit init requires an 'ellipsoid' block")
        initial = _checked("config.init.ellipsoid", Ellipsoid.from_dict, init["ellipsoid"])
        _require(initial.dim == dim, f"config.init.ellipsoid has dim {initial.dim}, not {dim}")
    elif mode == "contraction":
        _reject_unknown(init, {"mode", "r", "fixed_point_seed"}, "config.init")
        init.setdefault("r", 5.0)
        _checked("config.init.r", check_contraction_scale, init["r"])
        seed_point = _checked(
            "config.init.fixed_point_seed",
            np.asarray,
            init.get("fixed_point_seed", bundle.fixed_point_seed),
            dtype=float,
        )
        _require(
            seed_point.shape == (dim,) and np.isfinite(seed_point).all(),
            f"config.init.fixed_point_seed needs {dim} finite numbers",
        )
    else:
        raise ConfigError("config.init.mode must be 'explicit' or 'contraction'")
    return cfg


def _resolve_output_dir(cfg_dir: str) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    path = Path(cfg_dir)
    return path if path.is_absolute() else root / path


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows):
    """Write the `header` line, then each row's cells joined by commas.

    Rows hold Python scalars (int, float, str), never NumPy ones: a float
    cell is `str(float)`, its shortest repr, which `float(cell)` reads back
    bit for bit; a flag is the int 0 or 1.
    """
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _write_history(outdir: Path, history):
    records = history.records
    rows = [(r.iteration, float(r.volume), r.violations, r.epsilon_star) for r in records]
    _write_csv(outdir / "history.csv", "iter,volume,violations,epsilon_star", rows)
    _write_csv(outdir / "timings.csv", "iter,wall_ms", [(r.iteration, r.wall_ms) for r in records])


def _write_samples(outdir: Path, history, dim: int):
    samples_dir = outdir / "samples"
    samples_dir.mkdir(exist_ok=True)
    header = ",".join([*(f"x{i}" for i in range(dim)), *(f"y{i}" for i in range(dim)), "contained"])
    for rec in history.records:
        pairs = np.hstack((rec.batch.inputs, rec.batch.outputs)).tolist()
        rows = [[*pair, int(flag)] for pair, flag in zip(pairs, rec.batch.flags.tolist())]
        _write_csv(samples_dir / f"iter_{rec.iteration:04d}.csv", header, rows)


# The "type" of an invariant set in result.json.
_SET_TYPES = {"ellipsoid": Ellipsoid, "rbf": RBFSet}


def _set_payload(invariant_set) -> dict:
    (kind,) = (name for name, cls in _SET_TYPES.items() if isinstance(invariant_set, cls))
    return {"type": kind, **invariant_set.to_dict()}


def _set_from_payload(payload: dict):
    kind = payload.get("type") if isinstance(payload, dict) else None
    cls = _SET_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown invariant set type {kind!r}")
    _checked("invariant_set", _numbers, {k: v for k, v in payload.items() if k != "type"})
    return _checked("invariant_set", cls.from_dict, payload)


def prepare(cfg: dict):
    """(system bundle, initial set, fixed point, Jacobian) of a validated config; a
    contraction init finds the last two at tightened tolerances, else they are None."""
    options = IntegrationOptions(**cfg["integration"])
    bundle = build_system(cfg["system"], cfg["system_params"], options)
    init = cfg["init"]
    if init["mode"] == "explicit":
        return bundle, Ellipsoid.from_dict(init["ellipsoid"]), None, None
    tight = build_system(cfg["system"], cfg["system_params"], options.tightened()).poincare_map
    seed_point = np.asarray(init.get("fixed_point_seed", bundle.fixed_point_seed), dtype=float)
    fixed_point = find_fixed_point(tight, seed_point)
    jacobian = fd_jacobian(tight, fixed_point)
    initial = contraction_init(jacobian, float(init["r"]), center=fixed_point)
    return bundle, initial, fixed_point, jacobian


def run_config(cfg: dict, pmap, initial, seed: int, store_samples: bool):
    """`algorithm.run` from `initial` under a validated config's run settings."""
    return run(
        pmap,
        initial,
        cfg["N"],
        cfg["eps_target"],
        cfg["beta"],
        cfg["max_iters"],
        seed,
        representation=cfg["representation"],
        rbf_options=RbfOptions(**cfg["rbf"]),
        store_samples=store_samples,
    )


def _start(config_path):
    """Load and validate a config and create its output directory, writing
    nothing into it: (config, output directory)."""
    cfg = load_config(config_path)
    outdir = _resolve_output_dir(cfg["output_dir"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {outdir}: {exc}") from exc
    return cfg, outdir


def cmd_run(config_path) -> int:
    cfg, outdir = _start(config_path)
    bundle, initial, fixed_point, jacobian = prepare(cfg)
    result = run_config(cfg, bundle.poincare_map, initial, cfg["seed"], store_samples=True)
    floquet = None
    if jacobian is not None:
        floquet = [float(v) for v in sorted(np.abs(np.linalg.eigvals(jacobian)), reverse=True)]

    payload = {
        "system": cfg["system"],
        "representation": cfg["representation"],
        "termination": result.history.termination,
        "iterations": result.history.iterations,
        "invariant_set": _set_payload(result.invariant_set),
        "certificate": result.certificate.to_dict(),
        "initial_set": _set_payload(initial),
        "fixed_point": None if fixed_point is None else [float(v) for v in fixed_point],
        "floquet_magnitudes": floquet,
        "config": cfg,
    }
    for stale in [*outdir.glob("samples/iter_*.csv"), outdir / "kstep.csv"]:
        stale.unlink(missing_ok=True)  # left by a longer run or by verify
    _write_json(outdir / "config-echo.json", cfg)
    _write_json(outdir / "result.json", payload)
    _write_history(outdir, result.history)
    _write_samples(outdir, result.history, bundle.reduced_dim)
    print(
        f"{cfg['system']}: {result.history.termination} after "
        f"{result.history.iterations} iterations, epsilon_star = "
        f"{result.certificate.epsilon_star:.6f} -> {outdir}"
    )
    return EXIT_OK if result.history.termination == "certified" else EXIT_BUDGET


def cmd_verify(result_path, k_max: int, n_samples: int, seed: int) -> int:
    """k-step verification of a finished run over k = 1..k_max."""
    if k_max < 1:
        raise ConfigError(f"--kmax must be >= 1, got {k_max}")
    if n_samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {n_samples}")
    result_file = Path(result_path)
    try:
        payload = json.loads(result_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load result file {result_path}: {exc}") from exc
    _require(isinstance(payload, dict), f"result file {result_path} is not a JSON object")
    for key in ("config", "invariant_set"):
        if key not in payload:
            raise ConfigError(f"result file {result_path} is missing '{key}'")
    cfg = validate_config(payload["config"])
    missing = sorted(set(_DEFAULTS) - set(payload["config"]))
    if missing:
        raise ConfigError(f"the config in {result_path} is missing {missing}")
    invariant_set = _set_from_payload(payload["invariant_set"])
    options = IntegrationOptions(**cfg["integration"])
    bundle = build_system(cfg["system"], cfg["system_params"], options)
    dim = invariant_set.dim
    _require(dim == bundle.reduced_dim, f"invariant_set has dim {dim}, not {bundle.reduced_dim}")
    records = verify_k_step(
        bundle.poincare_map, invariant_set, n_samples, k_max, float(cfg["beta"]), seed
    )
    rows = [(r.steps, r.violations, r.epsilon_star, r.exits, r.epsilon_star_exit) for r in records]
    out = result_file.parent / "kstep.csv"
    _write_csv(out, "k,violations,epsilon_star,exits,epsilon_star_exit", rows)
    worst = max(rec.epsilon_star for rec in records)
    print(f"k-step verification: k <= {k_max}, worst epsilon_star = {worst:.6f} -> {out}")
    return EXIT_OK


def cmd_study(config_path, runs: int) -> int:
    if runs < 2:
        raise ConfigError("study needs runs >= 2")
    cfg, outdir = _start(config_path)
    bundle, initial, _, _ = prepare(cfg)
    outcomes = []
    failures = []
    for offset in range(runs):
        seed = cfg["seed"] + offset
        try:
            result = run_config(cfg, bundle.poincare_map, initial, seed, store_samples=False)
            outcomes.append((seed, result))
        except tuple(_RUN_FAILURES) as exc:
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
            print(f"seed {seed}: failed ({type(exc).__name__})", file=sys.stderr)
    if not outcomes:
        for seed, message in failures:
            print(f"seed {seed}: {message}", file=sys.stderr)
        return EXIT_ERROR

    run_rows = []
    for seed, result in outcomes:
        history, cert = result.history, result.certificate
        volume = float(history.records[history.final_iteration - 1].volume)
        run_rows.append(
            (seed, history.termination, history.iterations, cert.violations, cert.epsilon_star,
             volume)
        )
    summary_rows = []
    for index in range(max(result.history.iterations for _, result in outcomes)):
        # a run shorter than `index + 1` iterations carries its final iterate forward
        recs = [r.history.records[min(index, len(r.history.records) - 1)] for _, r in outcomes]
        accs = np.asarray([1.0 - rec.epsilon_star for rec in recs])
        vols = np.asarray([rec.volume for rec in recs])
        stats = (accs.mean(), accs.std(), vols.mean(), vols.std())
        summary_rows.append((index + 1, *map(float, stats)))
    _write_json(outdir / "study_config.json", cfg)
    header = "seed,termination,iterations,violations,epsilon_star,volume"
    _write_csv(outdir / "study_runs.csv", header, run_rows)
    header = "iter,accuracy_mean,accuracy_std,volume_mean,volume_std"
    _write_csv(outdir / "study_summary.csv", header, summary_rows)

    mean_iters = float(np.mean([result.history.iterations for _, result in outcomes]))
    print(
        f"study: {len(outcomes)}/{runs} runs completed, mean iterations "
        f"{mean_iters:.2f} -> {outdir}"
    )
    if failures or any(r.history.termination != "certified" for _, r in outcomes):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_systems() -> int:
    for name in SYSTEM_NAMES:
        bundle = build_system(name)
        params = dataclasses.asdict(bundle.params)
        rendered = json.dumps(
            {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in params.items()}
        )
        print(f"{name} (reduced dim {bundle.reduced_dim}): {rendered}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="invset",
        description="Finite-step invariant sets for return maps with PAC certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the identification pipeline from a config file")
    p_run.add_argument("config")

    p_verify = sub.add_parser("verify", help="k-step verification of a finished run")
    p_verify.add_argument("result")
    p_verify.add_argument("--kmax", type=int, default=20, help="largest k (default: 20)")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)

    p_study = sub.add_parser("study", help="repeat a run over consecutive seeds")
    p_study.add_argument("config")
    p_study.add_argument("--runs", type=int, default=10)

    sub.add_parser("systems", help="list built-in systems with default parameters")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "verify":
            return cmd_verify(args.result, args.kmax, args.samples, args.seed)
        if args.command == "study":
            return cmd_study(args.config, args.runs)
        return cmd_systems()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except tuple(_RUN_FAILURES) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        hint = next(text for cls, text in _RUN_FAILURES.items() if isinstance(exc, cls))
        if hint:
            print(f"hint: {hint}", file=sys.stderr)
        return EXIT_ERROR


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
