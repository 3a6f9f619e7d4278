"""Command-line driver: configured runs, k-step verification, seed studies.

Commands
--------
run <config.json>      identify an invariant set, write result/history/samples
verify <result.json>   re-certify a finished run over k = 1..k_max map steps
                       (k_max from --kmax, else the run's config.k_max)
study <config.json>    repeat a run over consecutive seeds and aggregate
systems                list built-in systems and their default parameters

A run directory contains config-echo.json, result.json, history.csv,
timings.csv, and samples/iter_####.csv.  Everything except timings.csv is a
pure function of (config, seed): re-running a command with the same inputs
reproduces those files byte for byte.
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
    contraction_init,
    fd_jacobian,
    find_fixed_point,
)
from .rbf import RBFSet
from .systems import SYSTEM_NAMES, build_system

OUTPUT_ROOT_ENV = "INVSET_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


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

# Top-level config keys: (conversion, default).  The values of the nested
# blocks are checked by `_numbers`, then by the classes they configure.
_DEFAULTS = {
    "system": (str, None),
    "system_params": (dict, {}),
    "representation": (str, "ellipsoid"),
    "N": (_INTEGER, 1000),
    "eps_target": (_NUMBER, 0.03),
    "beta": (_NUMBER, 1e-9),
    "max_iters": (_INTEGER, 500),
    "seed": (_INTEGER, 0),
    "init": (dict, {"mode": "contraction", "r": 5.0}),
    "integration": (dict, {}),
    "rbf": (dict, {}),
    "k_max": (_INTEGER, 20),
    "output_dir": (_json(str, "a string"), "invset-run"),
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

    cfg = {
        key: _checked(f"config.{key}", convert, raw.get(key, default))
        for key, (convert, default) in _DEFAULTS.items()
    }
    _require(cfg["system"] in SYSTEM_NAMES, f"system must be one of {SYSTEM_NAMES}")
    settings = (cfg["eps_target"], cfg["beta"], cfg["max_iters"], cfg["representation"])
    _checked("config", check_run_settings, *settings)
    _require(cfg["k_max"] >= 1, "k_max must be >= 1")
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
    _require(cfg["N"] >= dim + 1, f"N must be >= dim + 1 = {dim + 1} for {cfg['system']}")

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
        r = _checked("config.init.r", float, init["r"])
        _require(1.0 < r < np.inf, "contraction init requires a finite r > 1")
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


def _float_cell(value) -> str:
    return repr(float(value))


def _write_history(outdir: Path, history):
    lines = ["iter,volume,violations,epsilon_star"]
    times = ["iter,wall_ms"]
    for rec in history.records:
        lines.append(
            f"{rec.iteration},{_float_cell(rec.volume)},{rec.violations},{_float_cell(rec.epsilon_star)}"
        )
        times.append(f"{rec.iteration},{_float_cell(rec.wall_ms)}")
    (outdir / "history.csv").write_text("\n".join(lines) + "\n")
    (outdir / "timings.csv").write_text("\n".join(times) + "\n")


def _write_samples(outdir: Path, history, dim: int):
    samples_dir = outdir / "samples"
    samples_dir.mkdir(exist_ok=True)
    header = (
        ",".join(f"x{i}" for i in range(dim))
        + ","
        + ",".join(f"y{i}" for i in range(dim))
        + ",contained"
    )
    for rec in history.records:
        if rec.batch is None:
            continue
        rows = [header]
        for xi, yi, flag in zip(rec.batch.inputs, rec.batch.outputs, rec.batch.flags):
            cells = [_float_cell(v) for v in xi] + [_float_cell(v) for v in yi]
            cells.append("1" if flag else "0")
            rows.append(",".join(cells))
        (samples_dir / f"iter_{rec.iteration:04d}.csv").write_text("\n".join(rows) + "\n")


def _set_payload(invariant_set) -> dict:
    if isinstance(invariant_set, Ellipsoid):
        return {"type": "ellipsoid", **invariant_set.to_dict()}
    if isinstance(invariant_set, RBFSet):
        return {"type": "rbf", **invariant_set.to_dict()}
    raise TypeError(f"unsupported set type {type(invariant_set)!r}")


def _set_from_payload(payload: dict):
    kind = payload.get("type") if isinstance(payload, dict) else None
    if kind == "ellipsoid":
        return _checked("invariant_set", Ellipsoid.from_dict, payload)
    if kind == "rbf":
        return _checked("invariant_set", RBFSet.from_dict, payload)
    raise ConfigError(f"unknown invariant set type {kind!r}")


def _build_from_config(cfg: dict, tightened: bool = False):
    options = IntegrationOptions(**cfg["integration"])
    if tightened:
        options = options.tightened()
    return build_system(cfg["system"], cfg["system_params"], options)


def _run_config(cfg: dict, pmap, initial, seed: int, store_samples: bool):
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


def _initial_ellipsoid(cfg: dict):
    """Initial set plus (fixed point, Floquet magnitudes) when linearizing."""
    init = cfg["init"]
    if init["mode"] == "explicit":
        return Ellipsoid.from_dict(init["ellipsoid"]), None, None
    bundle = _build_from_config(cfg, tightened=True)
    seed_point = init.get("fixed_point_seed", bundle.fixed_point_seed)
    fixed_point = find_fixed_point(bundle.poincare_map, np.asarray(seed_point, dtype=float))
    jacobian = fd_jacobian(bundle.poincare_map, fixed_point)
    magnitudes = sorted(np.abs(np.linalg.eigvals(jacobian)), reverse=True)
    initial = contraction_init(jacobian, float(init["r"]), center=fixed_point)
    return initial, fixed_point, [float(v) for v in magnitudes]


def _start(config_path):
    """Load and validate a config, echo it into its output directory, and
    build its system: (config, output directory, system bundle)."""
    cfg = load_config(config_path)
    outdir = _resolve_output_dir(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config-echo.json", cfg)
    return cfg, outdir, _build_from_config(cfg)


def cmd_run(config_path) -> int:
    cfg, outdir, bundle = _start(config_path)
    initial, fixed_point, floquet = _initial_ellipsoid(cfg)
    result = _run_config(cfg, bundle.poincare_map, initial, cfg["seed"], store_samples=True)

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
    _write_json(outdir / "result.json", payload)
    _write_history(outdir, result.history)
    _write_samples(outdir, result.history, bundle.reduced_dim)
    print(
        f"{cfg['system']}: {result.history.termination} after "
        f"{result.history.iterations} iterations, epsilon_star = "
        f"{result.certificate.epsilon_star:.6f} -> {outdir}"
    )
    return EXIT_OK if result.history.termination == "certified" else EXIT_BUDGET


def cmd_verify(result_path, k_max, n_samples: int, seed: int) -> int:
    """k-step verification of a finished run; `k_max` None means the run's
    config.k_max."""
    if k_max is not None and k_max < 1:
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
    bundle = _build_from_config(cfg)
    dim = invariant_set.dim
    _require(dim == bundle.reduced_dim, f"invariant_set has dim {dim}, not {bundle.reduced_dim}")
    if k_max is None:
        k_max = cfg["k_max"]
    records = verify_k_step(
        bundle.poincare_map, invariant_set, n_samples, k_max, float(cfg["beta"]), seed
    )
    lines = ["k,violations,epsilon_star,exits,epsilon_star_exit"]
    for rec in records:
        lines.append(
            f"{rec.steps},{rec.violations},{_float_cell(rec.epsilon_star)},"
            f"{rec.exits},{_float_cell(rec.epsilon_star_exit)}"
        )
    out = result_file.parent / "kstep.csv"
    out.write_text("\n".join(lines) + "\n")
    worst = max(rec.epsilon_star for rec in records)
    print(f"k-step verification: k <= {k_max}, worst epsilon_star = {worst:.6f} -> {out}")
    return EXIT_OK


def cmd_study(config_path, runs: int) -> int:
    if runs < 2:
        raise ConfigError("study needs runs >= 2")
    cfg, outdir, bundle = _start(config_path)
    initial, _, _ = _initial_ellipsoid(cfg)
    outcomes = []
    failures = []
    for offset in range(runs):
        seed = cfg["seed"] + offset
        try:
            result = _run_config(cfg, bundle.poincare_map, initial, seed, store_samples=False)
            outcomes.append((seed, result))
        except CollapseError as exc:
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
            print(f"seed {seed}: failed ({type(exc).__name__})", file=sys.stderr)
    if not outcomes:
        for seed, message in failures:
            print(f"seed {seed}: {message}", file=sys.stderr)
        return EXIT_ERROR

    run_lines = ["seed,termination,iterations,violations,epsilon_star,volume"]
    for seed, result in outcomes:
        vol = result.history.records[result.history.final_iteration - 1].volume
        run_lines.append(
            f"{seed},{result.history.termination},{result.history.iterations},"
            f"{result.certificate.violations},{_float_cell(result.certificate.epsilon_star)},"
            f"{_float_cell(vol)}"
        )
    (outdir / "study_runs.csv").write_text("\n".join(run_lines) + "\n")

    longest = max(result.history.iterations for _, result in outcomes)
    summary = ["iter,accuracy_mean,accuracy_std,volume_mean,volume_std"]
    for index in range(longest):
        accs, vols = [], []
        for _, result in outcomes:
            records = result.history.records
            rec = records[min(index, len(records) - 1)]  # carry the final iterate forward
            accs.append(1.0 - rec.epsilon_star)
            vols.append(rec.volume)
        accs, vols = np.asarray(accs), np.asarray(vols)
        summary.append(
            f"{index + 1},{_float_cell(accs.mean())},{_float_cell(accs.std())},"
            f"{_float_cell(vols.mean())},{_float_cell(vols.std())}"
        )
    (outdir / "study_summary.csv").write_text("\n".join(summary) + "\n")

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
    p_verify.add_argument("--kmax", type=int, help="largest k (default: the run's k_max)")
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
    except CollapseError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnstableLinearization as exc:
        print(
            f"run failed: {exc}\nhint: the fixed point is not attracting; "
            "check the fixed_point_seed or system parameters",
            file=sys.stderr,
        )
        return EXIT_ERROR
    except NoConvergence as exc:
        print(
            f"run failed: {exc}\nhint: provide a better init.fixed_point_seed",
            file=sys.stderr,
        )
        return EXIT_ERROR


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
