import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import invset
from invset.algorithm import RbfOptions
from invset.cli import _DEFAULTS, EXIT_BUDGET, EXIT_ERROR, EXIT_OK, ConfigError, load_config, main
from invset.hybrid import IntegrationOptions
from invset.pac import binomial_tail_inversion

CEC_INIT = {
    "mode": "explicit",
    "ellipsoid": {
        "dim": 2,
        "A": [1 / math.sqrt(10), 0.0, 0.0, 1 / math.sqrt(10)],
        "b": [0.0, 0.0],
    },
}


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "system": "cec",
        "representation": "ellipsoid",
        "N": 500,
        "eps_target": 0.05,
        "beta": 1e-6,
        "max_iters": 50,
        "seed": 0,
        "init": CEC_INIT,
        "output_dir": str(path / "out"),
    }
    cfg.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(cfg, indent=2))
    return file


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        file = write_config(tmp_path)
        raw = json.loads(file.read_text())
        raw["samples"] = 10
        file.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="samples"):
            load_config(file)

    def test_invalid_beta_exits_one(self, tmp_path, capsys):
        file = write_config(tmp_path, beta=1.5)
        assert main(["run", str(file)]) == EXIT_ERROR
        assert "beta" in capsys.readouterr().err

    def test_json_error_reports_line(self, tmp_path):
        file = tmp_path / "broken.json"
        file.write_text('{"system": "cec",,}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(file)

    def test_unknown_system(self, tmp_path):
        file = write_config(tmp_path, system="lorenz")
        with pytest.raises(ConfigError, match="system"):
            load_config(file)

    def test_unknown_integration_key(self, tmp_path):
        file = write_config(tmp_path, integration={"steps": 5})
        with pytest.raises(ConfigError, match="integration"):
            load_config(file)

    def test_rbf_coverage_key_is_rejected(self, tmp_path):
        # the sampling box pads by the set's own reach; there is no coverage to set
        file = write_config(tmp_path, rbf={"coverage": 4.0})
        with pytest.raises(ConfigError, match="coverage"):
            load_config(file)

    def test_init_validation(self, tmp_path):
        file = write_config(tmp_path, init={"mode": "guess"})
        with pytest.raises(ConfigError, match="mode"):
            load_config(file)

    def test_value_of_the_wrong_type(self, tmp_path):
        file = write_config(tmp_path, N="many")
        with pytest.raises(ConfigError, match="many"):
            load_config(file)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"init": {"mode": "contraction", "r": "abc"}},
            {"init": {"mode": "contraction", "r": math.inf}},
            {"init": {"mode": "contraction", "fixed_point_seed": [1.0, 1.0, 1.0]}},
            {"rbf": {"m": "x"}},
            {"rbf": {"gamma": "x"}},
            {"representation": "rbf", "rbf": {"m": 2, "gamma": 3.0}},
            {"integration": {"rel_tol": "x"}},
            {"system_params": {"bogus": 1}},
            {"system_params": {"c": [1.0]}},
            {"init": {"mode": "explicit", "ellipsoid": {"dim": 1, "A": [1.0], "b": [0.0]}}},
            {"integration": {"rel_tol": math.nan}},
            {"N": 2},
            {"output_dir": 5},
            {"system": "nec", "system_params": {"r": math.nan}},
            {"N": 1000.9},
            {"seed": True},
            {"max_iters": "7"},
            {"k_max": 2.5},
            {"eps_target": "0.05"},
            {"representation": "voxel"},
            {"max_iters": 0},
            {"system": "compass_gait", "init": {"mode": "contraction", "r": "6"}},
            {
                "system": "compass_gait",
                "init": {"mode": "contraction", "fixed_point_seed": ["0.2", "-1.8", "-1.5"]},
            },
            {"system_params": {"c": ["1", "2"]}},
            {"integration": {"rel_tol": True}},
            {"rbf": {"gamma": True}},
            {"init": {"mode": "explicit", "ellipsoid": {**CEC_INIT["ellipsoid"], "dim": "2"}}},
        ],
        ids=[
            "init.r", "init.r-inf", "init.fixed_point_seed",
            "rbf.m", "rbf.gamma", "rbf.gamma-above-m", "integration.rel_tol", "system_params-unknown", "system_params-shape",
            "init.ellipsoid-dim", "integration.rel_tol-nan", "N-below-dim-plus-one", "output_dir-not-a-string",
            "system_params-nan", "N-float", "seed-bool", "max_iters-string", "k_max-float",
            "eps_target-string", "representation-unknown", "max_iters-zero",
            "init.r-string", "init.fixed_point_seed-strings", "system_params-strings",
            "integration.rel_tol-bool", "rbf.gamma-bool", "init.ellipsoid-dim-string",
        ],
    )
    def test_bad_nested_value_fails_before_any_output(self, tmp_path, capsys, overrides):
        file = write_config(tmp_path, **overrides)
        assert main(["run", str(file)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "config-echo.json").exists()

    def test_only_the_rk45_method_exists(self, tmp_path):
        # rk45, the batched engine's Dormand-Prince 5(4) pair, is the only method
        with pytest.raises(ValueError, match="dop853"):
            IntegrationOptions(method="dop853")
        file = write_config(tmp_path, integration={"method": "dop853"})
        with pytest.raises(ConfigError, match="dop853"):
            load_config(file)


def _kept(given, echoed) -> bool:
    """Every value of `given` appears, with its type, in `echoed`."""
    if isinstance(given, dict):
        return isinstance(echoed, dict) and all(
            key in echoed and _kept(value, echoed[key]) for key, value in given.items()
        )
    return type(given) is type(echoed) and given == echoed


@pytest.mark.parametrize(
    "config", sorted(Path(__file__).parent.parent.glob("configs/*.json")), ids=lambda p: p.stem
)
def test_shipped_config_loads_and_its_echo_keeps_its_values(config):
    echo = json.loads(json.dumps(load_config(config)))
    assert _kept(json.loads(config.read_text()), echo)


def test_readme_config_block_lists_the_accepted_keys():
    # the README's annotated config shows every key, in the order of the echo
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    shown = json.loads(re.sub(r"//.*", "", block))
    assert list(shown) == list(_DEFAULTS)
    assert list(shown["integration"]) == [f.name for f in dataclasses.fields(IntegrationOptions)]
    assert list(shown["rbf"]) == [f.name for f in dataclasses.fields(RbfOptions)]


def _subprocess_env(**extra):
    """The environment of a child interpreter that imports this package."""
    src = str(Path(invset.__file__).resolve().parents[1])
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        **extra,
    }


def _modules_after_import(select):
    """Sorted names of loaded modules matching the expression `select` (of
    `m`) after importing the package, its CLI and its systems afresh."""
    code = (
        "import sys, invset, invset.cli, invset.systems\n"
        f"print(sorted(m for m in sys.modules if {select}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120, env=_subprocess_env(),
    )
    return done.stdout.strip()


def run_cli_with_blas_threads(args, threads: int) -> int:
    """Exit code of `python -m invset.cli *args` in a fresh interpreter whose
    OpenBLAS and OpenMP pools have `threads` threads (a pool's size is fixed
    when the interpreter loads it)."""
    env = _subprocess_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    done = subprocess.run(
        [sys.executable, "-m", "invset.cli", *map(str, args)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    return done.returncode


def test_one_engine_without_scipy_integrate_or_process_pool():
    # every return map runs on the batched engine, in this process
    assert _modules_after_import("m == 'scipy.integrate' or m == 'concurrent.futures.process'") == "[]"


def test_import_leaves_scipy_optimize_out():
    # the engine's root finder is its own; fit_rbf imports scipy.optimize when called
    assert _modules_after_import("m == 'scipy.optimize'") == "[]"


class TestRunCommand:
    def test_cec_run_outputs(self, tmp_path):
        file = write_config(tmp_path)
        assert main(["run", str(file)]) == EXIT_OK
        out = tmp_path / "out"
        result = json.loads((out / "result.json").read_text())
        assert result["termination"] == "certified"
        assert result["certificate"]["epsilon_star"] <= 0.05
        assert result["certificate"]["beta"] == 1e-6
        assert (out / "config-echo.json").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iter,volume,violations,epsilon_star"
        assert len(history) == result["iterations"] + 1
        samples = sorted((out / "samples").glob("iter_*.csv"))
        assert len(samples) == result["iterations"]
        header = samples[0].read_text().splitlines()[0]
        assert header == "x0,x1,y0,y1,contained"

    def test_history_epsilon_recomputes(self, tmp_path):
        file = write_config(tmp_path)
        main(["run", str(file)])
        cfg = json.loads(file.read_text())
        for line in (tmp_path / "out" / "history.csv").read_text().splitlines()[1:]:
            _, _, violations, eps = line.split(",")
            assert float(eps) == binomial_tail_inversion(int(violations), cfg["N"], cfg["beta"])

    def test_budget_exit_code(self, tmp_path):
        file = write_config(tmp_path, eps_target=0.0005, max_iters=3)
        assert main(["run", str(file)]) == EXIT_BUDGET
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["termination"] == "budget"

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INVSET_OUTPUT_ROOT", str(tmp_path / "root"))
        file = write_config(tmp_path, output_dir="rel/run1")
        assert main(["run", str(file)]) == EXIT_OK
        assert (tmp_path / "root" / "rel" / "run1" / "result.json").exists()

    def test_result_ellipsoid_round_trips(self, tmp_path):
        from invset.ellipsoid import Ellipsoid

        file = write_config(tmp_path)
        main(["run", str(file)])
        payload = json.loads((tmp_path / "out" / "result.json").read_text())
        E = Ellipsoid.from_dict(payload["invariant_set"])
        assert E.volume() > 0


class TestDeterminism:
    def test_rerun_is_byte_identical_across_threads(self, tmp_path):
        for threads, name in ((1, "a"), (2, "b")):
            file = write_config(tmp_path, output_dir=str(tmp_path / name))
            assert run_cli_with_blas_threads(["run", file], threads) == EXIT_OK
        for name in ("result.json", "history.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            if name == "result.json":
                # the echoed config differs only in output_dir
                a = a.replace(str(tmp_path / "a").encode(), b"X")
                b = b.replace(str(tmp_path / "b").encode(), b"X")
            assert a == b
        for sample_a in sorted((tmp_path / "a" / "samples").glob("*.csv")):
            sample_b = tmp_path / "b" / "samples" / sample_a.name
            assert sample_a.read_bytes() == sample_b.read_bytes()


class TestVerifyCommand:
    def test_kstep_outputs(self, tmp_path):
        file = write_config(tmp_path)
        main(["run", str(file)])
        result = tmp_path / "out" / "result.json"
        assert main(["verify", str(result), "--kmax", "5", "--samples", "300", "--seed", "3"]) == EXIT_OK
        lines = (tmp_path / "out" / "kstep.csv").read_text().splitlines()
        assert lines[0] == "k,violations,epsilon_star,exits,epsilon_star_exit"
        assert len(lines) == 6
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("flag", ["--kmax", "--samples"])
    def test_nonpositive_argument_is_a_config_error(self, tmp_path, capsys, flag):
        file = write_config(tmp_path)
        main(["run", str(file)])
        result = tmp_path / "out" / "result.json"
        assert main(["verify", str(result), flag, "0"]) == EXIT_ERROR
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "kstep.csv").exists()

    def test_incomplete_embedded_config_is_a_config_error(self, tmp_path, capsys):
        file = write_config(tmp_path)
        main(["run", str(file)])
        result = tmp_path / "out" / "result.json"
        payload = json.loads(result.read_text())
        payload["config"] = {"system": "cec"}
        result.write_text(json.dumps(payload))
        assert main(["verify", str(result)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "integration" in err
        assert not (tmp_path / "out" / "kstep.csv").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s.pop("A"),
            lambda s: s.update(A=[1.0, 0.0, 1.0]),
            lambda s: s.update(type="rbf", centers=[[1.0, 1.0]], widths=[1.0], gamma=1.5),
            lambda s: s.update(type="rbf", centers=[[1.0, 1.0]], gamma=0.5),
            lambda s: s.update(dim=1, A=[1.0], b=[0.0]),
        ],
        ids=["no-A", "A-of-3", "rbf-gamma-above-m", "rbf-no-widths", "dim-1"],
    )
    def test_malformed_invariant_set_is_a_config_error(self, tmp_path, capsys, edit):
        file = write_config(tmp_path)
        main(["run", str(file)])
        result = tmp_path / "out" / "result.json"
        payload = json.loads(result.read_text())
        edit(payload["invariant_set"])
        result.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(result)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "kstep.csv").exists()

    def test_kmax_defaults_to_the_runs_k_max(self, tmp_path):
        file = write_config(tmp_path, k_max=3)
        main(["run", str(file)])
        result = tmp_path / "out" / "result.json"
        assert main(["verify", str(result), "--samples", "200"]) == EXIT_OK
        lines = (tmp_path / "out" / "kstep.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]

    def test_missing_result_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.json")]) == EXIT_ERROR
        assert "result" in capsys.readouterr().err

    def test_result_that_is_not_an_object(self, tmp_path, capsys):
        result = tmp_path / "result.json"
        result.write_text("5")
        assert main(["verify", str(result)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("config error:")


class TestStudyCommand:
    def test_study_outputs(self, tmp_path):
        file = write_config(tmp_path, output_dir=str(tmp_path / "study"))
        assert main(["study", str(file), "--runs", "3"]) == EXIT_OK
        runs = (tmp_path / "study" / "study_runs.csv").read_text().splitlines()
        assert runs[0] == "seed,termination,iterations,violations,epsilon_star,volume"
        assert len(runs) == 4
        summary = (tmp_path / "study" / "study_summary.csv").read_text().splitlines()
        assert summary[0] == "iter,accuracy_mean,accuracy_std,volume_mean,volume_std"

    def test_single_run_rejected(self, tmp_path, capsys):
        file = write_config(tmp_path)
        assert main(["study", str(file), "--runs", "1"]) == EXIT_ERROR
        assert "runs" in capsys.readouterr().err


class TestUsage:
    def test_usage_errors_exit_one(self, tmp_path, capsys):
        # argparse's own exit code 2 would read as EXIT_BUDGET
        file = write_config(tmp_path)
        assert main(["run"]) == EXIT_ERROR
        assert main(["bogus"]) == EXIT_ERROR
        assert main(["verify"]) == EXIT_ERROR
        assert main(["run", str(file), "--threads", "2"]) == EXIT_ERROR
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["run", "--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out


class TestSystemsCommand:
    def test_lists_builtins(self, capsys):
        assert main(["systems"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("cec", "nec", "compass_gait"):
            assert name in out
