"""Rounds, checks and metrics of one benchmark run; see run.py."""

import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import invset
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3


def time_setups(workload_name, repeats):
    """Seconds from starting a fresh interpreter to its workload being set up
    (imports, maps, and the walker's fixed point and initial set), once per
    child process."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload_name,
        "--seed", "0", "--seconds", "0", "--setup-only",
    ]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - started)
            child.stdout.read()
            child.wait(timeout=120)
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up child exited with {child.returncode}")
    return times


@dataclass
class Round:
    traced: bool
    run_s: list  # wall time of each `run` call
    sweep_s: list  # wall time of each verify sweep (0 where none ran)
    samples: int
    results: list  # RunResult, or the exception the run raised
    verifies: list  # list of KStepRecord, or the exception

    @property
    def wall_s(self):
        return sum(self.run_s) + sum(self.sweep_s)


def run_round(workload, state, seed, tracer=None):
    run_fn, verify_fn = invset.run, invset.verify_k_step
    if tracer is not None:
        run_fn = tracer.wrap("algorithm.run", run_fn)
        verify_fn = tracer.wrap("algorithm.verify", verify_fn)
    run_s, sweep_s = [], []
    samples = 0
    results, verifies = [], []
    with nullcontext() if tracer is None else spans.instrument(tracer):
        for spec in workload.certifications:
            started = time.perf_counter()
            try:
                result = spec.run(run_fn, state["map"], state["initial"])
                samples += spec.n_samples * result.history.iterations
            except Exception as exc:  # a failed operation, counted below
                result = exc
            run_s.append(time.perf_counter() - started)
            results.append(result)
        for sweep, (index, spec) in enumerate(workload.sweeps):
            result = results[index]
            if isinstance(result, Exception):
                verifies.append(result)
                sweep_s.append(0.0)
                continue
            started = time.perf_counter()
            try:
                records = verify_fn(
                    state["map"], result.invariant_set, spec.verify_samples,
                    spec.verify_k, spec.beta, seed=seed * 1000 + sweep,
                )
                samples += spec.verify_samples * spec.verify_k
            except Exception as exc:
                records = exc
            sweep_s.append(time.perf_counter() - started)
            verifies.append(records)
    return Round(tracer is not None, run_s, sweep_s, samples, results, verifies)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(args, root):
    """Run the benchmark as `args` ask, print the result line, return 0."""
    workload = WORKLOADS[args.workload]
    setup_times = [] if args.trace else time_setups(args.workload, SETUP_REPEATS)
    state = workload.setup()

    tracer = traced_state = None
    if args.trace:
        tracer = spans.Tracer()
        traced_state = workload.setup(tracer)
        setup_layers = {
            "hybrid.fixed_point_s": (tracer.time["hybrid.fixed_point"], "s"),
            "hybrid.jacobian_s": (tracer.time["hybrid.jacobian"], "s"),
            "hybrid.setup_map_calls": (tracer.count["hybrid.setup_map_calls"], "count"),
        }
        tracer.clear()

    rounds = []
    measuring = time.perf_counter()
    while True:
        rounds.append(run_round(workload, state, args.seed))
        if tracer is not None:
            rounds.append(run_round(workload, traced_state, args.seed, tracer))
        if time.perf_counter() - measuring >= args.seconds:
            break
    # Before the checks import their own modules and draw their holdouts.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    per_round = checks.check_rounds(workload, state, rounds, args.seed)
    failed = sum(bool(errors) for ops in per_round for errors in ops)
    attempted = sum(len(ops) for ops in per_round)

    plain = [r for r in rounds if not r.traced]
    median = statistics.median
    if tracer is None:
        # Each call's median over the rounds, summed over the round's calls.
        certify_s = sum(map(median, zip(*(r.run_s for r in plain))))
        verify_s = sum(map(median, zip(*(r.sweep_s for r in plain))))
        metrics = {
            "setup_s": _metric(median(setup_times), "s"),
            "certify_s": _metric(certify_s, "s"),
            "verify_s": _metric(verify_s, "s"),
            "samples_per_s": _metric(plain[0].samples / (certify_s + verify_s), "samples/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        traced = [r for r in rounds if r.traced]
        scored = sum(r.history.iterations for r in traced[0].results
                     if not isinstance(r, Exception))
        layers = spans.layer_metrics(tracer, len(traced), scored, setup_layers)
        plain_wall = median(r.wall_s for r in plain)
        overhead = median(r.wall_s for r in traced) - plain_wall
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_share"] = (overhead / plain_wall, "ratio")
        metrics = {name: _metric(v, unit) for name, (v, unit) in sorted(layers.items())}

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_times,
        "rounds": [
            {
                "traced": r.traced,
                "run_s": r.run_s,
                "sweep_s": r.sweep_s,
                "samples": r.samples,
                "scored_candidates": [
                    None if isinstance(x, Exception) else x.history.iterations
                    for x in r.results
                ],
            }
            for r in rounds
        ],
        "check_errors": per_round,
        "result": summary,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, default=str))

    for spec, result in zip(workload.certifications, rounds[0].results):
        if not isinstance(result, Exception):
            print(
                f"{args.workload} seed {spec.seed}: {result.history.termination} after "
                f"{result.history.iterations} candidates, epsilon_star "
                f"{result.certificate.epsilon_star:.4f}",
                file=sys.stderr,
            )
    for number, ops in enumerate(per_round):
        for error in (e for errors in ops for e in errors):
            print(f"CHECK FAILED in round {number}: {error}", file=sys.stderr)
    print(
        f"{len(plain)} untraced and {len(rounds) - len(plain)} traced rounds; "
        f"details in {out.relative_to(root)}",
        file=sys.stderr,
    )
    print(json.dumps(summary))
    return 0


