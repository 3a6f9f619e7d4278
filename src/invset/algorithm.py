"""Iterative identification of finite-step invariant sets with PAC certificates.

Each iteration draws N points uniformly from the current candidate set,
pushes them through the return map, and splits the pairs by whether the image
stayed inside.  The violation count feeds a binomial tail inversion; if the
resulting bound meets the accuracy target the candidate is returned together
with its certificate (the scoring samples were drawn before any refit, so the
holdout is fresh).  Otherwise the candidate is refit to the retained inputs —
minimum-volume ellipsoid by default, a summed-Gaussian set optionally — and
the loop repeats.
"""

import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ellipsoid import Ellipsoid, mvee
from .hybrid import PoincareMap
from .pac import PacCertificate, binomial_tail_inversion
from .rbf import GAMMA_BALL, RBFSet, fit_rbf, sample_uniform_rbf_with_volume

_VERIFY_CONTEXT_BASE = 1 << 32  # keeps k-step streams apart from run streams


class CollapseError(RuntimeError):
    """Too few retained inputs to refit: the candidate set collapsed."""


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Input/output pairs of one iteration with containment flags.

    `flags[i]` is True iff the image of sample i lies inside the candidate;
    the NaN image of a failed evaluation never does.  The refit uses
    `retained_inputs`, the inputs whose image stayed inside.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    flags: np.ndarray

    @property
    def violations(self) -> int:
        return int((~self.flags).sum())

    @property
    def retained_inputs(self) -> np.ndarray:
        return self.inputs[self.flags]


def partition(candidate, inputs, outputs) -> SampleBatch:
    """Flag each sample pair by containment of its output in `candidate`.

    `candidate` is any set object with `contains_batch`, which puts the NaN
    row of a failed evaluation outside.
    """
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if inputs.shape[0] != outputs.shape[0]:
        raise ValueError("inputs and outputs must pair up")
    return SampleBatch(inputs=inputs, outputs=outputs, flags=candidate.contains_batch(outputs))


@dataclass(frozen=True, eq=False)
class IterationRecord:
    iteration: int
    candidate: object  # Ellipsoid or RBFSet scoring this iteration
    volume: float
    violations: int
    epsilon_star: float
    wall_ms: float
    batch: Optional[SampleBatch] = None


@dataclass(eq=False)
class RunHistory:
    """Per-iteration trace, termination reason, and the iteration whose
    candidate was returned (the certificate is `RunResult.certificate`)."""

    records: list
    termination: str  # "certified" | "budget"
    final_iteration: int

    @property
    def iterations(self) -> int:
        return len(self.records)


@dataclass(frozen=True, eq=False)
class RunResult:
    invariant_set: object  # Ellipsoid or RBFSet
    certificate: PacCertificate
    history: RunHistory


@dataclass(frozen=True, eq=False)
class KStepRecord:
    """Bounds at step k of one verify pass: the k-th iterate outside the set
    (`violations`, `epsilon_star`) and an exit at some step j <= k (`exits`,
    `epsilon_star_exit`); a failed evaluation counts as outside from the step
    it fails on."""

    steps: int
    violations: int
    epsilon_star: float
    exits: int
    epsilon_star_exit: float


@dataclass(frozen=True)
class RbfOptions:
    """Configuration of the summed-Gaussian refit."""

    m: int = 2
    gamma: float = GAMMA_BALL  # single bump == sigma-ball

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        if not 0.0 < self.gamma < self.m:
            raise ValueError(f"gamma must lie in (0, m), got {self.gamma!r}")


def check_run_settings(n_samples, dim, eps_target, beta, max_iters, representation):
    """Raise ValueError for a setting of `run` outside its range; `dim` is
    the map's reduced dimension."""
    if n_samples < dim + 1:
        raise ValueError(
            f"need at least dim + 1 = {dim + 1} samples per iteration, got {n_samples}"
        )
    if not 0.0 < eps_target < 1.0:
        raise ValueError("eps_target must be in (0, 1)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if representation not in ("ellipsoid", "rbf"):
        raise ValueError(f"unknown representation {representation!r}")


def _check_dim(pmap: PoincareMap, invariant_set):
    """Raise ValueError unless `invariant_set` lives in the map's reduced space."""
    if invariant_set.dim != pmap.reduced_dim:
        raise ValueError(
            f"the set has dim {invariant_set.dim} but the map's reduced dim is {pmap.reduced_dim}"
        )


def evaluate_map(pmap: PoincareMap, points: np.ndarray, k: int = 1):
    """Apply k steps of the map to every row of `points`.

    Each step maps the rows still alive in one batch call; a failed row
    stays failed, all-NaN as the map leaves it.  Returns (outputs, ok).
    """
    out = np.array(points, dtype=float)
    ok = np.ones(out.shape[0], dtype=bool)
    for _ in range(k):
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            break
        out[idx], ok[idx] = pmap.batch_evaluator(out[idx])
    return out, ok


def _draw(candidate, n, seed, context):
    """`n` uniform samples of an Ellipsoid or RBFSet plus its volume (exact
    for an ellipsoid, the rejection sampler's Monte-Carlo estimate for an
    RBF set)."""
    if isinstance(candidate, RBFSet):
        return sample_uniform_rbf_with_volume(candidate, n, seed=seed, context=context)
    return candidate.sample(n, seed, context), candidate.volume()


def _score(pmap, candidate, n, beta, seed, context):
    """Draw, push one map step, partition, bound: (volume, batch, eps_star)."""
    points, volume = _draw(candidate, n, seed, context)
    images, _ = evaluate_map(pmap, points)
    batch = partition(candidate, points, images)
    return volume, batch, binomial_tail_inversion(batch.violations, n, beta)


def run(
    pmap: PoincareMap,
    initial_set: Ellipsoid,
    n_samples: int,
    eps_target: float,
    beta: float,
    max_iters: int,
    seed: int,
    *,
    representation: str = "ellipsoid",
    rbf_options: RbfOptions = None,
    store_samples: bool = True,
) -> RunResult:
    """Identify a finite-step invariant set with a fresh-sample certificate.

    Per iteration: sample `n_samples` points from the current candidate,
    evaluate the map once on each, partition by containment, and invert the
    binomial tail at the observed violation count.  Terminates with the
    *current* candidate as soon as the bound reaches `eps_target` (its
    scoring samples predate any refit); otherwise refits to the retained
    inputs and continues.  When the iteration budget runs out, the iterate
    with the smallest observed bound (the first, on a tie) is returned with
    termination "budget".

    Raises ValueError, before any draw, when `initial_set` and the map differ
    in dimension.  Raises CollapseError when fewer than dim + 1 samples
    survive a partition, which means the candidate lost the invariant set
    (enlarge the initial set, e.g. with a bigger contraction scale r).
    """
    check_run_settings(n_samples, pmap.reduced_dim, eps_target, beta, max_iters, representation)
    _check_dim(pmap, initial_set)
    options = rbf_options or RbfOptions()
    candidate = initial_set
    records = []
    for iteration in range(1, max_iters + 1):
        started = time.perf_counter()
        volume, batch, eps_star = _score(pmap, candidate, n_samples, beta, seed, iteration)
        certified = eps_star <= eps_target
        if not certified:
            retained = batch.retained_inputs
            if retained.shape[0] < candidate.dim + 1:
                raise CollapseError(
                    f"candidate collapsed at iteration {iteration}: only "
                    f"{retained.shape[0]} retained inputs (need {candidate.dim + 1}); "
                    f"violation history {[r.violations for r in records] + [batch.violations]}; "
                    f"last volume {volume:.3e}. "
                    "The initial set likely fails to contain the invariant set - "
                    "increase its scale (contraction factor r)."
                )
            if representation == "ellipsoid":
                refitted = mvee(retained)
            else:  # the first candidate may be an ellipsoid; the refit switches family
                init = candidate if isinstance(candidate, RBFSet) else None
                refitted = fit_rbf(retained, options.m, gamma=options.gamma, init=init)
        records.append(
            IterationRecord(
                iteration=iteration,
                candidate=candidate,
                volume=volume,
                violations=batch.violations,
                epsilon_star=eps_star,
                wall_ms=(time.perf_counter() - started) * 1e3,
                batch=batch if store_samples else None,
            )
        )
        if certified:
            break
        candidate = refitted

    best = min(records, key=lambda r: r.epsilon_star)
    certificate = PacCertificate(
        violations=best.violations,
        samples=n_samples,
        beta=beta,
        epsilon_star=best.epsilon_star,
        steps=1,
    )
    history = RunHistory(records, "certified" if certified else "budget", best.iteration)
    return RunResult(best.candidate, certificate, history)


def verify_k_step(
    pmap: PoincareMap,
    invariant_set,
    n_samples: int,
    k_max: int,
    beta: float,
    seed: int,
) -> list:
    """Certify k-step containment for each k in 1..k_max from one trajectory pass.

    One batch of `n_samples` points is drawn from the set and stepped k_max
    times, each step mapping the rows still alive; a row whose evaluation
    fails stays failed.  After step k the record scores two events of each
    row: its k-th iterate lies outside the set or its evaluation failed
    (`violations`, `epsilon_star`), and it was outside at some step j <= k
    or failed (`exits`, `epsilon_star_exit`, both non-decreasing in k).  The
    batch is i.i.d. from the set, so each per-k bound holds at confidence
    1 - beta on its own; the records share one batch, so a statement about
    all k at once needs a union bound over k.  A set whose dimension differs
    from the map's raises ValueError before any draw.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_dim(pmap, invariant_set)
    points, _ = _draw(invariant_set, n_samples, seed, _VERIFY_CONTEXT_BASE)
    images = points.copy()
    alive = np.ones(n_samples, dtype=bool)
    exited = np.zeros(n_samples, dtype=bool)
    results = []
    for k in range(1, k_max + 1):
        images[alive], alive[alive] = evaluate_map(pmap, images[alive], 1)
        batch = partition(invariant_set, points, images)
        exited |= ~batch.flags
        exits = int(exited.sum())
        results.append(
            KStepRecord(
                steps=k,
                violations=batch.violations,
                epsilon_star=binomial_tail_inversion(batch.violations, n_samples, beta),
                exits=exits,
                epsilon_star_exit=binomial_tail_inversion(exits, n_samples, beta),
            )
        )
    return results
