"""The benchmark's workloads: what each certifies and verifies, and set-up.

Each workload pins the certification seeds the acceptance suite uses, so a
round is the same work on every run: time to a certified set varies by 2-3x
between seeds (scored candidates and MVEE iterations both depend on the
draws), and no run short enough for the benchmark's time budget averages that
out.  The benchmark's `--seed` draws everything else: the verification
streams, the fresh holdouts and the walker's reference points.

This module imports only the program and `spans`, so that a set-up timed in a
fresh interpreter pays for the program's imports alone.
"""

import math
from dataclasses import dataclass

from invset import (
    Ellipsoid,
    IntegrationOptions,
    RbfOptions,
    contraction_init,
    fd_jacobian,
    find_fixed_point,
)
from invset.batchflow import vectorized_poincare_map
from invset.systems import (
    COMPASS_GAIT_SECTION_SEED,
    CecParams,
    CompassGaitParams,
    NecParams,
    cec_poincare_map,
    compass_gait_batch_callbacks,
    nec_poincare_map,
)

import spans

E0_RADIUS = math.sqrt(10)  # the pinned initial disk of acceptance criteria 1-3

# Integration options of configs/compass_gait.json.
WALKER_OPTIONS = IntegrationOptions(rel_tol=1e-8, abs_tol=1e-10, max_flow_time=5.0, method="rk45")
# Contraction-init scale.  The shipped 5.2 needs about 190 candidates (167 s);
# at 1.5 seed 1 certifies in 11 candidates, and the loop still refits slowly
# shrinking 3-D clouds.
WALKER_SCALE = 1.5


@dataclass(frozen=True)
class Certification:
    """One `invset.run` call and the `verify_k_step` sweeps of its set."""

    seed: int
    n_samples: int
    eps_target: float
    beta: float
    max_iters: int
    representation: str = "ellipsoid"
    rbf: RbfOptions = None
    # The documented k-step use: the README example and `invset verify`
    # defaults (1000 samples, k = 1..20).
    verify_samples: int = 1000
    verify_k: int = 20
    # Sweeps of the set per round, each on its own streams.
    verify_sweeps: int = 1

    def run(self, run_fn, pmap, initial):
        return run_fn(
            pmap, initial, self.n_samples, self.eps_target, self.beta, self.max_iters,
            seed=self.seed, representation=self.representation, rbf_options=self.rbf,
            store_samples=False,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    certifications: list
    params: object
    setup_fn: object  # (params, tracer or None) -> state dict

    @property
    def sweeps(self):
        """(certification index, certification) of each verify sweep of a round."""
        return [
            (index, spec)
            for index, spec in enumerate(self.certifications)
            for _ in range(spec.verify_sweeps)
        ]

    def setup(self, tracer=None):
        """Maps and initial set: a dict with "map", "initial" and, for the
        walker, "fixed_point".  With a tracer the walker's map is traced."""
        return self.setup_fn(self.params, tracer)


def _analytic_setup(make_map):
    def setup(params, tracer):
        return {"map": make_map(params), "initial": Ellipsoid.ball(E0_RADIUS, [0.0, 0.0])}

    return setup


def _walker_setup(p, tracer):
    callbacks = compass_gait_batch_callbacks(p)
    fixed_point_fn, jacobian_fn = find_fixed_point, fd_jacobian
    if tracer is not None:
        callbacks = spans.traced_callbacks(tracer, callbacks)
        fixed_point_fn = tracer.wrap("hybrid.fixed_point", find_fixed_point)
        jacobian_fn = tracer.wrap("hybrid.jacobian", fd_jacobian)
    pmap = vectorized_poincare_map(callbacks, WALKER_OPTIONS)
    tight = vectorized_poincare_map(callbacks, WALKER_OPTIONS.tightened())
    if tracer is not None:
        pmap = spans.traced_map(tracer, pmap)
        tight = tracer.counted("hybrid.setup_map_calls", tight)
    fixed_point = fixed_point_fn(tight, COMPASS_GAIT_SECTION_SEED, tol=1e-10)
    jacobian = jacobian_fn(tight, fixed_point)
    initial = contraction_init(jacobian, WALKER_SCALE, center=fixed_point)
    return {"map": pmap, "initial": initial, "fixed_point": fixed_point}


WORKLOADS = {
    "cec-study": Workload(
        name="cec-study",
        certifications=[Certification(s, 1000, 0.03, 1e-9, 60) for s in range(10)],
        params=CecParams(),
        setup_fn=_analytic_setup(cec_poincare_map),
    ),
    # configs/nec_rbf.json over seeds 0-2, which score 18, 17 and 42 candidates.
    # One sweep of a set takes about 0.1 s; timed alone, the three sweeps of a
    # round spread by 0.24 (IQR over median) over ten runs, so each set is
    # swept five times.
    "nec-rbf": Workload(
        name="nec-rbf",
        certifications=[
            Certification(
                s, 1000, 0.05, 1e-9, 100, representation="rbf",
                rbf=RbfOptions(m=2, gamma=0.25), verify_sweeps=5,
            )
            for s in range(3)
        ],
        params=NecParams(),
        setup_fn=_analytic_setup(nec_poincare_map),
    ),
    # The 400 samples of acceptance criterion 4, but k = 1..3, not 1..20:
    # k <= 20 maps 84 000 rows, about 48 s, longer than a whole run.
    "walker": Workload(
        name="walker",
        certifications=[
            Certification(1, 1000, 0.03, 1e-9, 200, verify_samples=400, verify_k=3)
        ],
        params=CompassGaitParams(),
        setup_fn=_walker_setup,
    ),
}
