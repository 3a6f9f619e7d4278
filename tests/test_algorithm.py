import dataclasses
import math
import time

import numpy as np
import pytest

import invset.algorithm
from invset.algorithm import (
    CollapseError,
    RbfOptions,
    evaluate_map,
    partition,
    run,
    verify_k_step,
)
from invset.ellipsoid import Ellipsoid
from invset.hybrid import IntegrationOptions, PoincareMap, contraction_init, fd_jacobian
from invset.pac import binomial_tail_inversion
from invset.rbf import RBFSet
from invset.systems import (
    COMPASS_GAIT_SECTION_SEED,
    CecParams,
    cec_poincare_map,
    cec_true_invariant_set,
    compass_gait_poincare_map,
    nec_poincare_map,
)


def _identity(y):
    return y


def _push_away(y):
    return y + 100.0


IDENTITY_MAP = PoincareMap.from_function(_identity, 2)

# sets that do not live in the 2-D reduced space of the cec map
WRONG_DIM_SETS = [
    Ellipsoid.ball(1.0, [1.0, 1.0, 0.0]),
    Ellipsoid.ball(1.0, [1.0]),
    RBFSet(centers=[[1.0]], widths=[1.0], gamma=0.5),
]


class TestPartition:
    def test_unpaired_rows_rejected(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        with pytest.raises(ValueError, match="pair up"):
            partition(E, np.zeros((3, 2)), np.zeros((2, 2)))

    def test_all_at_center(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        inputs = np.random.default_rng(0).uniform(-0.5, 0.5, size=(20, 2))
        outputs = np.zeros_like(inputs)
        batch = partition(E, inputs, outputs)
        assert batch.violations == 0
        assert np.array_equal(batch.retained_inputs, inputs)
        assert batch.outputs[~batch.flags].shape[0] == 0

    def test_all_outside(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        inputs = np.zeros((15, 2))
        outputs = np.full((15, 2), 5.0)
        batch = partition(E, inputs, outputs)
        assert batch.violations == 15
        assert batch.retained_inputs.shape[0] == 0

    def test_set_cardinalities_are_consistent(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-2, 2, size=(40, 2))
        outputs = rng.uniform(-2, 2, size=(40, 2))
        batch = partition(E, inputs, outputs)
        retained, escaped = batch.flags, ~batch.flags
        assert np.array_equal(batch.retained_inputs, batch.inputs[retained])
        assert batch.inputs[retained].shape == batch.outputs[retained].shape
        assert batch.inputs[escaped].shape == batch.outputs[escaped].shape
        assert batch.inputs[retained].shape[0] + batch.inputs[escaped].shape[0] == 40
        assert batch.violations == batch.inputs[escaped].shape[0]
        assert E.contains_batch(batch.outputs[retained]).all()
        assert not E.contains_batch(batch.outputs[escaped]).any()

    def test_failure_rows_escape(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        inputs = np.zeros((3, 2))
        outputs = np.array([[0.0, 0.0], [np.nan, np.nan], [0.1, 0.1]])
        batch = partition(E, inputs, outputs)
        assert batch.violations == 1
        assert not batch.flags[1]

    def test_cec_true_set_has_no_violations(self):
        E = cec_true_invariant_set(CecParams())
        pts = E.sample(1000, seed=3)
        outputs, ok = evaluate_map(cec_poincare_map(), pts)
        assert ok.all()
        batch = partition(E, pts, outputs)
        assert batch.violations == 0

    @pytest.mark.parametrize("area_ratio", [1.5, 4.0, 10.0])
    def test_cec_retains_the_square_root_preimage(self, area_ratio):
        # |f(x) - c|_M = |x - c|_M^2, so for the M-ball candidate of radius
        # sqrt(area_ratio) an input is retained iff |x - c|_M <= area_ratio^(1/4)
        p = CecParams()
        true_set = cec_true_invariant_set(p)
        radius = math.sqrt(area_ratio)
        candidate = Ellipsoid(A=true_set.A / radius, b=true_set.b / radius)
        assert candidate.volume() == pytest.approx(area_ratio * true_set.volume())
        pts = candidate.sample(2000, seed=13)
        outputs, ok = evaluate_map(cec_poincare_map(p), pts)
        assert ok.all()
        batch = partition(candidate, pts, outputs)
        offsets = pts - p.c
        m_norm = np.sqrt(np.einsum("ij,jk,ik->i", offsets, p.M, offsets))
        assert 0 < batch.violations < len(pts)
        assert np.array_equal(batch.flags, m_norm <= area_ratio**0.25)


class TestRun:
    def test_identity_terminates_immediately(self):
        E0 = Ellipsoid.ball(2.0, [0.3, -0.4])
        res = run(IDENTITY_MAP, E0, 1000, 0.03, 1e-9, 10, seed=4)
        assert res.history.termination == "certified"
        assert res.history.iterations == 1
        assert res.certificate.violations == 0
        closed_form = 1.0 - 1e-9 ** (1.0 / 1000)
        assert abs(res.certificate.epsilon_star - closed_form) < 1e-9
        assert res.invariant_set.volume() == E0.volume()

    @pytest.mark.parametrize(
        "pmap, max_iters, termination",
        [(IDENTITY_MAP, 10, "certified"), (cec_poincare_map(), 1, "budget")],
        ids=["certified", "budget"],
    )
    def test_certificate_counts_its_scoring_batch(self, pmap, max_iters, termination):
        E0 = Ellipsoid.ball(math.sqrt(10), [0, 0])
        res = run(pmap, E0, 1000, 0.03, 1e-9, max_iters, seed=3)
        assert res.history.termination == termination
        v = int((~res.history.records[-1].batch.flags).sum())
        cert = res.certificate
        assert (cert.violations, cert.samples, cert.beta, cert.steps) == (v, 1000, 1e-9, 1)
        assert cert.epsilon_star == binomial_tail_inversion(v, 1000, 1e-9)
        assert cert.epsilon_star > v / 1000

    def test_certificate_freshness(self):
        # the certified iterate must equal the candidate its samples scored,
        # not a refit of them
        pm = cec_poincare_map()
        res = run(pm, Ellipsoid.ball(math.sqrt(10), [0, 0]), 1000, 0.03, 1e-9, 50, seed=1)
        last = res.history.records[-1]
        assert last.candidate is res.invariant_set
        assert last.violations == res.certificate.violations
        assert last.epsilon_star == res.certificate.epsilon_star

    def test_epsilon_star_matches_inversion(self):
        pm = cec_poincare_map()
        res = run(pm, Ellipsoid.ball(math.sqrt(10), [0, 0]), 500, 0.05, 1e-6, 40, seed=2)
        for rec in res.history.records:
            assert rec.epsilon_star == binomial_tail_inversion(rec.violations, 500, 1e-6)

    def test_volumes_non_increasing_on_benchmarks(self):
        for pm in (cec_poincare_map(), nec_poincare_map()):
            res = run(pm, Ellipsoid.ball(math.sqrt(10), [0, 0]), 800, 0.08, 1e-6, 60, seed=5)
            vols = [rec.volume for rec in res.history.records]
            assert all(b <= a * (1 + 1e-6) for a, b in zip(vols, vols[1:]))

    def test_deterministic_given_seed(self):
        pm = cec_poincare_map()
        E0 = Ellipsoid.ball(math.sqrt(10), [0, 0])
        r1 = run(pm, E0, 400, 0.03, 1e-9, 30, seed=6)
        r2 = run(pm, E0, 400, 0.03, 1e-9, 30, seed=6)
        assert r1.history.iterations == r2.history.iterations
        assert np.array_equal(r1.invariant_set.A, r2.invariant_set.A)
        for a, b in zip(r1.history.records, r2.history.records):
            assert a.violations == b.violations
            assert a.volume == b.volume
            assert np.array_equal(a.batch.inputs, b.batch.inputs)
            assert np.array_equal(a.batch.outputs, b.batch.outputs)

    def test_collapse_error_carries_diagnostics(self):
        pm = PoincareMap.from_function(_push_away, 2)
        with pytest.raises(CollapseError, match="contraction factor r"):
            run(pm, Ellipsoid.ball(1.0, [0, 0]), 100, 0.01, 1e-6, 10, seed=7)

    def test_budget_returns_best_iterate(self):
        pm = nec_poincare_map()
        res = run(pm, Ellipsoid.ball(math.sqrt(10), [0, 0]), 300, 0.001, 1e-9, 8, seed=8)
        assert res.history.termination == "budget"
        best = min(res.history.records, key=lambda r: r.epsilon_star)
        assert res.certificate.epsilon_star == best.epsilon_star
        assert res.history.final_iteration == best.iteration
        assert res.invariant_set is best.candidate

    def test_parameter_validation(self):
        E0 = Ellipsoid.ball(1.0, [0, 0])
        with pytest.raises(ValueError):
            run(IDENTITY_MAP, E0, 1000, 1.5, 1e-9, 10, seed=0)
        with pytest.raises(ValueError):
            run(IDENTITY_MAP, E0, 1000, 0.03, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            run(IDENTITY_MAP, E0, 2, 0.03, 1e-9, 10, seed=0)
        for wrong_dim in WRONG_DIM_SETS:
            with pytest.raises(ValueError, match=rf"dim {wrong_dim.dim} .*reduced dim is 2"):
                run(cec_poincare_map(), wrong_dim, 1000, 0.03, 1e-9, 10, seed=0)

    @pytest.mark.parametrize(
        "options",
        [{"gamma": 3.0}, {"m": 2.5}, {"m": 2.0}, {"m": "2"}, {"m": 0, "gamma": 0.5}, {"m": True}],
    )
    def test_rbf_options_are_checked_on_construction(self, options):
        # before any scoring pass: gamma in (0, m) and an integer m >= 1
        with pytest.raises(ValueError):
            RbfOptions(**options)

    def test_wall_ms_covers_the_refit(self, monkeypatch):
        real_mvee = invset.algorithm.mvee

        def slow_mvee(*args, **kwargs):
            time.sleep(0.05)
            return real_mvee(*args, **kwargs)

        monkeypatch.setattr(invset.algorithm, "mvee", slow_mvee)
        pm = cec_poincare_map()
        res = run(pm, Ellipsoid.ball(math.sqrt(10), [0, 0]), 1000, 0.03, 1e-9, 50, seed=1)
        assert res.history.termination == "certified"
        refitted = res.history.records[:-1]  # the certified iterate is not refit
        assert refitted
        assert all(rec.wall_ms >= 50.0 for rec in refitted)

    def test_rbf_representation_pipeline(self):
        pm = nec_poincare_map()
        res = run(
            pm,
            Ellipsoid.ball(math.sqrt(10), [0, 0]),
            600,
            0.08,
            1e-6,
            40,
            seed=9,
            representation="rbf",
            rbf_options=RbfOptions(m=2, gamma=0.25),
        )
        assert isinstance(res.invariant_set, (RBFSet, Ellipsoid))
        if res.history.termination == "certified":
            assert res.certificate.epsilon_star <= 0.08


class TestHooks:
    NAMES = (
        "evaluate_map",
        "partition",
        "binomial_tail_inversion",
        "mvee",
        "fit_rbf",
        "sample_uniform_rbf_with_volume",
    )

    def test_loop_looks_up_each_step_at_call_time(self, monkeypatch):
        # tools that time the loop from outside swap these module names and
        # Ellipsoid.sample for wrappers; every one of them must see calls
        calls = dict.fromkeys(self.NAMES + ("Ellipsoid.sample",), 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(
                invset.algorithm, name, counting(name, getattr(invset.algorithm, name))
            )
        monkeypatch.setattr(Ellipsoid, "sample", counting("Ellipsoid.sample", Ellipsoid.sample))
        E0 = Ellipsoid.ball(math.sqrt(10), [0, 0])
        run(cec_poincare_map(), E0, 300, 0.05, 1e-6, 3, seed=1, store_samples=False)
        res = run(
            nec_poincare_map(), E0, 300, 0.05, 1e-6, 3, seed=9,
            representation="rbf", rbf_options=RbfOptions(m=2, gamma=0.25), store_samples=False,
        )
        fitted = res.history.records[-1].candidate
        assert isinstance(fitted, RBFSet)
        verify_k_step(nec_poincare_map(), fitted, 200, 2, 1e-6, seed=3)
        assert all(calls.values()), calls


class TestEvaluateMap:
    @pytest.mark.parametrize(
        "make_map, center, scale, n",
        [
            (
                lambda: compass_gait_poincare_map(
                    None, IntegrationOptions(rel_tol=1e-6, abs_tol=1e-8, max_flow_time=3.0)
                ),
                COMPASS_GAIT_SECTION_SEED,
                0.01,
                24,
            ),
            (cec_poincare_map, CecParams().c, 1.0, 600),
            (nec_poincare_map, np.zeros(2), 1.0, 600),
        ],
        ids=["batch-callbacks", "cec", "nec"],
    )
    def test_row_partitions_are_bit_identical(self, make_map, center, scale, n):
        pmap = make_map()
        rng = np.random.default_rng(10)
        points = center + scale * rng.standard_normal((n, center.size))
        whole_out, whole_ok = evaluate_map(pmap, points)
        assert whole_ok.any()
        for size in (1, 2, 5, n):
            parts = [evaluate_map(pmap, points[i : i + size]) for i in range(0, n, size)]
            assert np.array_equal(np.concatenate([ok for _, ok in parts]), whole_ok)
            out = np.concatenate([out for out, _ in parts])
            assert np.array_equal(out, whole_out, equal_nan=True)

    def test_k_steps_compose(self):
        pm = cec_poincare_map()
        pts = cec_true_invariant_set(CecParams()).sample(50, seed=11)
        two_step, ok = evaluate_map(pm, pts, k=2)
        assert ok.all()
        one, _ = evaluate_map(pm, pts, k=1)
        again, _ = evaluate_map(pm, one, k=1)
        assert np.allclose(two_step, again, atol=1e-14)

    def test_failures_latch_across_steps(self):
        pm = PoincareMap.from_function(_push_away, 2)
        out, ok = evaluate_map(pm, np.zeros((4, 2)), k=3)
        assert ok.all()  # pure drift never fails, but check magnitudes
        assert np.allclose(out, 300.0)


def _negate(y):
    return -y


def _walker_set_and_map():
    # the shipped contraction scale 5.2: some rows fail, some leave, some stay
    pmap = compass_gait_poincare_map(
        None, IntegrationOptions(rel_tol=1e-6, abs_tol=1e-8, max_flow_time=3.0)
    )
    jacobian = fd_jacobian(pmap, COMPASS_GAIT_SECTION_SEED)
    return contraction_init(jacobian, 5.2, center=COMPASS_GAIT_SECTION_SEED), pmap


def _cec_double_area_set_and_map():
    # M-norms in (1, sqrt 2) stay inside for a few steps, then leave
    true_set = cec_true_invariant_set(CecParams())
    radius = math.sqrt(2.0)
    return Ellipsoid(A=true_set.A / radius, b=true_set.b / radius), cec_poincare_map()


class TestVerifyKStep:
    def test_identity_is_constant(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        records = verify_k_step(IDENTITY_MAP, E, 500, 10, 1e-9, seed=12)
        closed_form = 1.0 - 1e-9 ** (1.0 / 500)
        for rec in records:
            assert rec.violations == 0
            assert abs(rec.epsilon_star - closed_form) < 1e-9

    def test_one_record_per_step(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        records = verify_k_step(IDENTITY_MAP, E, 100, 5, 1e-6, seed=13)
        assert [rec.steps for rec in records] == [1, 2, 3, 4, 5]

    def test_no_steps_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            verify_k_step(IDENTITY_MAP, Ellipsoid.ball(1.0, [0.0, 0.0]), 100, 0, 1e-6, seed=13)

    @pytest.mark.parametrize("wrong_dim", WRONG_DIM_SETS, ids=["ball-3d", "ball-1d", "rbf-1d"])
    def test_dimension_mismatch_rejected(self, wrong_dim):
        with pytest.raises(ValueError, match=rf"dim {wrong_dim.dim} .*reduced dim is 2"):
            verify_k_step(cec_poincare_map(), wrong_dim, 100, 3, 1e-6, seed=13)

    @pytest.mark.parametrize(
        "make, n, k_max",
        [(_cec_double_area_set_and_map, 400, 8), (_walker_set_and_map, 24, 4)],
        ids=["cec", "walker"],
    )
    def test_one_pass_counts_equal_k_fold_maps(self, make, n, k_max, monkeypatch):
        # per-row purity: stepping one batch k times scores the k-th iterate
        # exactly as mapping the same batch k times over again
        invariant_set, pmap = make()
        drawn = []
        real_sample = Ellipsoid.sample

        def recording_sample(ellipsoid, *args, **kwargs):
            drawn.append(real_sample(ellipsoid, *args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(Ellipsoid, "sample", recording_sample)
        records = verify_k_step(pmap, invariant_set, n, k_max, 1e-6, seed=5)
        (points,) = drawn
        expected = [
            partition(invariant_set, points, evaluate_map(pmap, points, k)[0]).violations
            for k in range(1, k_max + 1)
        ]
        assert [rec.violations for rec in records] == expected
        assert len(set(expected)) > 1

    @pytest.mark.parametrize(
        "invariant_set, sampler",
        [
            (_cec_double_area_set_and_map()[0], "Ellipsoid.sample"),
            (RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=0.5), "rbf"),
        ],
        ids=["ellipsoid", "rbf"],
    )
    def test_work_budget(self, invariant_set, sampler, monkeypatch):
        # one draw and at most n rows per step: n * k_max rows in all
        n, k_max = 200, 20
        rows = []
        draws = {"Ellipsoid.sample": 0, "rbf": 0}
        cec = cec_poincare_map()

        def counting_batch(points):
            rows.append(points.shape[0])
            return cec.batch_evaluator(points)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                draws[name] += 1
                return real(*args, **kwargs)

            return wrapper

        pmap = dataclasses.replace(cec, batch_evaluator=counting_batch)
        monkeypatch.setattr(Ellipsoid, "sample", counting("Ellipsoid.sample", Ellipsoid.sample))
        monkeypatch.setattr(
            invset.algorithm,
            "sample_uniform_rbf_with_volume",
            counting("rbf", invset.algorithm.sample_uniform_rbf_with_volume),
        )
        verify_k_step(pmap, invariant_set, n, k_max, 1e-6, seed=6)
        assert draws == {name: int(name == sampler) for name in draws}
        assert 0 < len(rows) <= k_max
        assert sum(rows) <= n * k_max

    def test_alone_calls_the_module_steps(self, monkeypatch):
        # tools that time verify from outside swap these module names
        calls = dict.fromkeys(("evaluate_map", "partition", "binomial_tail_inversion"), 0)
        for name in calls:
            real = getattr(invset.algorithm, name)

            def wrapper(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(invset.algorithm, name, wrapper)
        verify_k_step(cec_poincare_map(), Ellipsoid.ball(1.0, [0.0, 0.0]), 100, 3, 1e-6, seed=7)
        assert all(calls.values()), calls

    def test_exits_stay_counted_when_a_two_cycle_returns(self):
        pmap = PoincareMap.from_function(_negate, 2)
        records = verify_k_step(pmap, Ellipsoid.ball(1.0, [0.5, 0.0]), 300, 6, 1e-6, seed=8)
        assert records[0].violations > 0
        for rec in records:
            assert rec.exits == records[0].violations
            assert rec.epsilon_star_exit == records[0].epsilon_star
            if rec.steps % 2 == 0:
                assert rec.violations == 0
                assert rec.epsilon_star_exit > rec.epsilon_star

    def test_exits_are_monotone_and_dominate_on_cec(self):
        invariant_set, pmap = _cec_double_area_set_and_map()
        records = verify_k_step(pmap, invariant_set, 400, 20, 1e-6, seed=9)
        for earlier, later in zip(records, records[1:]):
            assert later.exits >= earlier.exits
            assert later.epsilon_star_exit >= earlier.epsilon_star_exit
        for rec in records:
            assert rec.exits >= rec.violations
            assert rec.epsilon_star_exit >= rec.epsilon_star
