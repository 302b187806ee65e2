"""Two-variable toy channel: sampler, closed-form oracle, bi-level descent."""

import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from gib import tensor as T
from gib.case_study import (
    CaseStudyConfig,
    CaseStudyTraceRow,
    ToyPairSampler,
    dv_estimate,
    mi_oracle,
    run_case_study,
    sample_pairs,
)
from gib.graphs import ConfigError
from gib.metrics import write_csv
from gib.mi import dv_bound
from gib.nn import Mlp, frozen_copy
from gib.optim import Adam
from gib.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def frozen(net: Mlp) -> Mlp:
    """The head as the run hands it to dv_estimate: a frozen copy."""
    return frozen_copy(net, net.params())


class TestSampler:
    def test_degenerate_noise_pins_y_to_x(self):
        x, y, _ = sample_pairs(ToyPairSampler(1e-12), 1000, rng(1))
        np.testing.assert_allclose(y, x, atol=1e-5)

    def test_signs_are_balanced(self):
        x, _, _ = sample_pairs(ToyPairSampler(1.0), 20000, rng(2))
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert abs(x.mean()) < 0.03  # ~4 binomial standard errors

    def test_seeded_determinism(self):
        a = sample_pairs(ToyPairSampler(0.5), 100, rng(3))
        b = sample_pairs(ToyPairSampler(0.5), 100, rng(3))
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_positive_variance_required(self, sigma2):
        with pytest.raises(ConfigError, match="^sigma2 must be finite and > 0.0, got "):
            ToyPairSampler(sigma2)


class TestOracle:
    def test_deterministic_channel_reaches_ln2(self):
        est = mi_oracle(ToyPairSampler(1e-6), n=20000, rng=rng(4))
        assert est.value == pytest.approx(math.log(2.0), abs=0.01)

    def test_infinite_noise_reaches_zero(self):
        est = mi_oracle(ToyPairSampler(1e6), n=20000, rng=rng(5))
        assert est.value == pytest.approx(0.0, abs=0.01)

    def test_bounded_between_zero_and_ln2(self):
        for s2 in (0.1, 0.5, 1.0, 4.0):
            est = mi_oracle(ToyPairSampler(s2), n=20000, rng=rng(6))
            assert est.value >= -3 * est.standard_error
            assert est.value <= math.log(2.0) + 3 * est.standard_error

    def test_monotone_decreasing_in_noise(self):
        values = [
            mi_oracle(ToyPairSampler(s2), n=20000, rng=rng(7)).value
            for s2 in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_larger_sample_agrees_within_stderr(self):
        small = mi_oracle(ToyPairSampler(1.0), n=20000, rng=rng(8))
        big = mi_oracle(ToyPairSampler(1.0), n=200000, rng=rng(9))
        assert abs(small.value - big.value) <= 3 * small.standard_error

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            mi_oracle(ToyPairSampler(1.0), n=10, rng=rng(10))
        with pytest.raises(ValueError, match="an rng"):  # no silent default seed
            mi_oracle(ToyPairSampler(1.0))


class TestDvEstimate:
    def test_zero_network_gives_zero(self):
        net = Mlp([2, 4, 1], rng(11))
        for p in net.params():
            p.data[...] = 0.0
        x, y, _ = sample_pairs(ToyPairSampler(1.0), 64, rng(12))
        assert float(dv_estimate(frozen(net), x, y).data) == 0.0

    def test_needs_two_pairs(self):
        net = Mlp([2, 4, 1], rng(13))
        with pytest.raises(ValueError):
            dv_estimate(frozen(net), np.array([1.0]), np.array([1.0]))

    def test_is_the_shared_dv_bound(self):
        """The case study's estimate is mi.dv_bound on [x, y] against
        [x_{i+1}, y], to the byte."""
        net = Mlp([2, 8, 1], rng(18))
        x, y, _ = sample_pairs(ToyPairSampler(0.5), 257, rng(19))
        shared = dv_bound(net, T.constant(np.column_stack([x, y])),
                          T.constant(np.column_stack([np.roll(x, -1), y]))).value
        assert dv_estimate(frozen(net), x, y).data.tobytes() == shared.data.tobytes()

    def test_head_enters_as_constants(self):
        """Neither call computes a head gradient; rho's gradient is bitwise
        the one a head with live weights gives."""
        net = Mlp([2, 8, 1], rng(24))
        x, y, eps = sample_pairs(ToyPairSampler(0.5), 1029, rng(25))  # three row blocks
        assert not dv_estimate(frozen(net), x, y).requires_grad

        def rho_grad(estimate):
            rho = Tensor(math.log(0.5))
            y_live = T.constant(x[:, None]) + T.exp(0.5 * rho) * T.constant(eps[:, None])
            estimate(y_live).backward()
            return rho.grad

        from_frozen = rho_grad(lambda y_live: dv_estimate(frozen(net), x, y, y_tensor=y_live))
        assert all(p.grad is None for p in net.params())
        live = rho_grad(lambda y_live: dv_bound(
            net, T.concat([T.constant(x[:, None]), y_live], axis=1),
            T.concat([T.constant(np.roll(x, -1)[:, None]), y_live], axis=1)).value)
        assert all(p.grad is not None for p in net.params())
        assert from_frozen.tobytes() == live.tobytes()


class TestRunCaseStudy:
    def test_outer_step_leaves_no_head_gradient(self, monkeypatch):
        made = []

        def recorded_mlp(widths, init_rng):
            made.append(Mlp(widths, init_rng))
            return made[-1]

        monkeypatch.setattr("gib.case_study.Mlp", recorded_mlp)
        run_case_study(CaseStudyConfig(epochs=2, inner_steps=3, samples_per_epoch=600,
                                       inner_batch=256, warmup_steps=2, seed=23))
        assert all(p.grad is None for p in made[0].params())

    def test_one_frozen_head_per_run(self, monkeypatch):
        """The run freezes its head once, and both estimates of every epoch
        read that copy."""
        copies, heads = [], []

        def recorded_copy(module, params):
            copies.append(frozen_copy(module, params))
            return copies[-1]

        def recorded_estimate(head, x, y, y_tensor=None):
            heads.append(head)
            return dv_estimate(head, x, y, y_tensor)

        monkeypatch.setattr("gib.case_study.frozen_copy", recorded_copy)
        monkeypatch.setattr("gib.case_study.dv_estimate", recorded_estimate)
        run_case_study(CaseStudyConfig(epochs=3, inner_steps=3, samples_per_epoch=600,
                                       inner_batch=256, warmup_steps=2, seed=26))
        assert len(copies) == 1 and len(heads) == 6
        assert all(head is copies[0] for head in heads)

    def test_trace_shape_and_csv(self, tmp_path):
        cfg = CaseStudyConfig(epochs=3, inner_steps=10, samples_per_epoch=2000,
                              warmup_steps=20, seed=14)
        trace = run_case_study(cfg)
        assert len(trace) == 3
        path = str(tmp_path / "trace.csv")
        write_csv(path, [f.name for f in fields(CaseStudyTraceRow)], [astuple(r) for r in trace])
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,mi_estimate,oracle_mi,sigma2"
        assert len(lines) == 4

    def test_seeded_determinism(self):
        cfg = CaseStudyConfig(epochs=2, inner_steps=5, samples_per_epoch=1000,
                              warmup_steps=10, seed=15)
        t1 = run_case_study(cfg)
        t2 = run_case_study(cfg)
        assert [(r.mi_estimate, r.oracle_mi, r.sigma2) for r in t1] == [
            (r.mi_estimate, r.oracle_mi, r.sigma2) for r in t2
        ]

    def test_fixed_sigma2_stays_fixed(self):
        cfg = CaseStudyConfig(epochs=2, inner_steps=5, samples_per_epoch=1000,
                              warmup_steps=10, seed=16, sigma2_fixed=0.7)
        trace = run_case_study(cfg)
        assert all(r.sigma2 == pytest.approx(0.7) for r in trace)

    def test_noise_grows_when_minimizing(self):
        cfg = CaseStudyConfig(epochs=8, inner_steps=40, samples_per_epoch=4000,
                              warmup_steps=100, seed=17)
        trace = run_case_study(cfg)
        assert trace[-1].sigma2 > trace[0].sigma2

    def test_divergence_names_the_phase_and_step(self, monkeypatch):
        def poisoned_mlp(widths, init_rng):
            net = Mlp(widths, init_rng)
            net.weights[0].data[...] = np.nan
            return net

        monkeypatch.setattr("gib.case_study.Mlp", poisoned_mlp)
        cfg = CaseStudyConfig(epochs=1, inner_steps=2, samples_per_epoch=100,
                              warmup_steps=3, seed=22)
        with pytest.raises(FloatingPointError) as err:
            run_case_study(cfg)
        assert str(err.value).startswith("warmup: inner step 0: estimator diverged")

    def test_non_finite_outer_loss_names_the_epoch_and_keeps_rho(self, monkeypatch):
        real_estimate, outer = dv_estimate, []

        def poisoned_outer(statnet, x, y, y_tensor=None):
            estimate = real_estimate(statnet, x, y, y_tensor)
            return estimate if y_tensor is None else estimate * float("nan")

        class Recorded(Adam):
            def __init__(self, params, lr):
                super().__init__(params, lr)
                outer.append(self)

        monkeypatch.setattr("gib.case_study.dv_estimate", poisoned_outer)
        monkeypatch.setattr("gib.case_study.Adam", Recorded)
        cfg = CaseStudyConfig(epochs=2, inner_steps=2, samples_per_epoch=300,
                              inner_batch=128, warmup_steps=0, seed=24)
        with pytest.raises(FloatingPointError) as err:
            run_case_study(cfg)
        assert str(err.value) == "epoch 1 (sigma2=0.25): outer step diverged"
        (rho,) = outer[0].params
        assert float(rho.data) == math.log(0.25) and outer[0].t == 0

    @pytest.mark.parametrize("key,value", [
        ("sigma2_init", 0.0), ("lr_inner", -1.0), ("lr_outer", 0.0), ("sigma2_fixed", 0.0),
        ("epochs", 0), ("inner_steps", 0), ("hidden", 0), ("samples_per_epoch", 1),
        ("inner_batch", 1), ("warmup_steps", -1), ("sigma2_init", float("nan")),
        ("sigma2_fixed", float("inf")),
    ])
    def test_invalid_config_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            run_case_study(CaseStudyConfig(**{key: value}))

    def test_trace_pinned_bitwise(self, kernel_pin):
        # recorded with every leaf on the tape and zero-filled gradient
        # buffers; leaving constants off the tape must not move a single bit
        cfg = CaseStudyConfig(epochs=3, inner_steps=10, samples_per_epoch=2000,
                              inner_batch=512, warmup_steps=20, hidden=16, seed=21)
        trace = run_case_study(cfg)
        assert [(r.mi_estimate, r.oracle_mi, r.sigma2) for r in trace] == kernel_pin({"SkylakeX": [
            (0.03757403110750164, 0.6378197643165525, 0.25),
            (0.062356790948026125, 0.6303228778460828, 0.2628177268994383),
            (0.09575755210570136, 0.6212801868962811, 0.27603880945338316),
        ], "Haswell": [
            (0.03757403110750135, 0.6378197643165525, 0.25),
            (0.06235679094802647, 0.6303228778460828, 0.2628177268994383),
            (0.09575755210570153, 0.6212801868962811, 0.27603880945338316),
        ]})
