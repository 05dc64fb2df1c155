"""Tests for repro.core.kernels — the compiled best-response kernel.

The kernel's contract is *bit-identity*: every threshold vector, every
``V(γ)``, every α/Q readout must equal the uncompiled
:class:`repro.core.meanfield.MeanFieldMap` path exactly — including
boundary ties ``U == f(m|θ)`` — so that compiling is purely a speed
choice and never changes a published number.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    best_response_thresholds,
    optimal_threshold_from_surcharge,
    threshold_staircase,
)
from repro.core.edge_delay import (
    PAPER_DELAY_MODEL,
    LinearDelay,
    PowerDelay,
    ReciprocalDelay,
)
from repro.core.kernels import (
    MAX_ANCHORS,
    CompiledMeanField,
    KernelStats,
    compile_mean_field,
)
from repro.core.meanfield import MeanFieldMap
from repro.core.tro import offload_probability, queue_and_offload
from repro.obs import MetricsRegistry, ObsRecorder, use_recorder
from repro.population.distributions import Deterministic, Uniform
from repro.population.sampler import PopulationConfig, sample_population

pytestmark = pytest.mark.kernels

#: Delay models spanning the shapes the repo supports (paper model first).
DELAY_MODELS = (
    PAPER_DELAY_MODEL,
    ReciprocalDelay(headroom=2.0, scale=3.0),
    LinearDelay(base=0.5, slope=2.0),
    PowerDelay(),
)


def _random_population(seed: int, n_users: int, a_max: float = 4.0,
                       capacity: float = 10.0):
    """A heterogeneous draw in the paper's Section IV-A style."""
    config = PopulationConfig(
        arrival=Uniform(0.0, a_max),
        service=Uniform(1.0, 5.0),
        latency=Uniform(0.0, 1.0),
        energy_local=Uniform(0.0, 3.0),
        energy_offload=Uniform(0.0, 1.0),
        capacity=capacity,
    )
    return sample_population(config, n_users, rng=seed)


class _ReferenceMap(MeanFieldMap):
    """The uncompiled map: the solvers compile only exact MeanFieldMaps."""


class _ColdProbeKernel(CompiledMeanField):
    """A kernel without a probe state: the solvers probe it cold."""

    def probe_state(self):
        return None


def _deterministic_population(n_users: int, *, arrival: float, service: float,
                              latency: float = 0.0, energy_local: float = 0.0,
                              energy_offload: float = 0.0,
                              capacity: float = 10.0):
    """Every user identical — for crafting exact boundary ties."""
    config = PopulationConfig(
        arrival=Deterministic(arrival),
        service=Deterministic(service),
        latency=Deterministic(latency),
        energy_local=Deterministic(energy_local),
        energy_offload=Deterministic(energy_offload),
        capacity=capacity,
    )
    return sample_population(config, n_users, rng=0)


class TestThresholdEquivalence:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_users=st.integers(10, 120),
        model_index=st.integers(0, len(DELAY_MODELS) - 1),
        gammas=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_thresholds_and_value_bit_identical(
            self, seed, n_users, model_index, gammas):
        """Element-for-element threshold equality and V(γ) bit-identity
        over random heterogeneous populations, γ grids, and every delay
        model shape."""
        population = _random_population(seed, n_users)
        delay_model = DELAY_MODELS[model_index]
        uncompiled = MeanFieldMap(population, delay_model)
        kernel = uncompiled.compile()
        for gamma in gammas:
            expected = best_response_thresholds(
                population, delay_model(gamma))
            probed = kernel.thresholds(gamma)
            assert probed.dtype == expected.dtype
            np.testing.assert_array_equal(probed, expected)
            assert kernel.value(gamma) == uncompiled.value(gamma)

    @pytest.mark.parametrize("delay_model", DELAY_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_gamma_grid_dense(self, small_population, delay_model):
        """A dense γ sweep on the shared 500-user fixture — the exact
        workload the MFNE bisection issues."""
        uncompiled = MeanFieldMap(small_population, delay_model)
        kernel = uncompiled.compile()
        for gamma in np.linspace(0.0, 1.0, 41):
            gamma = float(gamma)
            np.testing.assert_array_equal(
                kernel.thresholds(gamma), uncompiled.best_response(gamma))
            assert kernel.value(gamma) == uncompiled.value(gamma)

    @pytest.mark.parametrize("base,expected", [(1.0, 1), (3.0, 2), (6.0, 3)])
    def test_boundary_tie_keeps_floor(self, base, expected):
        """U exactly on a breakpoint must settle at that step, both paths.

        θ = 1 gives f(m|1) = m(m+1)/2 ∈ {1, 3, 6, …} exactly; with a = 1,
        τ = 0, p_E = p_L and a flat delay g ≡ base, the comparison value
        U = base lands *on* f(m|1) with no rounding anywhere.
        """
        population = _deterministic_population(8, arrival=1.0, service=1.0)
        delay_model = LinearDelay(base=base, slope=0.0)
        assert threshold_staircase(expected, 1.0) == base  # the tie is exact
        kernel = compile_mean_field(population, delay_model)
        for gamma in (0.0, 0.5, 1.0):
            expected_vec = best_response_thresholds(
                population, delay_model(gamma))
            np.testing.assert_array_equal(
                kernel.thresholds(gamma), expected_vec)
            assert np.all(expected_vec == expected)

    def test_zero_threshold_population(self):
        """Offload-everything fleets compile to empty breakpoint arrays."""
        population = _deterministic_population(
            5, arrival=1.0, service=1.0, energy_local=50.0)
        kernel = compile_mean_field(population, PAPER_DELAY_MODEL)
        assert kernel.stats.breakpoints_total == 0
        np.testing.assert_array_equal(
            kernel.thresholds(0.0), np.zeros(5, dtype=np.int64))
        uncompiled = MeanFieldMap(population, PAPER_DELAY_MODEL)
        assert kernel.value(0.7) == uncompiled.value(0.7)
        probe = kernel.probe_state()
        for gamma in (0.7, 0.2, 0.7):
            assert kernel.value(gamma, probe=probe) == uncompiled.value(gamma)


class TestScalarProbes:
    @given(seed=st.integers(0, 2**31 - 1),
           gamma=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_user_threshold_matches_scalar_search(self, seed, gamma):
        """The per-user probe equals the scalar staircase search the
        online simulator and net devices previously ran themselves."""
        population = _random_population(seed, 40)
        kernel = compile_mean_field(population, PAPER_DELAY_MODEL)
        delay = PAPER_DELAY_MODEL(gamma)
        for index in range(population.size):
            surcharge = (delay
                         + population.offload_latencies[index]
                         + population.weights[index]
                         * (population.energy_offload[index]
                            - population.energy_local[index]))
            expected = optimal_threshold_from_surcharge(
                float(population.arrival_rates[index]),
                float(population.intensities[index]),
                float(surcharge),
            )
            assert kernel.user_threshold(index, gamma) == expected

    def test_user_alpha_and_queue_match_tro(self, small_population):
        kernel = compile_mean_field(small_population, PAPER_DELAY_MODEL)
        thresholds = kernel.thresholds(0.4)
        for index in range(0, small_population.size, 61):
            m = int(thresholds[index])
            theta = float(small_population.intensities[index])
            assert kernel.user_alpha(index, m) == \
                offload_probability(m, theta)
            q, _ = queue_and_offload(float(m), theta)
            assert kernel.user_queue_length(index, m) == q


class TestTableReadouts:
    def test_utilization_gather_matches_closed_form(self, small_population):
        uncompiled = MeanFieldMap(small_population, PAPER_DELAY_MODEL)
        kernel = uncompiled.compile()
        thresholds = kernel.thresholds(0.3)
        assert kernel.utilization(thresholds) == \
            uncompiled.utilization(thresholds)
        np.testing.assert_array_equal(
            kernel.offload_probabilities(thresholds),
            uncompiled.offload_probabilities(thresholds))

    def test_fractional_thresholds_fall_back(self, small_population):
        """Non-integer thresholds (DPO-style policies) bypass the tables
        and still agree with the uncompiled closed form."""
        uncompiled = MeanFieldMap(small_population, PAPER_DELAY_MODEL)
        kernel = uncompiled.compile()
        fractional = kernel.thresholds(0.3).astype(float) + 0.5
        assert kernel.utilization(fractional) == \
            uncompiled.utilization(fractional)
        np.testing.assert_array_equal(
            kernel.offload_probabilities(fractional),
            uncompiled.offload_probabilities(fractional))

    def test_out_of_range_thresholds_fall_back(self, small_population):
        """Integer thresholds above M_n can't use the tables; the fallback
        must still be exact."""
        uncompiled = MeanFieldMap(small_population, PAPER_DELAY_MODEL)
        kernel = uncompiled.compile()
        beyond = kernel._max_thresholds + 3
        assert kernel.utilization(beyond) == uncompiled.utilization(beyond)

    def test_queue_and_offload_gather(self, small_population):
        kernel = compile_mean_field(small_population, PAPER_DELAY_MODEL)
        thresholds = kernel.thresholds(0.6)
        q, alpha = kernel.queue_and_offload(thresholds)
        q_ref, alpha_ref = queue_and_offload(
            thresholds.astype(float), small_population.intensities)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(alpha, alpha_ref)


class TestKernelMechanics:
    def test_compile_returns_drop_in_subclass(self, mean_field):
        kernel = mean_field.compile()
        assert isinstance(kernel, CompiledMeanField)
        assert isinstance(kernel, MeanFieldMap)
        assert kernel.population is mean_field.population
        assert kernel.delay_model is mean_field.delay_model

    def test_stats(self, mean_field):
        kernel = mean_field.compile()
        stats = kernel.stats
        assert isinstance(stats, KernelStats)
        assert stats.n_users == mean_field.population.size
        assert stats.table_entries == stats.breakpoints_total + stats.n_users
        assert stats.max_threshold >= 1
        assert stats.bytes > 0
        assert "breakpoints" in str(stats)

    def test_breakpoints_are_the_search_recurrence(self, small_population):
        """Spot-check stored f(m|θ) against a scalar replay of the
        incremental recurrence — same floats, not just close ones."""
        kernel = compile_mean_field(small_population, PAPER_DELAY_MODEL)
        kernel.materialize()      # lazy builds defer the breakpoint image
        for index in range(0, small_population.size, 97):
            m_max = int(kernel._max_thresholds[index])
            if m_max == 0:
                continue
            theta = float(small_population.intensities[index])
            power = geometric = staircase = theta
            segment = [staircase]
            for _ in range(1, m_max):
                power *= theta
                geometric += power
                staircase += geometric
                segment.append(staircase)
            start = int(kernel._starts[index])
            np.testing.assert_array_equal(
                kernel._breakpoints[start:start + m_max], segment)

    def test_obs_counters(self, mean_field):
        registry = MetricsRegistry()
        with use_recorder(ObsRecorder(registry)):
            kernel = mean_field.compile()
            kernel.value(0.3)
            kernel.value(0.7)
            kernel.thresholds(0.5)
        assert registry.counter("kernel.builds").value == 1
        assert registry.counter("kernel.value_evaluations").value == 2
        # accounting parity with the uncompiled map
        assert registry.counter("meanfield.value_evaluations").value == 2
        # value() probes thresholds internally without double-counting
        assert registry.counter("kernel.threshold_evaluations").value == 1
        assert registry.counter("kernel.breakpoints_total").value == \
            kernel.stats.breakpoints_total


class TestSolverIntegration:
    def test_solve_mfne_bit_identical(self, mean_field):
        from repro.core.equilibrium import solve_mfne

        compiled = solve_mfne(mean_field)               # auto-compiles
        uncompiled = solve_mfne(
            _ReferenceMap(mean_field.population, mean_field.delay_model))
        assert compiled.utilization == uncompiled.utilization
        assert compiled.value == uncompiled.value
        assert compiled.iterations == uncompiled.iterations
        assert compiled.history == uncompiled.history

    def test_run_dtu_bit_identical(self, mean_field):
        from repro.core.dtu import DtuConfig, run_dtu

        config = DtuConfig(seed=11, update_probability=0.8)
        compiled = run_dtu(mean_field, config)          # auto-compiles
        uncompiled = run_dtu(
            _ReferenceMap(mean_field.population, mean_field.delay_model),
            config)
        assert compiled.estimated_utilization == \
            uncompiled.estimated_utilization
        assert compiled.actual_utilization == uncompiled.actual_utilization
        assert compiled.iterations == uncompiled.iterations
        np.testing.assert_array_equal(
            compiled.trace.estimated_utilization,
            uncompiled.trace.estimated_utilization)

    def test_cost_bookkeeping_bit_identical(self, mean_field):
        """The DTU loop's per-iteration ``average_cost``/``user_costs`` go
        through the kernel's (Q, α) tables and must match the uncompiled
        closed-form path float for float (including the mean reduction)."""
        kernel = mean_field.compile()
        gamma = 0.3
        thresholds = mean_field.best_response(gamma).astype(float)
        np.testing.assert_array_equal(
            kernel.user_costs(gamma, thresholds),
            mean_field.user_costs(gamma, thresholds))
        assert kernel.average_cost(gamma, thresholds) == \
            mean_field.average_cost(gamma, thresholds)
        assert kernel.average_cost(gamma) == mean_field.average_cost(gamma)

    def test_cost_bookkeeping_fractional_fallback(self, mean_field):
        """Fractional thresholds (DPO-style) miss the tables and fall back
        to the closed form — still bit-identical."""
        kernel = mean_field.compile()
        thresholds = mean_field.best_response(0.3) + 0.5
        np.testing.assert_array_equal(
            kernel.user_costs(0.3, thresholds),
            mean_field.user_costs(0.3, thresholds))
        assert kernel.average_cost(0.3, thresholds) == \
            mean_field.average_cost(0.3, thresholds)


class TestLazyTables:
    """Lever 2: deferred probe layout + on-demand α/Q fill, byte-equal."""

    def test_lazy_matches_eager_byte_equal(self, small_population):
        lazy = CompiledMeanField(small_population)
        eager = CompiledMeanField(small_population).materialize()
        # Gather through the lazy kernel in an arbitrary order first.
        for gamma in (0.7, 0.0, 0.3):
            assert lazy.value(gamma) == eager.value(gamma)
        lazy.materialize()
        np.testing.assert_array_equal(lazy._alpha_table, eager._alpha_table)
        assert lazy._alpha_table.tobytes() == eager._alpha_table.tobytes()
        assert lazy._queue_table.tobytes() == eager._queue_table.tobytes()
        assert lazy._breakpoints.tobytes() == eager._breakpoints.tobytes()

    def test_materialize_before_any_gather_byte_equal(self, small_population):
        """The chunked eager fill equals one elementwise tro evaluation of
        every reachable (m, θ_n) entry."""
        kernel = CompiledMeanField(small_population).materialize()
        counts = kernel._max_thresholds
        levels = np.concatenate([np.arange(m + 1) for m in counts])
        queue, alpha = queue_and_offload(
            levels.astype(float),
            np.repeat(small_population.intensities, counts + 1))
        assert kernel._alpha_table.tobytes() == alpha.tobytes()
        assert kernel._queue_table.tobytes() == queue.tobytes()

    def test_table_gather_only_never_builds_probe_layout(
            self, small_population):
        """A kernel used purely for α/Q gathers skips the probe image."""
        kernel = CompiledMeanField(small_population)
        thresholds = np.ones(small_population.size)
        kernel.offload_probabilities(thresholds)
        assert kernel._probe_breakpoints is None
        kernel.value(0.5)        # first probe builds it
        assert kernel._probe_breakpoints is not None


class TestWarmProbes:
    """Lever 3: bracketed probes, trajectory bit-identity with cold ones."""

    def test_solve_mfne_warm_vs_cold_identical(self, mean_field):
        from repro.core.equilibrium import solve_mfne

        kernel = mean_field.compile()
        warm = solve_mfne(kernel)
        cold = solve_mfne(_ColdProbeKernel.with_shared_tables(
            kernel, kernel.population, kernel.delay_model))
        assert warm.history == cold.history
        assert warm.utilization == cold.utilization
        assert warm.value == cold.value
        assert warm.iterations == cold.iterations

    def test_run_dtu_warm_vs_cold_identical(self, mean_field):
        from repro.core.dtu import DtuConfig, run_dtu

        kernel = mean_field.compile()
        config = DtuConfig(seed=11, update_probability=0.8)
        warm = run_dtu(kernel, config)
        cold = run_dtu(_ColdProbeKernel.with_shared_tables(
            kernel, kernel.population, kernel.delay_model), config)
        assert warm.estimated_utilization == cold.estimated_utilization
        assert warm.actual_utilization == cold.actual_utilization
        np.testing.assert_array_equal(
            warm.trace.estimated_utilization,
            cold.trace.estimated_utilization)
        np.testing.assert_array_equal(
            warm.trace.thresholds, cold.trace.thresholds)

    def test_probe_grid_values_identical(self, mean_field):
        kernel = mean_field.compile()
        probe = kernel.probe_state()
        for gamma in np.linspace(0.0, 1.0, 21):
            gamma = float(gamma)
            assert kernel.value(gamma, probe=probe) == kernel.value(gamma)

    def test_probe_of_other_kernel_rejected(self, small_population):
        first = CompiledMeanField(small_population)
        second = CompiledMeanField(small_population)
        foreign = first.probe_state()
        thresholds = first.thresholds(0.5, probe=foreign)
        with pytest.raises(ValueError, match="different kernel"):
            second.value(0.5, probe=foreign)
        with pytest.raises(ValueError, match="different kernel"):
            second.thresholds(0.5, probe=foreign)
        with pytest.raises(ValueError, match="different kernel"):
            second.utilization(thresholds, probe=foreign)
        with pytest.raises(ValueError, match="different kernel"):
            second.user_costs(0.5, thresholds, probe=foreign)
        with pytest.raises(ValueError, match="different kernel"):
            second.average_cost(0.5, thresholds, probe=foreign)


#: γ values that land exactly on a breakpoint of the tie populations
#: below (θ = 1, a = 1, g = 6γ: U ∈ {1, 3, 6} = f(1|1), f(2|1), f(3|1)),
#: and their neighbours one ulp down, whose counts are one lower.
_TIE_GAMMAS = (0.0, 1.0 / 6.0, 0.5, 1.0)
_NEAR_TIES = tuple(float(np.nextafter(g, 0.0)) for g in _TIE_GAMMAS[1:])

_gamma_lists = st.lists(
    st.one_of(st.sampled_from(_TIE_GAMMAS + _NEAR_TIES),
              st.floats(0.0, 1.0, allow_nan=False)),
    min_size=3, max_size=12)


def _probe_sequence(gammas):
    """Repeats, a reversal, both ends, a probe one ulp below 1, and more
    probes than anchors."""
    return (gammas + gammas[::-1] + [0.0, 1.0, _NEAR_TIES[-1]]
            + gammas[:MAX_ANCHORS])


class TestBracketedProbes:
    """Bracketed probes and response columns against probe-less calls."""

    @staticmethod
    def _check_probes(kernel, gammas):
        by_thresholds = kernel.probe_state()
        by_value = kernel.probe_state()
        for gamma in gammas:
            expected = kernel.thresholds(gamma)
            probed = kernel.thresholds(gamma, probe=by_thresholds)
            assert probed.dtype == expected.dtype
            np.testing.assert_array_equal(probed, expected)
            assert kernel.value(gamma, probe=by_value) == kernel.value(gamma)
            assert len(by_thresholds.anchors) <= MAX_ANCHORS
            assert len(by_value.anchors) <= MAX_ANCHORS

    @staticmethod
    def _check_columns(kernel, probe, gamma, other):
        """The five inputs: the last response as int and as float, one
        entry changed, fractional thresholds, an asynchronous mix."""
        last = kernel.thresholds(gamma, probe=probe)
        changed = last.copy()
        changed[0] += 1
        mix = np.where(np.arange(last.size) % 2 == 0, last,
                       kernel.thresholds(other)).astype(float)
        for x in (last, last.astype(float), changed, last + 0.5, mix):
            assert kernel.utilization(x, probe=probe) == \
                kernel.utilization(x)
            np.testing.assert_array_equal(
                kernel.user_costs(gamma, x, probe=probe),
                kernel.user_costs(gamma, x))
            assert kernel.average_cost(gamma, x, probe=probe) == \
                kernel.average_cost(gamma, x)
        assert kernel.average_cost(gamma, probe=probe) == \
            kernel.average_cost(gamma)

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_users=st.integers(10, 80),
        model_index=st.integers(0, len(DELAY_MODELS) - 1),
        gammas=_gamma_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_random_populations(self, seed, n_users, model_index, gammas):
        population = _random_population(seed, n_users)
        kernel = compile_mean_field(population, DELAY_MODELS[model_index])
        sequence = _probe_sequence(gammas)
        self._check_probes(kernel, sequence)
        probe = kernel.probe_state()
        for gamma, other in zip(sequence, sequence[1:]):
            self._check_columns(kernel, probe, gamma, other)

    @given(gammas=_gamma_lists)
    @settings(max_examples=30, deadline=None)
    def test_tie_population(self, gammas):
        """Comparison values landing exactly on breakpoints at the tie γ
        and one ulp below them (see ``_TIE_GAMMAS``)."""
        population = _deterministic_population(6, arrival=1.0, service=1.0)
        kernel = compile_mean_field(population,
                                    LinearDelay(base=0.0, slope=6.0))
        sequence = _probe_sequence(gammas)
        self._check_probes(kernel, sequence)
        probe = kernel.probe_state()
        for gamma, other in zip(sequence, sequence[1:]):
            self._check_columns(kernel, probe, gamma, other)

    def test_solvers_call_the_traced_methods(self, mean_field, monkeypatch):
        """The benchmark tracer times ``value``, ``best_response`` and
        ``utilization`` by name; the solvers must reach the kernel
        through them, once per evaluation."""
        from repro.core.dtu import run_dtu
        from repro.core.equilibrium import solve_mfne

        calls = {}
        for name in ("value", "best_response", "utilization"):
            original = getattr(CompiledMeanField, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(CompiledMeanField, name, counted)
        kernel = mean_field.compile()
        mfne = solve_mfne(kernel)
        dtu = run_dtu(kernel)
        assert calls == {"value": mfne.iterations + 3,
                         "best_response": dtu.iterations + 1,
                         "utilization": dtu.iterations + 1}

    def test_counters_repeat_and_stay_bounded(self, mean_field):
        """Bracket and column counters: identical across two runs on one
        population, and never more re-searched users than probes·N."""
        from repro.core.dtu import DtuConfig, run_dtu
        from repro.core.equilibrium import solve_mfne

        def counters():
            registry = MetricsRegistry()
            with use_recorder(ObsRecorder(registry)):
                kernel = mean_field.compile()
                solve_mfne(kernel)
                run_dtu(kernel)
                run_dtu(kernel, DtuConfig(seed=11, update_probability=0.8))
            return {name: registry.counter(name).value for name in (
                "kernel.bracket_users", "kernel.bracket_hits",
                "kernel.column_reuses", "kernel.column_fallbacks",
                "kernel.value_evaluations",
                "kernel.threshold_evaluations")}

        first = counters()
        assert counters() == first
        probes = first["kernel.value_evaluations"] \
            + first["kernel.threshold_evaluations"]
        assert 0 < first["kernel.bracket_users"] \
            <= probes * mean_field.population.size
        assert first["kernel.bracket_hits"] > 0
        assert first["kernel.column_reuses"] > 0      # synchronous DTU
        assert first["kernel.column_fallbacks"] > 0   # asynchronous mixes
