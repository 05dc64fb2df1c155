"""Multi-edge extension: several edge sites with distinct delays.

The paper models one edge with capacity ``N·c``. Real deployments have
several sites (a WiFi MEC rack, a 5G MEC, a regional cloud) with different
capacities, congestion curves, and per-user network latencies. This module
extends the mean-field machinery to ``m`` sites:

* each user ``i`` sees a per-site offloading latency ``τ_{ij}``;
* given the utilisation vector ``γ = (γ_1..γ_m)``, a user's *offload
  price* at site ``j`` is ``g_j(γ_j) + τ_{ij}``. For a fixed site the
  optimal threshold is Lemma 1 with that price, and the achieved optimal
  cost is non-decreasing in the price — so the best site is simply
  ``argmin_j (g_j(γ_j) + τ_{ij})``, after which Lemma 1 applies unchanged;
* the equilibrium is a fixed point of the vector best-response map
  ``V : [0,1]^m → [0,1]^m`` where
  ``V_j(γ) = Σ_{i → j} a_i α_i / (N c_j)``.

Unlike the scalar case, ``V`` is not monotone (users switch sites), so the
solver uses damped fixed-point iteration with a residual certificate
rather than bisection; a DTU-style distributed algorithm with per-site
estimated utilisations is provided as well and converges in the same ~20
iterations as the paper's single-site version.

Compiled evaluation
-------------------
Each site gets its own :class:`~repro.core.kernels.CompiledMeanField`,
but the sites share one population — their shadow deployments differ only
in the latency vector ``τ_{·j}`` and the congestion curve ``g_j``. The
system therefore builds a single *envelope* base kernel (per-user latency
``max_j (τ_{ij} + g_j(1))`` under a zero delay model, so every site's
reachable staircase is covered by construction) and shares its
breakpoint/α/Q tables across all ``m`` site kernels via
:meth:`CompiledMeanField.with_shared_tables` — compile cost is O(unique
profiles), not O(m · N · m_max). The vector best response then runs as
``m`` batched ``user_thresholds``/``user_alphas`` probes, bit-identical
to the per-price scalar scan :func:`_thresholds_for_prices` (pinned by
``tests/test_multiedge.py``).

With a single site the system degenerates to the paper's model: when the
lone site can stand alone (``a_n < c_1`` for every user),
:func:`solve_multiedge_equilibrium` and :func:`run_multiedge_dtu`
delegate to the scalar :func:`~repro.core.equilibrium.solve_mfne` /
:func:`~repro.core.dtu.run_dtu` and reproduce their γ̂ bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.best_response import best_response_thresholds
from repro.core.dtu import DtuConfig, DtuStepper, regrow_rule, run_dtu
from repro.core.edge_delay import EdgeDelayModel, LinearDelay, ReciprocalDelay
from repro.core.equilibrium import solve_mfne
from repro.core.kernels import CompiledMeanField
from repro.core.tro import queue_and_offload
from repro.obs.context import get_recorder
from repro.population.distributions import Distribution, Uniform
from repro.population.sampler import Population
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int_positive, check_positive


@dataclass(frozen=True)
class EdgeSite:
    """One edge location: its share of capacity and its congestion curve."""

    name: str
    capacity_per_user: float          # c_j  (γ_j = load_j / (N c_j))
    delay_model: EdgeDelayModel
    latency: Distribution             # per-user mean offload latency to here

    def __post_init__(self) -> None:
        check_positive("capacity_per_user", self.capacity_per_user)


#: The capacity split and congestion curves of the three-tier deployment
#: (near/fast WiFi rack, mid 5G MEC, far/big regional cloud) that
#: :func:`tiered_sites` cycles through. Weights follow the 3:4:8 capacity
#: ratio of the canonical three-site example.
_TIER_TEMPLATES = (
    ("wifi-mec", 3.0, ReciprocalDelay(1.1, 0.5), (0.0, 0.2)),
    ("5g-mec", 4.0, ReciprocalDelay(1.2, 1.0), (0.1, 0.5)),
    ("cloud", 8.0, ReciprocalDelay(1.5, 2.0), (0.3, 0.9)),
)


def tiered_sites(
    n_sites: int,
    total_capacity: float = 15.0,
    latency_step: float = 0.05,
) -> List[EdgeSite]:
    """A deterministic ``m``-site deployment cycling the three tiers.

    Capacities are the tier weights renormalised so ``Σ c_j`` equals
    ``total_capacity`` whatever ``n_sites`` is — scaling rows with
    different site counts then face the same aggregate capacity and stay
    comparable. Each extra cycle through the tiers sits ``latency_step``
    farther away (replica racks are progressively more remote), so sites
    are never interchangeable and the argmin has real work to do.
    """
    check_int_positive("n_sites", n_sites)
    check_positive("total_capacity", total_capacity)
    weights = [_TIER_TEMPLATES[j % len(_TIER_TEMPLATES)][1]
               for j in range(n_sites)]
    scale = total_capacity / sum(weights)
    sites = []
    for j in range(n_sites):
        name, weight, delay_model, (lo, hi) = \
            _TIER_TEMPLATES[j % len(_TIER_TEMPLATES)]
        shift = latency_step * (j // len(_TIER_TEMPLATES))
        sites.append(EdgeSite(
            name=f"{name}-{j}",
            capacity_per_user=weight * scale,
            delay_model=delay_model,
            latency=Uniform(lo + shift, hi + shift),
        ))
    return sites


def _shadow_population(
    population: Population,
    latencies: np.ndarray,
    capacity: Optional[float] = None,
) -> Population:
    """The population with ``offload_latencies`` (and optionally ``c``)
    replaced — every other profile array is shared by reference, which is
    what lets the site kernels share tables."""
    return Population(
        arrival_rates=population.arrival_rates,
        service_rates=population.service_rates,
        offload_latencies=latencies,
        energy_local=population.energy_local,
        energy_offload=population.energy_offload,
        weights=population.weights,
        capacity=population.capacity if capacity is None else capacity,
    )


class MultiEdgeSystem:
    """A population facing several edge sites.

    Per-user per-site latencies are drawn once at construction (they model
    geography, which does not change between DTU iterations); pass
    ``latencies`` explicitly to pin the matrix instead of sampling it.

    The constructor builds one envelope :class:`CompiledMeanField` plus
    ``m`` shared-table site kernels, and ``best_response``/``utilizations``
    run off batched probes and α-table gathers — bit-identical to the
    per-price scalar scan.
    """

    def __init__(
        self,
        population: Population,
        sites: Sequence[EdgeSite],
        rng: SeedLike = None,
        latencies: Optional[np.ndarray] = None,
    ):
        if not sites:
            raise ValueError("need at least one edge site")
        self.population = population
        self.sites = list(sites)
        if latencies is None:
            gen = as_generator(rng)
            latencies = np.column_stack([
                site.latency.sample_array(gen, population.size)
                for site in self.sites
            ])
        else:
            latencies = np.asarray(latencies, dtype=float)
            if latencies.shape != (population.size, len(self.sites)):
                raise ValueError(
                    f"latencies must have shape "
                    f"({population.size}, {len(self.sites)}), "
                    f"got {latencies.shape}")
        self.latencies = latencies
        if np.any(self.latencies < 0):
            raise ValueError("site latencies must be non-negative")
        total_arrival = float(population.arrival_rates.mean())
        total_capacity = sum(s.capacity_per_user for s in self.sites)
        if total_arrival >= total_capacity:
            raise ValueError(
                "aggregate capacity must exceed mean offered load "
                f"(E[a]={total_arrival:.3g} >= Σc_j={total_capacity:.3g})"
            )
        self.kernels: List[CompiledMeanField] = []
        self.compile()

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    # -- compiled kernels --------------------------------------------------

    def compile(self) -> "MultiEdgeSystem":
        """Build the envelope base kernel and the shared-table site kernels.

        The constructor runs this; later calls return ``self`` unchanged.
        One full ``O(N·m_max)`` build (the envelope deployment, whose
        per-user latency ``max_j (τ_{ij} + g_j(1))`` dominates every
        site's reachable comparison value) plus ``m`` O(N) shares.
        """
        if self.kernels:
            return self
        g_at_one = np.array([site.delay_model(1.0) for site in self.sites])
        envelope = (self.latencies + g_at_one[None, :]).max(axis=1)
        self.base_kernel = CompiledMeanField(
            _shadow_population(self.population, envelope),
            LinearDelay(0.0, 0.0))
        self.kernels = [
            CompiledMeanField.with_shared_tables(
                self.base_kernel,
                _shadow_population(
                    self.population,
                    np.ascontiguousarray(self.latencies[:, j])),
                site.delay_model)
            for j, site in enumerate(self.sites)
        ]
        obs = get_recorder()
        if obs.enabled:
            obs.count("multiedge.compiles")
            obs.event("multiedge.compiled", n_sites=self.n_sites,
                      n_users=self.population.size,
                      breakpoints=int(self.base_kernel.stats.breakpoints_total))
        return self

    def site_population(self, j: int) -> Population:
        """The shadow population site ``j``'s kernel evaluates (original
        aggregate capacity, site latency column)."""
        return _shadow_population(
            self.population, np.ascontiguousarray(self.latencies[:, j]))

    def as_single_site(self) -> Optional[CompiledMeanField]:
        """The scalar mean-field map when ``m == 1`` and it is well posed.

        The paper's model needs ``a_n < c`` for every user; a lone site
        whose ``capacity_per_user`` violates that cannot be expressed as a
        scalar :class:`Population`, so the method returns ``None`` and the
        solvers fall back to the vector path.
        """
        if self.n_sites != 1:
            return None
        site = self.sites[0]
        if np.any(self.population.arrival_rates >= site.capacity_per_user):
            return None
        shadow = _shadow_population(
            self.population, np.ascontiguousarray(self.latencies[:, 0]),
            capacity=site.capacity_per_user)
        return CompiledMeanField.with_shared_tables(
            self.base_kernel, shadow, site.delay_model)

    # -- the vector best-response map --------------------------------------

    def offload_prices(self, utilizations: np.ndarray) -> np.ndarray:
        """``g_j(γ_j) + τ_{ij}`` for every user/site pair (n × m)."""
        gammas = self._check_gammas(utilizations)
        delays = np.array([
            site.delay_model(float(g)) for site, g in zip(self.sites, gammas)
        ])
        return self.latencies + delays[None, :]

    def best_response(self, utilizations: np.ndarray):
        """Per-user (site choice, threshold) given the utilisation vector.

        Returns ``(site_indices, thresholds)``, answered by ``m`` batched
        ``user_thresholds`` probes over the per-site cohorts. The result
        is bit-identical to the per-price scalar scan
        :func:`_thresholds_for_prices` — the probe forms
        ``a·((g_j(γ_j) + τ_{ij}) + w·Δp)``, the scan ``a·((0 + price) +
        w·Δp)`` with ``price = τ_{ij} + g_j(γ_j)``, the same floats in
        either order.
        """
        gammas = self._check_gammas(utilizations)
        site_indices = np.argmin(self.offload_prices(gammas), axis=1)
        thresholds = np.zeros(self.population.size, dtype=np.int64)
        for j, kernel in enumerate(self.kernels):
            chosen = np.flatnonzero(site_indices == j)
            if chosen.size:
                thresholds[chosen] = kernel.user_thresholds(
                    chosen, float(gammas[j]))
        return site_indices, thresholds

    def _site_alphas(self, j: int, chosen: np.ndarray,
                     x: np.ndarray) -> Optional[np.ndarray]:
        """α-table gathers for site ``j``'s cohort, or ``None`` when the
        thresholds are fractional/unreachable and the closed form must
        run instead."""
        kernel = self.kernels[j]
        levels = x[chosen]
        t = levels.astype(np.int64)
        if not np.array_equal(t.astype(float), levels) or np.any(t < 0) \
                or np.any(t > kernel._max_thresholds[chosen]):
            return None
        return kernel.user_alphas(chosen, t)

    def site_loads(self, site_indices: np.ndarray,
                   thresholds: np.ndarray) -> np.ndarray:
        """Raw offered load ``Σ_{i→j} a_i α_i`` at each site.

        The conserved quantity: ``site_loads(...).sum()`` equals the
        population's total offloaded traffic whatever the assignment, while
        :meth:`utilizations` divides by ``N c_j`` and clips.
        """
        pop = self.population
        x = np.asarray(thresholds, dtype=float)
        loads = np.zeros(self.n_sites)
        full_alpha: Optional[np.ndarray] = None
        for j in range(self.n_sites):
            chosen = np.flatnonzero(site_indices == j)
            if chosen.size == 0:
                continue
            alpha = self._site_alphas(j, chosen, x)
            if alpha is None:
                if full_alpha is None:
                    _, full_alpha = queue_and_offload(x, pop.intensities)
                alpha = full_alpha[chosen]
            loads[j] = (pop.arrival_rates[chosen] * alpha).sum()
        return loads

    def utilizations(self, site_indices: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
        """The J1 analogue: per-site utilisation from the users' choices."""
        loads = self.site_loads(site_indices, thresholds)
        gammas = np.zeros(self.n_sites)
        for j in range(self.n_sites):
            gammas[j] = loads[j] / (
                self.population.size * self.sites[j].capacity_per_user
            )
        return np.clip(gammas, 0.0, 1.0)

    def value(self, utilizations: np.ndarray) -> np.ndarray:
        """The vector best-response map ``V(γ)``."""
        site_indices, thresholds = self.best_response(utilizations)
        return self.utilizations(site_indices, thresholds)

    def average_cost(self, utilizations: np.ndarray,
                     site_indices: np.ndarray,
                     thresholds: np.ndarray) -> float:
        """Population-mean cost (Eq. 1 with per-user site prices)."""
        pop = self.population
        prices = self.offload_prices(utilizations)
        chosen = prices[np.arange(pop.size), site_indices]
        x = np.asarray(thresholds, dtype=float)
        q, alpha = queue_and_offload(x, pop.intensities)
        costs = (pop.weights * pop.energy_local * (1.0 - alpha)
                 + q / pop.arrival_rates
                 + (pop.weights * pop.energy_offload + chosen) * alpha)
        return float(costs.mean())

    def _check_gammas(self, utilizations: np.ndarray) -> np.ndarray:
        gammas = np.asarray(utilizations, dtype=float)
        if gammas.shape != (self.n_sites,):
            raise ValueError(f"need {self.n_sites} utilisations")
        if np.any((gammas < 0) | (gammas > 1)):
            raise ValueError("utilisations must lie in [0, 1]")
        return gammas


def _thresholds_for_prices(population: Population,
                           prices: np.ndarray) -> np.ndarray:
    """Lemma-1 thresholds when each user faces its own offload price.

    The scalar reference the site kernels are pinned against.
    """
    shadow = _shadow_population(population, prices)  # price plays the role of τ
    return best_response_thresholds(shadow, edge_delay=0.0)


@dataclass(frozen=True)
class MultiEdgeEquilibrium:
    """A fixed point of the multi-site best-response map."""

    utilizations: np.ndarray
    site_indices: np.ndarray
    thresholds: np.ndarray
    average_cost: float
    residual: float                    # ||V(γ*) − γ*||_∞
    iterations: int
    converged: bool

    def site_shares(self, n_sites: int) -> np.ndarray:
        """Fraction of users whose preferred site is each j."""
        return np.bincount(self.site_indices, minlength=n_sites) / \
            self.site_indices.size


def _finish_equilibrium(system: MultiEdgeSystem, gammas: np.ndarray,
                        iterations: int, converged: bool,
                        method: str) -> MultiEdgeEquilibrium:
    """Realise the best response at ``gammas`` and certify the residual."""
    site_indices, thresholds = system.best_response(gammas)
    realized = system.utilizations(site_indices, thresholds)
    residual = float(np.abs(realized - gammas).max())
    obs = get_recorder()
    if obs.enabled:
        obs.event("multiedge.solved", method=method, n_sites=system.n_sites,
                  iterations=iterations, converged=converged,
                  residual=residual)
        for j in range(system.n_sites):
            obs.gauge(f"multiedge.gamma.site{j}", float(gammas[j]))
    return MultiEdgeEquilibrium(
        utilizations=gammas,
        site_indices=site_indices,
        thresholds=thresholds.astype(float),
        average_cost=system.average_cost(gammas, site_indices, thresholds),
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


def solve_multiedge_equilibrium(
    system: MultiEdgeSystem,
    damping: float = 0.3,
    residual_tolerance: float = 2e-3,
    max_iterations: int = 2000,
) -> MultiEdgeEquilibrium:
    """Annealed damped fixed-point iteration ``γ ← (1−d_t)γ + d_t·V(γ)``.

    The vector map is neither monotone nor continuous: with a finite
    population a single user switching sites moves ``V`` by
    ``O(a_max / (N c_j))``, which puts a granularity floor under the
    achievable residual and lets a *fixed* damping limit-cycle around the
    equilibrium. The solver therefore anneals the damping (halved every
    200 iterations), tracks the best iterate by the certified residual
    ``||V(γ) − γ||_∞``, and declares convergence once that residual drops
    below ``residual_tolerance`` (set it no tighter than the granularity
    of your population size).

    A single-site system that is well posed as the scalar model delegates
    to :func:`~repro.core.equilibrium.solve_mfne` (Theorem-1 bisection,
    solver defaults) and reproduces its ``γ*`` bit-identically.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    check_positive("residual_tolerance", residual_tolerance)
    check_int_positive("max_iterations", max_iterations)

    single = system.as_single_site()
    if single is not None:
        scalar = solve_mfne(single)
        return _finish_equilibrium(
            system, np.array([scalar.utilization]),
            iterations=scalar.iterations, converged=scalar.converged,
            method="mfne-bisection")

    gammas = np.zeros(system.n_sites)
    best_gammas = gammas.copy()
    best_residual = float("inf")
    converged = False
    iterations = 0
    current_damping = damping
    for iterations in range(1, max_iterations + 1):
        target = system.value(gammas)
        residual = float(np.abs(target - gammas).max())
        if residual < best_residual:
            best_residual = residual
            best_gammas = gammas.copy()
        if residual <= residual_tolerance:
            converged = True
            break
        gammas = (1.0 - current_damping) * gammas + current_damping * target
        if iterations % 200 == 0:
            current_damping = max(0.01, current_damping * 0.5)

    return _finish_equilibrium(system, best_gammas, iterations, converged,
                               method="damped-annealed")


@dataclass
class MultiEdgeDtuTrace:
    estimated: List[np.ndarray] = field(default_factory=list)
    actual: List[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class MultiEdgeDtuResult:
    estimated_utilizations: np.ndarray
    actual_utilizations: np.ndarray
    site_indices: np.ndarray
    thresholds: np.ndarray
    iterations: int
    converged: bool
    trace: MultiEdgeDtuTrace


def run_multiedge_dtu(
    system: MultiEdgeSystem,
    initial_step: float = 0.1,
    tolerance: float = 0.01,
    max_iterations: int = 500,
) -> MultiEdgeDtuResult:
    """Algorithm 1 generalised: per-site estimated utilisations.

    Each site keeps its own γ̂_j on a :class:`~repro.core.dtu.DtuStepper`
    with :func:`~repro.core.dtu.regrow_rule` (a site's target moves as
    users switch sites); every iteration the sites broadcast the whole
    vector and users best-respond (site choice + threshold) to it.

    ``converged`` certifies only the stop test — every site's last move
    was within ``tolerance`` — not that γ̂ is at equilibrium; DESIGN.md
    §13 records how far apart the two can be.

    A single-site system that is well posed as the scalar model delegates
    to :func:`~repro.core.dtu.run_dtu` and reproduces its γ̂ trajectory
    bit-identically.
    """
    config = DtuConfig(initial_step=initial_step, tolerance=tolerance,
                       max_iterations=max_iterations)
    single = system.as_single_site()
    if single is not None:
        scalar = run_dtu(single, config)
        trace = MultiEdgeDtuTrace(
            estimated=[np.array([g])
                       for g in scalar.trace.estimated_utilization],
            actual=[np.array([g])
                    for g in scalar.trace.actual_utilization])
        return MultiEdgeDtuResult(
            estimated_utilizations=np.array([scalar.estimated_utilization]),
            actual_utilizations=np.array([scalar.actual_utilization]),
            site_indices=np.zeros(system.population.size, dtype=np.int64),
            thresholds=np.asarray(scalar.thresholds, dtype=float),
            iterations=scalar.iterations,
            converged=scalar.converged,
            trace=trace,
        )

    steppers = [
        DtuStepper(config.initial_step, config.tolerance,
                   step_rule=regrow_rule(config.initial_step))
        for _ in system.sites
    ]
    estimates = np.array([stepper.estimate for stepper in steppers])
    site_indices, thresholds = system.best_response(estimates)
    actual = system.utilizations(site_indices, thresholds)
    trace = MultiEdgeDtuTrace(estimated=[estimates], actual=[actual])

    iterations = 0
    converged = False
    for t in range(1, config.max_iterations + 1):
        if all(stepper.converged for stepper in steppers):
            converged = True
            break
        iterations = t
        estimates = np.array([stepper.update(gamma)
                              for stepper, gamma in zip(steppers, actual)])
        site_indices, thresholds = system.best_response(estimates)
        actual = system.utilizations(site_indices, thresholds)
        trace.estimated.append(estimates)
        trace.actual.append(actual)

    obs = get_recorder()
    if obs.enabled:
        obs.event("multiedge.dtu_done", n_sites=system.n_sites,
                  iterations=iterations, converged=converged)
    return MultiEdgeDtuResult(
        estimated_utilizations=estimates,
        actual_utilizations=actual,
        site_indices=site_indices,
        thresholds=thresholds.astype(float),
        iterations=iterations,
        converged=converged,
        trace=trace,
    )
