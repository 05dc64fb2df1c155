"""Theorem 1: the Mean-Field Nash Equilibrium and its fixed-point solver.

Theorem 1 shows ``V(γ)`` is continuous and non-increasing, so
``h(γ) = V(γ) − γ`` is continuous and strictly decreasing; together with
``h(0) = V(0) ≥ 0`` and ``h(1) = V(1) − 1 < 0`` (which follows from
``A_max < c``), the fixed point ``γ* = V(γ*)`` exists and is unique.
Bisection on ``h`` is therefore guaranteed to converge — that is the
default solver. A damped fixed-point iteration is provided as a secondary
method (an ablation target: plain iteration of a non-increasing map can
two-cycle, which is exactly why the paper's DTU algorithm needs its
estimated-utilisation trick).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.meanfield import MeanFieldMap
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.utils.validation import check_int_positive, check_positive


@dataclass(frozen=True)
class MfneResult:
    """The solved equilibrium and solver diagnostics."""

    utilization: float            # γ*
    value: float                  # V(γ*) — equals γ* up to `residual`
    residual: float               # |V(γ*) − γ*|
    iterations: int
    converged: bool
    method: str
    history: tuple                # visited γ values

    @property
    def gamma_star(self) -> float:
        """Alias matching the paper's notation."""
        return self.utilization


def _evaluate(mean_field: MeanFieldMap, gamma: float, probe) -> float:
    """``V(γ)``, threading a bracketing probe when the map supports one.

    ``probe`` is whatever ``mean_field.probe_state()`` returned — ``None``
    for uncompiled maps and subclasses that do not opt in, in which case
    the plain ``value`` signature is used so custom overrides keep
    working.
    """
    if probe is None:
        return mean_field.value(gamma)
    return mean_field.value(gamma, probe=probe)


def solve_mfne(
    mean_field: MeanFieldMap,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    method: str = "bisection",
    damping: float = 0.5,
    recorder: Optional[Recorder] = None,
) -> MfneResult:
    """Solve ``V(γ) = γ`` for the unique MFNE of Theorem 1.

    Parameters
    ----------
    mean_field:
        The population's best-response map.
    tolerance:
        Convergence tolerance on the bracket width / fixed-point residual.
    method:
        ``"bisection"`` (guaranteed, default) or ``"damped"`` (fixed-point
        iteration ``γ ← (1−d)γ + d·V(γ)``, for ablations).
    recorder:
        Observability sink (see :mod:`repro.obs`); defaults to the ambient
        recorder. Convergence traces are emitted as ``mfne.*`` events.

    A plain :class:`MeanFieldMap` is compiled into a
    :class:`repro.core.kernels.CompiledMeanField` first (bit-identical
    results; the solver evaluates ``V`` dozens of times, so the one-off
    build pays for itself immediately); ready-made kernels are reused
    as-is and subclasses with their own best-response semantics are left
    untouched. Maps that offer a :meth:`~MeanFieldMap.probe_state` get
    bracketed probes: every midpoint lies between two probed points, and
    a user whose threshold is equal at both keeps it in between, so each
    probe re-searches only the users whose thresholds differ at the
    current bracket's ends — a set that empties as the bracket shrinks.
    The visited trajectory is bit-identical to probe-less evaluation
    (pinned by the test suite).
    """
    check_positive("tolerance", tolerance)
    check_int_positive("max_iterations", max_iterations)
    if type(mean_field) is MeanFieldMap:
        mean_field = mean_field.compile()
    # getattr: duck-typed stand-ins only need to provide ``value``.
    probe_state = getattr(mean_field, "probe_state", None)
    probe = probe_state() if probe_state is not None else None
    obs = resolve_recorder(recorder)
    if method == "bisection":
        result = _solve_bisection(mean_field, tolerance, max_iterations, obs,
                                  probe)
    elif method == "damped":
        result = _solve_damped(mean_field, tolerance, max_iterations, damping,
                               obs, probe)
    else:
        raise ValueError(f"unknown method {method!r}; use 'bisection' or 'damped'")
    if obs.enabled:
        obs.gauge("mfne.gamma_star", result.utilization)
        obs.event("mfne.done", method=result.method,
                  gamma_star=result.utilization, residual=result.residual,
                  iterations=result.iterations, converged=result.converged)
    return result


def _solve_bisection(
    mean_field: MeanFieldMap, tolerance: float, max_iterations: int,
    obs: Recorder, probe=None,
) -> MfneResult:
    history: List[float] = []
    v0 = _evaluate(mean_field, 0.0, probe)
    history.append(0.0)
    if v0 <= tolerance:
        # Nobody offloads even at an idle edge; the equilibrium is γ* = v0
        # (0 up to tolerance). The paper's setting has γ* ∈ (0, 1) because
        # some users always offload, but the solver handles the corner.
        value_v0 = _evaluate(mean_field, v0, probe)
        return MfneResult(
            utilization=v0, value=value_v0,
            residual=abs(value_v0 - v0), iterations=1,
            converged=True, method="bisection", history=tuple(history),
        )
    low, high = 0.0, 1.0
    v_high = _evaluate(mean_field, 1.0, probe)
    if v_high >= 1.0:
        raise ArithmeticError(
            "V(1) >= 1: the model violates A_max < c and has no interior MFNE"
        )
    iterations = 0
    tracing = obs.enabled
    while high - low > tolerance and iterations < max_iterations:
        mid = 0.5 * (low + high)
        history.append(mid)
        value_mid = _evaluate(mean_field, mid, probe)
        if value_mid > mid:
            low = mid
        else:
            high = mid
        iterations += 1
        if tracing:
            obs.count("mfne.bisection_steps")
            obs.event("mfne.bisection_step", iteration=iterations, mid=mid,
                      value=value_mid, low=low, high=high,
                      bracket=high - low)
    gamma = 0.5 * (low + high)
    value = _evaluate(mean_field, gamma, probe)
    return MfneResult(
        utilization=gamma,
        value=value,
        residual=abs(value - gamma),
        iterations=iterations,
        converged=(high - low) <= tolerance,
        method="bisection",
        history=tuple(history),
    )


def _solve_damped(
    mean_field: MeanFieldMap,
    tolerance: float,
    max_iterations: int,
    damping: float,
    obs: Recorder,
    probe=None,
) -> MfneResult:
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    tracing = obs.enabled
    gamma = 0.0
    history: List[float] = [gamma]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        value = _evaluate(mean_field, gamma, probe)
        new_gamma = (1.0 - damping) * gamma + damping * value
        history.append(new_gamma)
        if tracing:
            obs.count("mfne.damped_steps")
            obs.event("mfne.damped_step", iteration=iterations,
                      gamma=new_gamma, value=value,
                      residual=abs(new_gamma - gamma))
        if abs(new_gamma - gamma) <= tolerance:
            gamma = new_gamma
            converged = True
            break
        gamma = new_gamma
    value = _evaluate(mean_field, gamma, probe)
    return MfneResult(
        utilization=gamma,
        value=value,
        residual=abs(value - gamma),
        iterations=iterations,
        converged=converged,
        method="damped",
        history=tuple(history),
    )


def verify_equilibrium(
    mean_field: MeanFieldMap, gamma: float, tolerance: float = 1e-6
) -> bool:
    """Check the MFNE condition γ = J1(J2(γ)) (Eq. 2) at ``gamma``."""
    return abs(mean_field.value(gamma) - gamma) <= tolerance
