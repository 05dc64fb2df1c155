"""Alternative step-size rules for the DTU update — why the paper's wins.

Algorithm 1's distinguishing design is its step rule: a *fixed* step in the
sign of the error, shrunk to η₀/L only when the estimate provably brackets
the target (γ̂_t = γ̂_{t−2}). Two natural alternatives frame it:

* **constant step** — never shrink: converges fast but then oscillates
  forever inside a ±η band, so its accuracy is step-limited;
* **Robbins–Monro** — η_t = η₀/t from the start: classical stochastic
  approximation, guaranteed but slow, because the step decays even while
  the estimate is still marching toward γ*.

The paper's rule gets both halves right: full-speed approach, then
data-triggered decay. :func:`compare_step_rules` quantifies the trade-off
on one population. The rules themselves live beside the stepper they
plug into, in :mod:`repro.core.dtu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.dtu import (
    AnalyticUtilizationOracle,
    DtuStepper,
    StepRule,
    UtilizationOracle,
    constant_rule,
    paper_rule,
    robbins_monro_rule,
)
from repro.core.meanfield import MeanFieldMap
from repro.utils.validation import check_int_positive


@dataclass(frozen=True)
class VariantRun:
    """Trajectory of one step-rule variant."""

    name: str
    estimates: np.ndarray
    iterations_to_band: Optional[int]     # first time |γ̂ − γ*| ≤ band
    tail_error: float                     # mean |γ̂ − γ*| over last quarter


def run_with_step_rule(
    mean_field: MeanFieldMap,
    rule: StepRule,
    initial_step: float = 0.1,
    iterations: int = 100,
    oracle: Optional[UtilizationOracle] = None,
    initial_estimate: float = 0.0,
) -> np.ndarray:
    """Run the DTU loop with a pluggable step rule; returns the γ̂ series.

    Algorithm 1 on a :class:`~repro.core.dtu.DtuStepper` built with
    ``rule`` (no ε-stopping — the fixed horizon makes variants comparable).
    """
    check_int_positive("iterations", iterations)
    oracle = oracle or AnalyticUtilizationOracle(mean_field)
    stepper = DtuStepper(initial_step=initial_step,
                         initial_estimate=initial_estimate, step_rule=rule)
    estimate = stepper.estimate
    estimates: List[float] = [estimate]
    for _ in range(iterations):
        actual = oracle.measure(
            mean_field.best_response(estimate).astype(float))
        estimate = stepper.update(actual)
        estimates.append(estimate)
    return np.asarray(estimates)


def compare_step_rules(
    mean_field: MeanFieldMap,
    gamma_star: float,
    initial_step: float = 0.1,
    iterations: int = 100,
    band: float = 0.01,
    initial_estimate: float = 0.0,
) -> List[VariantRun]:
    """Run all three rules on the same problem; summarise each trajectory.

    The regimes differ sharply with the starting distance: Robbins–Monro's
    decaying step covers only ``η₀·ln(T)`` total distance, so from a far
    start it never arrives within a practical horizon, while the paper's
    rule approaches at full speed and only then decays.
    """
    variants = [
        ("paper (η₀/L on oscillation)", paper_rule(initial_step)),
        ("constant η₀", constant_rule(initial_step)),
        ("Robbins–Monro η₀/t", robbins_monro_rule(initial_step)),
    ]
    runs: List[VariantRun] = []
    for name, rule in variants:
        estimates = run_with_step_rule(
            mean_field, rule, initial_step=initial_step,
            iterations=iterations, initial_estimate=initial_estimate,
        )
        errors = np.abs(estimates - gamma_star)
        inside = np.flatnonzero(errors <= band)
        tail = errors[int(0.75 * errors.size):]
        runs.append(VariantRun(
            name=name,
            estimates=estimates,
            iterations_to_band=int(inside[0]) if inside.size else None,
            tail_error=float(tail.mean()),
        ))
    return runs
