"""Algorithm 1: LMS-based time-skew identification.

The paper estimates the inter-channel delay ``D`` by minimising the
reconstruction-disagreement cost (Eq. 8) with a normalised LMS iteration that
uses a finite-difference gradient and a variable step size:

1. evaluate the cost at the current estimate;
2. approximate the gradient by the finite difference between the current and
   previous (estimate, cost) pairs (Eq. 10);
3. move against the *normalised* gradient, ``D_{i+1} = D_i - mu * grad /
   max|grad|`` (Eq. 11) — with a scalar parameter this normalisation reduces
   the move to ``-mu * sign(grad)``, i.e. a sign-LMS step of length ``mu``;
4. if the step increased the cost, halve ``mu`` and retry (step 5 of
   Algorithm 1); after a successful step double ``mu`` (step 6).

The doubling/halving gives geometric convergence: starting 130 ps away from
the optimum with ``mu = 1 ps`` the estimate closes the gap in fewer than ten
successful steps, matching the paper's "converges in less than 20
iterations" (Fig. 6).

The search stops once its step falls below 0.1 ps, the resolution the
measurement supports.  By Eq. (4) a delay error ``dD`` adds a relative
reconstruction error of about ``pi B (k + 1) dD``
(:func:`~repro.sampling.sensitivity.relative_error_for_delay_error`): at
0.1 ps that is 6.5e-4 on the paper's 90 MHz band at 1 GHz and at most 1.3e-3
on any shipped profile's campaign band, under a fifth of Eq. (5)'s 1 %
target and under a tenth of the ~1.5 % reconstruction floor the cost itself
measures.  Halving on below it only refines the estimate far below its own
error against the true delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import CalibrationError, ConvergenceError, ValidationError
from ..utils.validation import check_integer, check_positive
from .cost import SkewCostFunction

__all__ = ["LmsIterate", "LmsSkewEstimate", "LmsSkewEstimator"]


@dataclass(frozen=True)
class LmsIterate:
    """One accepted LMS iteration: the estimate, its cost and the step used."""

    iteration: int
    estimate: float
    cost: float
    step_size: float


@dataclass(frozen=True)
class LmsSkewEstimate:
    """Result of a time-skew estimation run.

    Attributes
    ----------
    estimate:
        The final delay estimate ``D_hat`` (seconds).
    converged:
        Whether the run terminated on the cost/step tolerance rather than on
        the iteration budget.
    iterations:
        Number of accepted iterations.
    history:
        The accepted iterates, in order (useful for convergence plots such as
        the paper's Fig. 6).
    cost_evaluations:
        Total number of cost-function evaluations (the dominant computational
        cost, as each evaluation performs two reconstructions).
    """

    estimate: float
    converged: bool
    iterations: int
    history: tuple
    cost_evaluations: int

    @property
    def final_cost(self) -> float:
        """Cost at the final estimate."""
        return self.history[-1].cost

    def cost_trajectory(self) -> np.ndarray:
        """Cost value of every accepted iterate (Fig. 6 y-axis)."""
        return np.array([iterate.cost for iterate in self.history])

    def estimate_trajectory(self) -> np.ndarray:
        """Delay estimate of every accepted iterate."""
        return np.array([iterate.estimate for iterate in self.history])


@dataclass
class LmsSkewEstimator:
    """Normalised variable-step LMS estimator of the inter-channel delay.

    Parameters
    ----------
    cost_function:
        The reconstruction-disagreement cost (Eq. 8) to minimise.
    initial_step_seconds:
        Initial step size ``mu`` (the paper uses 1e-12 s).
    max_iterations:
        Budget of accepted iterations.

    The run terminates (converged) once the cost drops below
    ``initial cost * 1e-6``, a tolerance derived from the cost at the
    initial estimate that keeps the criterion scale-free, or once the
    adaptive step shrinks below :attr:`min_step_seconds` (0.1 ps, the
    delay resolution Eq. (4) says a 1 % measurement needs with a five-fold
    margin; see the module docstring).

    The bootstrap probe and every line-search step evaluate the forward and
    mirrored candidates together, in one
    :meth:`~repro.calibration.cost.SkewCostFunction.evaluate_many` call that
    shares a single batched pass over the precompiled reconstruction plans;
    each such call counts two cost evaluations.
    """

    cost_function: SkewCostFunction
    initial_step_seconds: float = 1.0e-12
    max_iterations: int = 50

    #: Terminate (converged) once the adaptive step shrinks below this value:
    #: 0.1 ps, the delay resolution Eq. (4) supports (see the module docstring).
    min_step_seconds: ClassVar[float] = 1.0e-13
    #: Safety bound on the consecutive step halvings within one iteration.
    max_step_halvings: ClassVar[int] = 40

    def __post_init__(self) -> None:
        if not isinstance(self.cost_function, SkewCostFunction):
            raise ValidationError("cost_function must be a SkewCostFunction")
        check_positive(self.initial_step_seconds, "initial_step_seconds")
        check_integer(self.max_iterations, "max_iterations", minimum=1)

    def estimate(self, initial_delay: float) -> LmsSkewEstimate:
        """Run Algorithm 1 from the initial estimate ``initial_delay``.

        Raises
        ------
        CalibrationError
            If the initial estimate lies outside the valid search interval
            ``(0, m)``.
        ConvergenceError
            If the step-size adaptation collapses without ever finding a
            downhill direction (pathological cost function).
        """
        upper_bound = self.cost_function.upper_bound
        initial_delay = check_positive(initial_delay, "initial_delay")
        if initial_delay >= upper_bound:
            raise CalibrationError(
                f"initial delay estimate {initial_delay} s must lie inside the search "
                f"interval (0, {upper_bound} s)"
            )

        evaluations = 0

        def costs(*delays: float) -> list[float]:
            # Candidates that land outside the stable region (too close to a
            # forbidden delay, or outside (0, m)) come back infinitely costly,
            # so the step-size adaptation backs away from them instead of
            # aborting the whole estimation.
            nonlocal evaluations
            evaluations += len(delays)
            values = self.cost_function.evaluate_many(delays, invalid="inf")
            return [float(value) for value in values]

        step = float(self.initial_step_seconds)
        previous_delay = float(initial_delay)
        (previous_cost,) = costs(previous_delay)
        if not np.isfinite(previous_cost):
            raise CalibrationError(
                f"the cost function is not defined at the initial estimate {initial_delay} s; "
                "pick a starting point away from the forbidden delays"
            )
        tolerance = previous_cost * 1e-6

        history = [LmsIterate(iteration=0, estimate=previous_delay, cost=previous_cost, step_size=step)]

        # Bootstrap the finite-difference gradient with a small probe move;
        # if the forward probe is uphill, start in the other direction.
        forward = self._clip(previous_delay + step, upper_bound)
        backward = self._clip(previous_delay - step, upper_bound)
        forward_cost, backward_cost = costs(forward, backward)
        if forward_cost > previous_cost:
            current_delay, current_cost = backward, backward_cost
        else:
            current_delay, current_cost = forward, forward_cost
        history.append(LmsIterate(iteration=1, estimate=current_delay, cost=current_cost, step_size=step))

        converged = False
        iteration = 1
        while iteration < self.max_iterations:
            iteration += 1
            if current_cost < tolerance:
                converged = True
                break
            gradient = self._finite_difference_gradient(
                current_delay, current_cost, previous_delay, previous_cost
            )
            direction = -np.sign(gradient)
            if direction == 0.0:
                converged = True
                break

            # Variable-step update: try the step, halve on cost increase
            # (step 5 of Algorithm 1).  The finite-difference gradient is a
            # secant across the last two iterates, so once they straddle the
            # minimum its sign can point uphill; probing the mirrored
            # candidate before halving keeps the descent robust.
            halvings = 0
            while True:
                candidate = self._clip(current_delay + direction * step, upper_bound)
                mirrored = self._clip(current_delay - direction * step, upper_bound)
                candidate_cost, mirrored_cost = costs(candidate, mirrored)
                if candidate_cost <= current_cost or step <= self.min_step_seconds:
                    break
                if mirrored_cost <= current_cost:
                    candidate, candidate_cost = mirrored, mirrored_cost
                    break
                step /= 2.0
                halvings += 1
                if halvings > self.max_step_halvings:
                    raise ConvergenceError(
                        "LMS step-size adaptation collapsed without finding a descent step"
                    )

            if candidate_cost > current_cost and step <= self.min_step_seconds:
                converged = True
                break

            previous_delay, previous_cost = current_delay, current_cost
            current_delay, current_cost = candidate, candidate_cost
            history.append(
                LmsIterate(iteration=iteration, estimate=current_delay, cost=current_cost, step_size=step)
            )
            step *= 2.0
            if step < self.min_step_seconds:
                converged = True
                break

        if current_cost < tolerance:
            converged = True
        return LmsSkewEstimate(
            estimate=float(current_delay),
            converged=bool(converged),
            iterations=iteration,
            history=tuple(history),
            cost_evaluations=evaluations,
        )

    def _clip(self, delay: float, upper_bound: float) -> float:
        """Keep candidate delays strictly inside the open interval ``(0, m)``.

        The margin keeps candidates away from the interval edges, where the
        kernel denominators vanish (D = 0 and D = m are both forbidden).
        """
        margin = upper_bound * 1e-2
        return float(np.clip(delay, margin, upper_bound - margin))

    @staticmethod
    def _finite_difference_gradient(
        current_delay: float,
        current_cost: float,
        previous_delay: float,
        previous_cost: float,
    ) -> float:
        """Eq. (10): finite-difference gradient between the last two iterates."""
        denominator = current_delay - previous_delay
        if denominator == 0.0:
            return 0.0
        return (current_cost - previous_cost) / denominator
