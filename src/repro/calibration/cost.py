"""The time-skew estimation cost function (Section IV-A of the paper).

The key idea of the paper's calibration: acquire the *same* transmitter
output twice with the same (unknown) inter-channel delay ``D`` but two
different per-channel rates ``B`` and ``B1`` (the paper uses ``B1 = B/2``),
reconstruct both acquisitions with a *candidate* delay ``D_hat``, and compare
the two reconstructions at ``N`` random time instants:

    ``eps(D_hat) = (1/N) * sum_i ( f_B,D_hat(t_i) - f_B1,D_hat(t_i) )^2``   (Eq. 8)

Both reconstructions are wrong in different ways when ``D_hat != D`` (the
reconstruction error depends on the rate through ``k``), and both become
correct simultaneously only at ``D_hat = D``, so the cost has a unique
minimum there — provided the uniqueness conditions (Eq. 9) hold and the
candidate stays inside ``(0, m)`` where ``m`` is the first delay at which one
of the kernels blows up.

No knowledge of the transmitted waveform is needed: the cost compares the
two reconstructions against each other, not against a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CalibrationError, DelayConstraintError, ValidationError
from ..sampling.nonuniform import band_order, check_delay
from ..sampling.reconstruction import NonuniformSampleSet, ReconstructionPlan
from ..utils.rng import SeedLike, ensure_generator
from ..utils.validation import check_integer, check_positive

__all__ = [
    "uniqueness_conditions_met",
    "rates_satisfy_uniqueness",
    "select_slow_sample_rate",
    "search_upper_bound",
    "default_evaluation_times",
    "SkewCostFunction",
]


def _conditions_9_hold(fast_band, slow_band) -> bool:
    """Conditions (9a) and (9b) for the fast and slow acquisition bands."""
    _, k_plus_fast = band_order(fast_band)
    k_slow, k_plus_slow = band_order(slow_band)
    lhs = k_plus_fast * fast_band.bandwidth
    return not (
        np.isclose(lhs, k_slow * slow_band.bandwidth)
        or np.isclose(lhs, k_plus_slow * slow_band.bandwidth)
    )


def rates_satisfy_uniqueness(centre_hz: float, fast_rate_hz: float, slow_rate_hz: float) -> bool:
    """Check conditions (9) for a candidate rate pair before any acquisition.

    Both acquisitions are assumed centred on ``centre_hz`` (the transmitter
    carrier); the reconstructable band of each acquisition spans its own
    per-channel rate.
    """
    from ..sampling.bandpass import BandpassBand  # local import to avoid cycles at module load

    centre_hz = check_positive(centre_hz, "centre_hz")
    fast_rate_hz = check_positive(fast_rate_hz, "fast_rate_hz")
    slow_rate_hz = check_positive(slow_rate_hz, "slow_rate_hz")
    if slow_rate_hz >= fast_rate_hz:
        return False
    return _conditions_9_hold(
        BandpassBand.from_centre(centre_hz, fast_rate_hz),
        BandpassBand.from_centre(centre_hz, slow_rate_hz),
    )


#: Reduced-rate ratios ``B1 / B`` :func:`select_slow_sample_rate` tries, in order.
SLOW_RATE_RATIOS = (0.5, 0.48, 0.52, 0.45, 0.55, 0.44, 0.56, 0.6, 0.4)


def select_slow_sample_rate(centre_hz: float, fast_rate_hz: float) -> float:
    """Pick a reduced per-channel rate ``B1`` that satisfies conditions (9).

    The paper uses ``B1 = B/2``; for some carrier/bandwidth combinations that
    exact ratio violates condition (9b), so the engine tries a short list of
    nearby ratios (:data:`SLOW_RATE_RATIOS`) and returns the first valid one.

    Raises
    ------
    CalibrationError
        If none of the candidate ratios yields a valid rate pair (which would
        require a pathological configuration).
    """
    for ratio in SLOW_RATE_RATIOS:
        slow_rate = ratio * fast_rate_hz
        if rates_satisfy_uniqueness(centre_hz, fast_rate_hz, slow_rate):
            return float(slow_rate)
    raise CalibrationError(
        "no candidate reduced sampling rate satisfies the uniqueness conditions (Eq. 9); "
        "adjust the acquisition bandwidth"
    )


def uniqueness_conditions_met(
    sample_set_fast: NonuniformSampleSet,
    sample_set_slow: NonuniformSampleSet,
) -> bool:
    """Check the paper's conditions (9) for a unique cost-function minimum.

    With ``B`` (fast) and ``B1`` (slow) the per-channel rates and ``k``/``k1``
    the corresponding band orders, the conditions are

    * ``(k + 1) * B != k1 * B1``           (9a)
    * ``(k + 1) * B != (k1 + 1) * B1``     (9b)

    (plus ``D`` inside ``(0, m)``, which is checked separately through
    :func:`search_upper_bound`).
    """
    if sample_set_slow.band.bandwidth >= sample_set_fast.band.bandwidth:
        raise ValidationError("the second acquisition must use a lower per-channel rate (T1 > T)")
    return _conditions_9_hold(sample_set_fast.band, sample_set_slow.band)


def search_upper_bound(
    sample_set_fast: NonuniformSampleSet,
    sample_set_slow: NonuniformSampleSet,
) -> float:
    """The bound ``m`` of the search interval ``(0, m)`` for the delay estimate.

    ``m = min( 1 / ((k+1) * B), 1 / ((k1+1) * B1) )`` — the first candidate
    delay at which one of the two reconstruction kernels becomes unstable,
    i.e. the first point where the cost function is undefined.
    """
    _, k_plus_fast = band_order(sample_set_fast.band)
    _, k_plus_slow = band_order(sample_set_slow.band)
    return float(
        min(
            1.0 / (k_plus_fast * sample_set_fast.band.bandwidth),
            1.0 / (k_plus_slow * sample_set_slow.band.bandwidth),
        )
    )


def default_evaluation_times(
    sample_set_fast: NonuniformSampleSet,
    sample_set_slow: NonuniformSampleSet,
    num_points: int = 300,
    num_taps: int = 60,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw the ``N`` random evaluation instants used by the cost function.

    The points are drawn uniformly from the interval over which *both*
    truncated reconstructions have full kernel support, less 2 % of its
    span at either end (the paper evaluates ``N = 300`` points in
    ``[470 ns, 1700 ns]`` for its record lengths).
    """
    num_points = check_integer(num_points, "num_points", minimum=4)
    half_span_fast = (num_taps // 2) * sample_set_fast.sample_period
    half_span_slow = (num_taps // 2) * sample_set_slow.sample_period
    low = max(
        sample_set_fast.start_time + half_span_fast,
        sample_set_slow.start_time + half_span_slow,
    )
    high = min(
        sample_set_fast.end_time - half_span_fast,
        sample_set_slow.end_time - half_span_slow,
    )
    if high <= low:
        raise CalibrationError(
            "the two acquisitions do not overlap enough for the requested kernel length; "
            "acquire more samples or reduce num_taps"
        )
    span = high - low
    low += 0.02 * span
    high -= 0.02 * span
    rng = ensure_generator(seed)
    return np.sort(rng.uniform(low, high, size=num_points))


@dataclass(frozen=True)
class SkewCostFunction:
    """Callable implementing Eq. (8): ``eps(D_hat)`` for a pair of acquisitions.

    The configuration is compiled into one
    :class:`~repro.sampling.reconstruction.ReconstructionPlan` per
    acquisition at construction, so instances are frozen: mutating a field
    after construction would silently diverge from the compiled plans.
    Every candidate goes through :meth:`evaluate_many`, which reconstructs
    a batch of candidates from both acquisitions with one call of
    :meth:`reconstruct_many`, the one hook a subclass overrides to swap the
    reconstruction; :meth:`__call__` is its one-candidate case.

    Each plan folds its taper into its samples and factors the Eq. (2)
    kernel into a tap basis and per-point row tables, so a candidate delay
    costs each plan one ``(points, taps)`` division and one matmul.  The
    search bound ``m`` is computed once, and each candidate is checked
    against its two bands' forbidden-delay spacings, which are cached per
    band.

    Parameters
    ----------
    sample_set_fast:
        Acquisition at the full per-channel rate ``B`` (period ``T``).
    sample_set_slow:
        Acquisition of the *same* signal at the reduced rate ``B1`` (period
        ``T1 > T``), with the same physical delay.
    evaluation_times:
        The ``N`` time instants at which the two reconstructions are
        compared; drawn by :func:`default_evaluation_times` when omitted.
    num_taps:
        Kernel truncation ``nw`` used by both reconstructions.
    num_evaluation_points:
        Number of random instants when ``evaluation_times`` is omitted.
    seed:
        Randomness control for the default evaluation instants.
    structure_cache:
        Optional
        :class:`~repro.sampling.reconstruction.PlanStructureCache` threaded
        into both compiled plans, so fingerprint-adjacent campaign scenarios
        (same acquisition geometry and evaluation instants) share the
        delay-independent plan structure instead of rebuilding it per
        scenario.  Results are bit-identical with and without a cache.
    """

    sample_set_fast: NonuniformSampleSet
    sample_set_slow: NonuniformSampleSet
    evaluation_times: np.ndarray | None = None
    num_taps: int = 60
    num_evaluation_points: int = 300
    seed: SeedLike = None
    structure_cache: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sample_set_fast, NonuniformSampleSet):
            raise ValidationError("sample_set_fast must be a NonuniformSampleSet")
        if not isinstance(self.sample_set_slow, NonuniformSampleSet):
            raise ValidationError("sample_set_slow must be a NonuniformSampleSet")
        if self.sample_set_slow.sample_period <= self.sample_set_fast.sample_period:
            raise ValidationError(
                "sample_set_slow must have the larger sampling period (T1 > T); "
                "swap the arguments"
            )
        if not uniqueness_conditions_met(self.sample_set_fast, self.sample_set_slow):
            raise CalibrationError(
                "the chosen rate pair violates the uniqueness conditions (Eq. 9); "
                "pick a different B1"
            )
        if self.evaluation_times is None:
            times = default_evaluation_times(
                self.sample_set_fast,
                self.sample_set_slow,
                num_points=self.num_evaluation_points,
                num_taps=self.num_taps,
                seed=self.seed,
            )
        else:
            times = np.asarray(self.evaluation_times, dtype=float)
            if times.ndim != 1 or times.size < 4:
                raise ValidationError("evaluation_times must be a 1-D array of at least 4 instants")
        object.__setattr__(self, "evaluation_times", times)
        object.__setattr__(
            self, "_upper_bound", search_upper_bound(self.sample_set_fast, self.sample_set_slow)
        )
        # Both reconstructions run over the same fixed evaluation instants for
        # every candidate delay, so the delay-independent work (tap indexing,
        # sample gathering, taper, kernel trigonometry) is compiled into one
        # plan per acquisition and shared across all cost evaluations.
        for name, sample_set in (
            ("_plan_fast", self.sample_set_fast),
            ("_plan_slow", self.sample_set_slow),
        ):
            plan = ReconstructionPlan(
                sample_set, times, num_taps=self.num_taps, structure_cache=self.structure_cache
            )
            object.__setattr__(self, name, plan)

    @property
    def upper_bound(self) -> float:
        """The search bound ``m`` for candidate delays (computed once, at construction)."""
        return self._upper_bound

    @property
    def plan_fast(self) -> ReconstructionPlan:
        """The precompiled reconstruction plan of the fast acquisition."""
        return self._plan_fast

    @property
    def plan_slow(self) -> ReconstructionPlan:
        """The precompiled reconstruction plan of the slow acquisition."""
        return self._plan_slow

    def reconstruct_many(self, candidate_delays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fast and slow reconstructions under validated candidate delays.

        Returns two ``(num_delays, num_times)`` arrays, one row per candidate,
        from one batched pass over each compiled plan.
        """
        return (
            self._plan_fast.evaluate_many(candidate_delays, validate=False),
            self._plan_slow.evaluate_many(candidate_delays, validate=False),
        )

    def __call__(self, candidate_delay: float) -> float:
        """Evaluate Eq. (8) at ``candidate_delay``: :meth:`evaluate_many` of one."""
        return float(self.evaluate_many([candidate_delay])[0])

    def evaluate_many(self, candidate_delays, invalid: str = "raise") -> np.ndarray:
        """Eq. (8) over an array of candidate delays (the Fig. 5 sweep).

        The valid candidates are reconstructed together by
        :meth:`reconstruct_many`; a candidate's cost does not depend on the
        candidates sharing its batch.

        Parameters
        ----------
        candidate_delays:
            1-D array of candidate delays (seconds).
        invalid:
            ``"raise"`` (default) raises at the first invalid candidate, in
            scan order; ``"inf"`` instead assigns ``numpy.inf`` to invalid
            candidates (outside ``(0, m)`` or forbidden by Eq. 3), which is
            what a line search wants so it can back away from them.
        """
        if invalid not in ("raise", "inf"):
            raise ValidationError("invalid must be 'raise' or 'inf'")
        delays = np.atleast_1d(np.asarray(candidate_delays, dtype=float))
        if delays.ndim != 1:
            raise ValidationError("candidate_delays must be a 1-D array")
        usable = np.ones(delays.shape, dtype=bool)
        for index, delay in enumerate(delays):
            try:
                self._check_candidate(delay)
            except (ValidationError, CalibrationError, DelayConstraintError):
                if invalid == "raise":
                    raise
                usable[index] = False
        costs = np.full(delays.shape, np.inf)
        if usable.any():
            fast, slow = self.reconstruct_many(delays[usable])
            costs[usable] = np.mean((fast - slow) ** 2, axis=1)
        return costs

    def _check_candidate(self, candidate_delay: float) -> float:
        """Validate one candidate delay.

        Order matters for exception compatibility: non-positive values raise
        :class:`ValidationError`, out-of-interval values
        :class:`CalibrationError`, and Eq. (3)-forbidden values
        :class:`DelayConstraintError` (fast band checked before slow).
        """
        candidate_delay = check_positive(candidate_delay, "candidate_delay")
        if candidate_delay >= self.upper_bound:
            raise CalibrationError(
                f"candidate delay {candidate_delay} s is outside the search interval "
                f"(0, {self.upper_bound} s) where the cost function is defined"
            )
        check_delay(self.sample_set_fast.band, candidate_delay)
        check_delay(self.sample_set_slow.band, candidate_delay)
        return candidate_delay
