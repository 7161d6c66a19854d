"""Reconstruction hot-path benchmark: plan-based vs pre-refactor reference.

Times the three tiers of the Eq. (6)/Eq. (8) hot path and emits a JSON
document so the performance trajectory accumulates across PRs:

* ``single_eval`` — one reconstruction over the cost-function grid:
  :func:`repro.sampling.reference_evaluate` (the pre-plan implementation,
  kept verbatim as the oracle) vs :meth:`ReconstructionPlan.evaluate`;
* ``sweep`` — the Fig. 5 cost sweep through
  :meth:`SkewCostFunction.evaluate_many`: the reference path (one oracle
  reconstruction per candidate) vs the plans, whose batched rows must equal
  per-delay :meth:`ReconstructionPlan.evaluate` bit for bit;
* ``lms`` — the two cost plans' build, timed on its own, and a full
  Algorithm 1 skew estimation through the reference cost vs the plan-backed
  one; both estimators probe candidates the same way and differ only in the
  reconstruction;
* ``full_bist`` — ``TransmitterBist.run`` with the plan layer and the dense
  render vs the same engine with every reconstruction routed through the
  reference path;
* ``dense_render`` — 400-sample records rendered over their valid range
  through :func:`~repro.bist.measurements.render_uniform` (the
  reconstructor's render: a polyphase filter bank over one kernel row per
  distinct grid offset, its kernels built at the delay a block at a time)
  and through the reference path: the paper-default record at the spectrum
  rate (4 f_high) and at the single-carrier EVM rate; ideal acquisitions in
  the acquisition bands of the three profiles whose spectrum grids have the
  most kernel rows, at their spectrum rate (``uhf-8psk-400mhz``, fs/B =
  20162/81, 20,163 rows; ``lband-64qam-1p5ghz``, 15122/61, 15,123 rows;
  ``narrowband-vhf-bpsk``, 6268/9, 6,269 rows over 236,791 points); and a
  band a hair above integer positioning (2 f_l/B = 5 + 1e-8, whose second
  kernel term's envelope is ~1e-8 B) at 14 B.  Each grid reports its
  kernel rows and window groups from the render's layout, and the
  ``tracemalloc`` peak of one render.

Every comparison also records the worst relative deviation between the two
paths; the script exits non-zero if the single-eval, sweep or any
dense-render deviation exceeds ``--tolerance`` (1e-9), if a batched sweep row differs
from its per-delay evaluation in any bit, if the two LMS estimates differ
by more than the estimator's minimal step (``min_step_seconds``, 1e-3 ps),
or if the ``uhf-8psk`` render's ``tracemalloc`` peak exceeds 64 MB.

Run with::

    PYTHONPATH=src python benchmarks/bench_reconstruction.py [--smoke] \
        [--output bench_reconstruction.json]

This file is a standalone script (not collected by pytest) so that CI can run
the smoke variant and archive the JSON artifact per commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from repro.bist import BistConfig, TransmitterBist
from repro.bist.campaign import CampaignScenario, scenario_bist_config
from repro.bist.measurements import render_uniform
from repro.calibration import LmsSkewEstimator, SkewCostFunction
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    NonuniformReconstructor,
    reference_evaluate,
)
from repro.sampling.nonuniform import delay_upper_bound
from repro.sampling.reconstruction import ReconstructionPlan, _DenseRender
from repro.signals import multitone_in_band
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

CARRIER_HZ = 1.0e9
BANDWIDTH_HZ = 90.0e6
TRUE_DELAY_S = 180.0e-12
NUM_TAPS = 60
PAPER_NUM_SAMPLES = 400
#: The profiles whose spectrum grids (4 f_high over the acquisition band B)
#: have the most kernel rows, by their grid's name.
LARGE_NUMERATOR_PROFILES = {
    "uhf-8psk": "uhf-8psk-400mhz",
    "lband-64qam": "lband-64qam-1p5ghz",
    "vhf-bpsk": "narrowband-vhf-bpsk",
}
#: 2 f_l / B of a band a hair above integer positioning, rendered at 14 B.
NEAR_INTEGER_POSITION = 5.0 + 1e-8
#: Points per ``reference_evaluate`` call when rendering the oracle; each
#: point is evaluated on its own, so the split bounds memory only.
REFERENCE_CHUNK_POINTS = 8192
#: Largest ``tracemalloc`` peak of the ``uhf-8psk`` render, in MB.
UHF_8PSK_PEAK_LIMIT_MB = 64.0


class _ReferenceSkewCost(SkewCostFunction):
    """The Eq. (8) cost evaluated through the pre-refactor reconstruction path.

    Used as the "before" baseline: every candidate rebuilds the tap indexing,
    gathering, taper and kernel trigonometry, exactly like the pre-plan code.
    Overriding the one batched reconstruction hook is sufficient: scalar
    calls, ``evaluate_many`` and the LMS all reconstruct through it.
    """

    def reconstruct_many(self, candidate_delays):
        return tuple(
            np.stack(
                [
                    reference_evaluate(
                        sample_set,
                        self.evaluation_times,
                        assumed_delay=delay,
                        num_taps=self.num_taps,
                    )
                    for delay in candidate_delays
                ]
            )
            for sample_set in (self.sample_set_fast, self.sample_set_slow)
        )


@contextmanager
def reference_plan_path():
    """Route every plan evaluation and dense render through the reference path.

    Approximates the pre-refactor engine: the orchestration stays identical,
    but each evaluation redoes the full delay-independent work per call.
    """
    original_evaluate = ReconstructionPlan.evaluate
    original_many = ReconstructionPlan.evaluate_many
    original_render = NonuniformReconstructor.evaluate

    def evaluate(self, assumed_delay, validate=True):
        return reference_evaluate(
            self.sample_set,
            self.evaluation_times,
            assumed_delay=assumed_delay,
            num_taps=self.num_taps,
        )

    def evaluate_many(self, assumed_delays, validate=True):
        delays = np.atleast_1d(np.asarray(assumed_delays, dtype=float))
        return np.stack([evaluate(self, delay) for delay in delays])

    def render(self, times):
        return reference_evaluate(
            self._samples, times, assumed_delay=self.assumed_delay, num_taps=self.num_taps
        )

    ReconstructionPlan.evaluate = evaluate
    ReconstructionPlan.evaluate_many = evaluate_many
    NonuniformReconstructor.evaluate = render
    try:
        yield
    finally:
        ReconstructionPlan.evaluate = original_evaluate
        ReconstructionPlan.evaluate_many = original_many
        NonuniformReconstructor.evaluate = original_render


def best_of(callable_, repeats: int) -> float:
    """Best-of-N wall-clock seconds of one call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def relative_deviation(candidate: np.ndarray, oracle: np.ndarray) -> float:
    """Worst |candidate - oracle| relative to the oracle's full scale."""
    scale = float(np.max(np.abs(oracle)))
    if scale == 0.0:
        return float(np.max(np.abs(candidate)))
    return float(np.max(np.abs(candidate - oracle)) / scale)


def build_acquisitions(num_samples_fast: int):
    """Ideal two-rate acquisitions of a deterministic in-band multitone."""
    band = BandpassBand.from_centre(CARRIER_HZ, BANDWIDTH_HZ)
    signal = multitone_in_band(
        CARRIER_HZ - 7.5e6, CARRIER_HZ + 7.5e6, num_tones=9, amplitude=0.3, seed=20140324
    )
    fast = IdealNonuniformSampler(band, delay=TRUE_DELAY_S, sample_rate=BANDWIDTH_HZ).acquire(
        signal, num_samples=num_samples_fast
    )
    slow = IdealNonuniformSampler(
        band, delay=TRUE_DELAY_S, sample_rate=BANDWIDTH_HZ / 2.0
    ).acquire(signal, num_samples=num_samples_fast // 2)
    return fast, slow


def bench_single_eval(fast_set, cost_points: int, repeats: int) -> dict:
    plan = ReconstructionPlan(fast_set, _cost_times(fast_set, cost_points), num_taps=NUM_TAPS)
    times = plan.evaluation_times
    build_s = best_of(
        lambda: ReconstructionPlan(fast_set, times, num_taps=NUM_TAPS), repeats
    )
    reference_s = best_of(
        lambda: reference_evaluate(fast_set, times, TRUE_DELAY_S, num_taps=NUM_TAPS), repeats
    )
    plan_s = best_of(lambda: plan.evaluate(TRUE_DELAY_S), repeats)
    deviation = relative_deviation(
        plan.evaluate(TRUE_DELAY_S),
        reference_evaluate(fast_set, times, TRUE_DELAY_S, num_taps=NUM_TAPS),
    )
    return {
        "num_times": int(times.size),
        "plan_build_s": build_s,
        "reference_s": reference_s,
        "plan_s": plan_s,
        "speedup": reference_s / plan_s,
        "max_rel_deviation": deviation,
    }


def _cost_times(sample_set, cost_points: int) -> np.ndarray:
    low, high = NonuniformReconstructor(sample_set, num_taps=NUM_TAPS).valid_time_range()
    rng = np.random.default_rng(20140324)
    return np.sort(rng.uniform(low, high, cost_points))


def bench_sweep(fast_set, slow_set, cost_points: int, num_candidates: int, repeats: int) -> dict:
    plan_cost = SkewCostFunction(
        fast_set, slow_set, num_taps=NUM_TAPS, num_evaluation_points=cost_points, seed=20140324
    )
    reference_cost = _ReferenceSkewCost(
        fast_set,
        slow_set,
        evaluation_times=plan_cost.evaluation_times,
        num_taps=NUM_TAPS,
    )
    candidates = np.linspace(120e-12, 260e-12, num_candidates)
    reference_s = best_of(lambda: reference_cost.evaluate_many(candidates), repeats)
    plan_s = best_of(lambda: plan_cost.evaluate_many(candidates), repeats)
    deviation = relative_deviation(
        plan_cost.evaluate_many(candidates), reference_cost.evaluate_many(candidates)
    )
    # A candidate's row must not depend on the candidates sharing its batch.
    rows_identical = all(
        np.array_equal(
            plan.evaluate_many(candidates),
            np.stack([plan.evaluate(candidate) for candidate in candidates]),
        )
        for plan in (plan_cost.plan_fast, plan_cost.plan_slow)
    )
    return {
        "num_candidates": int(candidates.size),
        "num_times": int(plan_cost.evaluation_times.size),
        "reference_s": reference_s,
        "plan_s": plan_s,
        "speedup": reference_s / plan_s,
        "max_rel_deviation_cost": deviation,
        "batched_rows_bit_identical": rows_identical,
    }


def bench_lms(fast_set, slow_set, cost_points: int, repeats: int) -> dict:
    def build_cost() -> SkewCostFunction:
        return SkewCostFunction(
            fast_set, slow_set, num_taps=NUM_TAPS, num_evaluation_points=cost_points, seed=20140324
        )

    cost_build_s = best_of(build_cost, repeats)
    plan_cost = build_cost()
    reference_cost = _ReferenceSkewCost(
        fast_set,
        slow_set,
        evaluation_times=plan_cost.evaluation_times,
        num_taps=NUM_TAPS,
    )
    plan_estimator = LmsSkewEstimator(plan_cost, initial_step_seconds=1e-12, max_iterations=60)
    reference_estimator = LmsSkewEstimator(
        reference_cost, initial_step_seconds=1e-12, max_iterations=60
    )
    start = 50e-12
    reference_s = best_of(lambda: reference_estimator.estimate(start), repeats)
    plan_s = best_of(lambda: plan_estimator.estimate(start), repeats)
    plan_result = plan_estimator.estimate(start)
    reference_result = reference_estimator.estimate(start)
    return {
        "cost_plan_build_s": cost_build_s,
        "reference_s": reference_s,
        "plan_s": plan_s,
        "speedup": reference_s / plan_s,
        "plan_estimate_ps": plan_result.estimate * 1e12,
        "reference_estimate_ps": reference_result.estimate * 1e12,
        "estimate_abs_difference_ps": abs(plan_result.estimate - reference_result.estimate) * 1e12,
        "min_step_ps": plan_estimator.min_step_seconds * 1e12,
    }


def bench_full_bist(smoke: bool, repeats: int) -> dict:
    from repro.adc import AdcChannel, BpTiadc, DigitallyControlledDelayElement, UniformQuantizer

    config = BistConfig(
        num_samples_fast=128 if smoke else 400,
        num_samples_slow=64 if smoke else 200,
        num_cost_points=60 if smoke else 300,
        lms_max_iterations=25 if smoke else 50,
        measure_evm_enabled=not smoke,
    )
    transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=2014))

    def make_bist() -> TransmitterBist:
        # A fresh converter per run: the jitter generator is consumed by each
        # acquisition, so rebuilding it from the same seed keeps every run —
        # and in particular the reference-vs-plan report comparison — on
        # bit-identical acquisitions.
        converter = BpTiadc(
            sample_rate=BANDWIDTH_HZ,
            dcde=DigitallyControlledDelayElement(resolution_seconds=1e-13),
            channel0=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
            channel1=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
            skew_jitter_rms_seconds=3.0e-12,
            seed=2014,
        )
        return TransmitterBist(transmitter, converter, config=config)

    burst = transmitter.transmit_for_duration(make_bist().required_burst_duration())
    with reference_plan_path():
        reference_s = best_of(lambda: make_bist().run(burst), repeats)
        reference_report = make_bist().run(burst)
    plan_s = best_of(lambda: make_bist().run(burst), repeats)
    plan_report = make_bist().run(burst)
    return {
        "reference_s": reference_s,
        "plan_s": plan_s,
        "speedup": reference_s / plan_s,
        "plan_estimated_delay_ps": plan_report.calibration.estimated_delay_seconds * 1e12,
        "reference_estimated_delay_ps": reference_report.calibration.estimated_delay_seconds * 1e12,
        "verdicts_match": [c.verdict for c in plan_report.checks]
        == [c.verdict for c in reference_report.checks],
    }


DENSE_GRIDS = ("spectrum", "evm", *LARGE_NUMERATOR_PROFILES, "near-integer")


def _ideal_record(band: BandpassBand, delay: float):
    """400 ideal sample pairs of a nine-tone multitone over the middle of ``band``."""
    signal = multitone_in_band(
        band.centre - 0.3 * band.bandwidth,
        band.centre + 0.3 * band.bandwidth,
        num_tones=9,
        amplitude=0.3,
        seed=20140324,
    )
    return IdealNonuniformSampler(band, delay=delay).acquire(signal, num_samples=PAPER_NUM_SAMPLES)


def dense_cases():
    """``(record, rate)`` of each dense grid; a ``None`` rate is 4 f_high."""
    fast_set, _ = build_acquisitions(PAPER_NUM_SAMPLES)
    envelope_rate = TransmitterConfig.paper_default().envelope_sample_rate
    evm_rate = np.ceil(4.0 * fast_set.band.f_high / envelope_rate) * envelope_rate
    cases = [(fast_set, None), (fast_set, evm_rate)]
    for profile in LARGE_NUMERATOR_PROFILES.values():
        scenario = CampaignScenario(profile=profile)
        config = scenario_bist_config(scenario, BistConfig())
        band = BandpassBand.from_centre(
            scenario.resolved_profile().carrier_frequency_hz, config.acquisition_bandwidth_hz
        )
        cases.append((_ideal_record(band, config.programmed_delay_seconds), None))
    band = BandpassBand(
        NEAR_INTEGER_POSITION * BANDWIDTH_HZ / 2.0, (NEAR_INTEGER_POSITION + 2.0) * BANDWIDTH_HZ / 2.0
    )
    cases.append((_ideal_record(band, 0.37 * delay_upper_bound(band)), 14.0 * BANDWIDTH_HZ))
    return cases


def bench_dense_render(repeats: int) -> dict:
    results = {}
    for name, (record, rate) in zip(DENSE_GRIDS, dense_cases()):
        reconstructor = NonuniformReconstructor(record, num_taps=NUM_TAPS)
        low, high = reconstructor.valid_time_range()
        render_s = best_of(lambda: render_uniform(reconstructor, low, high, rate), repeats)
        tracemalloc.start()
        try:
            times, rendered, dense_rate = render_uniform(reconstructor, low, high, rate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layout = _DenseRender.of(record, times, NUM_TAPS)
        start = time.perf_counter()
        reference = np.concatenate(
            [
                reference_evaluate(
                    record, times[first : first + REFERENCE_CHUNK_POINTS], record.delay,
                    num_taps=NUM_TAPS,
                )
                for first in range(0, times.size, REFERENCE_CHUNK_POINTS)
            ]
        )
        reference_s = time.perf_counter() - start
        results[name] = {
            "rate_hz": float(dense_rate),
            "num_times": int(times.size),
            "kernel_rows": int(layout.row.size),
            "window_groups": len(layout.groups),
            "reference_s": reference_s,
            "render_s": render_s,
            "speedup": reference_s / render_s,
            "tracemalloc_peak_mb": peak / 1e6,
            "max_rel_deviation": relative_deviation(rendered, reference),
        }
    results["max_rel_deviation"] = max(entry["max_rel_deviation"] for entry in results.values())
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes / few repeats for CI")
    parser.add_argument("--output", default="bench_reconstruction.json", help="JSON output path")
    parser.add_argument("--repeats", type=int, default=None, help="best-of repeats per timing")
    parser.add_argument(
        "--tolerance", type=float, default=1e-9, help="max allowed plan-vs-reference deviation"
    )
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 5)
    cost_points = 120 if args.smoke else 300
    num_candidates = 15 if args.smoke else 29
    num_samples_fast = 240 if args.smoke else 360

    fast_set, slow_set = build_acquisitions(num_samples_fast)
    results = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "repeats": repeats,
            "num_taps": NUM_TAPS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "single_eval": bench_single_eval(fast_set, cost_points, repeats),
        "sweep": bench_sweep(fast_set, slow_set, cost_points, num_candidates, repeats),
        "lms": bench_lms(fast_set, slow_set, cost_points, repeats),
        "full_bist": bench_full_bist(args.smoke, max(1, repeats - 1)),
        "dense_render": bench_dense_render(repeats),
    }

    print(f"single eval : reference {results['single_eval']['reference_s'] * 1e3:8.2f} ms  "
          f"plan {results['single_eval']['plan_s'] * 1e3:8.2f} ms  "
          f"({results['single_eval']['speedup']:.1f}x, "
          f"dev {results['single_eval']['max_rel_deviation']:.1e})")
    print(f"cost sweep  : reference {results['sweep']['reference_s'] * 1e3:8.2f} ms  "
          f"plan {results['sweep']['plan_s'] * 1e3:8.2f} ms  "
          f"({results['sweep']['speedup']:.1f}x, "
          f"dev {results['sweep']['max_rel_deviation_cost']:.1e})")
    print(f"cost plans  : build {results['lms']['cost_plan_build_s'] * 1e3:8.2f} ms  "
          f"(two plans over {results['sweep']['num_times']} instants)")
    print(f"lms estimate: reference {results['lms']['reference_s'] * 1e3:8.2f} ms  "
          f"plan {results['lms']['plan_s'] * 1e3:8.2f} ms  "
          f"({results['lms']['speedup']:.1f}x, "
          f"estimates differ by {results['lms']['estimate_abs_difference_ps']:.1e} ps)")
    print(f"full bist   : reference {results['full_bist']['reference_s'] * 1e3:8.2f} ms  "
          f"plan {results['full_bist']['plan_s'] * 1e3:8.2f} ms  "
          f"({results['full_bist']['speedup']:.1f}x)")
    for name in DENSE_GRIDS:
        dense = results["dense_render"][name]
        print(f"dense {name:<12}: reference {dense['reference_s'] * 1e3:6.0f} ms  "
              f"render {dense['render_s'] * 1e3:8.2f} ms  "
              f"({dense['num_times']} times, {dense['kernel_rows']} kernel rows, "
              f"{dense['window_groups']} window groups, "
              f"peak {dense['tracemalloc_peak_mb']:.1f} MB, dev {dense['max_rel_deviation']:.1e})")

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.output}")

    deviation = max(
        results["single_eval"]["max_rel_deviation"],
        results["sweep"]["max_rel_deviation_cost"],
        results["dense_render"]["max_rel_deviation"],
    )
    if deviation > args.tolerance:
        print(
            f"ERROR: plan deviates from the reference path by {deviation:.3e} "
            f"(> {args.tolerance:.0e})",
            file=sys.stderr,
        )
        return 1
    if not results["sweep"]["batched_rows_bit_identical"]:
        print(
            "ERROR: a batched cost-sweep row differs from its per-delay evaluation",
            file=sys.stderr,
        )
        return 1
    lms = results["lms"]
    if lms["estimate_abs_difference_ps"] > lms["min_step_ps"]:
        print(
            f"ERROR: the plan-based LMS estimate differs from the reference one by "
            f"{lms['estimate_abs_difference_ps']:.3e} ps (> one minimal step, "
            f"{lms['min_step_ps']:.0e} ps)",
            file=sys.stderr,
        )
        return 1
    if not results["full_bist"]["verdicts_match"]:
        print("ERROR: plan-based BIST verdicts differ from the reference path", file=sys.stderr)
        return 1
    peak_mb = results["dense_render"]["uhf-8psk"]["tracemalloc_peak_mb"]
    if peak_mb > UHF_8PSK_PEAK_LIMIT_MB:
        print(
            f"ERROR: the uhf-8psk render peaked at {peak_mb:.1f} MB under tracemalloc "
            f"(> {UHF_8PSK_PEAK_LIMIT_MB:.0f} MB)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
