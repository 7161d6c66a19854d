"""Arithmetic and provenance helpers of the benchmark harness.

Everything here works on numbers the workloads collected, so the harness
tests can pin it down without running the BIST itself.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

#: Percentiles considered when reporting a timing's tail, highest last.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def highest_supported_percentile(num_samples: int, ladder=PERCENTILE_LADDER):
    """Highest ladder percentile with at least ten samples beyond it (or ``None``).

    ``n * (1 - q/100)`` samples lie beyond the ``q``-th percentile of ``n``
    samples; a tail figure read from fewer than ten of them is noise.
    """
    supported = None
    for q in ladder:
        # Rounded so 99.9 on 10,000 samples counts its ten, not 9.99999.
        if round(num_samples * (100.0 - q) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            supported = q
    return supported


def timing_summary(values) -> dict:
    """Median, sample count and the highest well-supported tail percentile."""
    values = [float(value) for value in values]
    q = highest_supported_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_percentile": q,
        "tail_value": None if q is None else float(np.percentile(values, q)),
    }


def rms(values) -> float:
    """Root mean square of a non-empty sequence."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("rms of an empty sequence")
    return math.sqrt(sum(value * value for value in values) / len(values))


def skew_error_ps_rms(calibrations) -> float:
    """RMS of estimated minus true channel delay, in picoseconds.

    ``calibrations`` holds ``(estimated_seconds, true_seconds)`` pairs — the
    paper's Table I quantity pooled over a population of devices.
    """
    return rms((estimated - true) * 1e12 for estimated, true in calibrations)


def alarm_latency(alarm_windows, onset_window: int) -> tuple:
    """``(latency_windows, false_alarms)`` of one monitored session.

    Latency counts windows from the drift onset to the first alarm raised at
    or after it (``None`` when the drift was never flagged); alarms raised
    before the onset window are false alarms.
    """
    alarm_windows = sorted(int(window) for window in alarm_windows)
    false_alarms = sum(1 for window in alarm_windows if window < onset_window)
    after = [window for window in alarm_windows if window >= onset_window]
    latency = None if not after else after[0] - onset_window
    return latency, false_alarms


def warm_hit_accounting(num_scenarios: int, planned_hits: int, executed: int) -> dict:
    """Store hit ratio of a resubmitted campaign and whether it was fully warm.

    A warm resubmission must serve every scenario from the store and execute
    nothing; anything else means the store lost or re-keyed records.
    """
    if num_scenarios <= 0:
        raise ValueError("a campaign has at least one scenario")
    ratio = planned_hits / num_scenarios
    return {
        "hit_ratio": ratio,
        "fully_warm": planned_hits == num_scenarios and executed == 0,
    }


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> dict:
    """BLAS library name/version from NumPy's build config, plus its thread count."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def filesystem_of(path) -> str:
    """Filesystem type of the mount holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point = fields[1]
        inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) >= len(best):
            best, fstype = mount_point, fields[2]
    return fstype


def git_commit(root) -> str:
    """Commit of a git checkout read from ``.git`` directly; ``unknown`` otherwise."""
    git_dir = Path(root) / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root, store_dir, seed: int) -> dict:
    """Where and on what a result was measured."""
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "store_filesystem": filesystem_of(store_dir),
        "git_commit": git_commit(root),
        "seed": int(seed),
        "argv": sys.argv[1:],
    }
