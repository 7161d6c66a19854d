"""Archives written before the test-only settings became constants still load.

Every ``from_dict`` keeps loading a dictionary (or ``POST /jobs`` body) that
carries a removed setting at the value it is now fixed at, and rejects any
other value with :class:`~repro.errors.ValidationError` (HTTP 400 from the
service), since loading it as the constant would misreport what the archive
describes.  The dictionaries below are what the library wrote before the
settings went; an unknown key inside a nested impairment model is ignored,
like an unknown key anywhere else.
"""

import asyncio
import copy
import http.client
import json
import threading

import pytest

from repro.bist import BistConfig, ConverterSpec
from repro.errors import ValidationError
from repro.rf import DcOffset, PolynomialAmplifier, SalehAmplifier
from repro.service import CampaignSpec, JobQueue
from repro.service.server import BistServiceServer
from repro.signals.ofdm import OfdmParams
from repro.transmitter import ImpairmentConfig, TransmitDac, TransmitterConfig

FAST_BIST = {
    "acquisition_bandwidth_hz": 90000000.0,
    "num_samples_fast": 128,
    "num_samples_slow": 64,
    "programmed_delay_seconds": 1.8e-10,
    "num_taps": 60,
    "lms_initial_delay_seconds": None,
    "lms_initial_step_seconds": 1e-12,
    "lms_max_iterations": 25,
    "num_cost_points": 60,
    "correct_static_mismatch": False,
    "measure_evm_enabled": False,
    "seed": 20140324,
}
FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)
CONVERTER = {
    "resolution_bits": 10,
    "skew_jitter_rms_seconds": 3e-12,
    "dcde_static_error_seconds": 0.0,
    "channel1_skew_seconds": 0.0,
    "channel1_gain_error": 0.0,
    "channel1_offset": 0.0,
    "channel1_bandwidth_hz": None,
    "bandwidth_reference_hz": None,
    "full_scale": 3.0,
    "seed": 99,
}
SALEH_DAC_OFFSET = {
    "amplifier": {
        "type": "SalehAmplifier",
        "params": {
            "alpha_amplitude": 2.1587,
            "beta_amplitude": 1.1517,
            "alpha_phase": 4.0033,
            "beta_phase": 9.104,
        },
    },
    "iq_imbalance": {"gain_imbalance_db": 0.0, "phase_imbalance_deg": 0.0},
    "dc_offset": {"i_offset": 0.1, "q_offset": 0.0},
    "phase_noise": {"linewidth_hz": 0.0, "rms_jitter_seconds": 0.0},
    "output_snr_db": None,
    "dac": {
        "resolution_bits": 14,
        "full_scale": 4.0,
        "apply_zero_order_hold_droop": False,
        "reconstruction_cutoff_hz": None,
        "reconstruction_order": 5,
        "inl_fraction_lsb": 0.0,
    },
    "output_filter_bandwidth_scale": 1.0,
}
POLYNOMIAL = {
    "amplifier": {
        "type": "PolynomialAmplifier",
        "params": {"a1": [10.0, 0.0], "a3": [-0.5, 0.05], "a5": [0.0, 0.0]},
    },
}
OFDM = {"fft_size": 32, "num_subcarriers": 26, "cp_length": 8, "pilot_spacing": 7, "pilot_amplitude": 1.0}
TRANSMITTER = {
    "carrier_frequency_hz": 1000000000.0,
    "symbol_rate_hz": 10000000.0,
    "modulation": "qpsk",
    "rolloff": 0.5,
    "samples_per_symbol": 16,
    "pulse_span_symbols": 10,
    "output_power": 1.0,
    "impairments": SALEH_DAC_OFFSET,
    "seed": 2014,
    "ofdm": OFDM,
}
SPEC = {
    "profiles": ["paper-qpsk-1ghz"],
    "impairments": [["saleh", SALEH_DAC_OFFSET]],
    "converters": [["paper", CONVERTER]],
    "num_symbols": None,
    "bist_config": FAST_BIST,
    "seed_policy": "shared",
    "compile_groups": False,
}

SALEH_IMPAIRMENTS = ImpairmentConfig(
    amplifier=SalehAmplifier(), dc_offset=DcOffset(i_offset=0.1), dac=TransmitDac()
)
EXPECTED_SPEC = CampaignSpec(
    profiles=("paper-qpsk-1ghz",),
    impairments=(("saleh", SALEH_IMPAIRMENTS),),
    converters=(("paper", ConverterSpec()),),
    bist_config=FAST_CONFIG,
)


@pytest.fixture(scope="module")
def post_jobs(tmp_path_factory):
    """``POST /jobs`` to a live in-process service: the job's description, or
    :class:`ValidationError` for a 400 answer."""
    ready = threading.Event()
    state = {}

    def run_server():
        async def main():
            queue = JobQueue(tmp_path_factory.mktemp("store"), num_workers=1)
            server = BistServiceServer(queue, port=0)
            await server.start()
            state["server"] = server
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert ready.wait(10.0), "server never came up"

    def request(method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", state["server"].port, timeout=60.0)
        connection.request(method, path, body=None if body is None else json.dumps(body).encode())
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        connection.close()
        return response.status, payload

    def post(body):
        status, payload = request("POST", "/jobs", body)
        if status == 400:
            raise ValidationError(payload["error"])
        assert status == 200, payload
        return payload["description"]

    yield post
    request("POST", "/drain")
    thread.join(timeout=120.0)
    assert not thread.is_alive(), "server thread did not shut down"


#: ``(loader, archive, expected, removed key paths with a non-default value,
#: path of a nested impairment model)``; a loader named by string is a fixture.
CASES = {
    "bist-config": (
        BistConfig.from_dict,
        FAST_BIST,
        FAST_CONFIG,
        [
            (("num_taps",), 40),
            (("lms_initial_delay_seconds",), 1.5e-10),
            (("lms_initial_step_seconds",), 2e-12),
            (("correct_static_mismatch",), True),
        ],
        None,
    ),
    "converter-spec": (
        ConverterSpec.from_dict,
        CONVERTER,
        ConverterSpec(),
        [(("resolution_bits",), 12), (("full_scale",), 2.0)],
        None,
    ),
    "impairments-saleh-dac-offset": (
        ImpairmentConfig.from_dict,
        SALEH_DAC_OFFSET,
        SALEH_IMPAIRMENTS,
        [
            (("amplifier", "params", "alpha_amplitude"), 2.0),
            (("amplifier", "params", "beta_phase"), 9.0),
            (("dac", "full_scale"), 2.0),
            (("dac", "apply_zero_order_hold_droop"), True),
            (("dac", "reconstruction_cutoff_hz"), 10e6),
            (("dac", "reconstruction_order"), 3),
            (("dac", "inl_fraction_lsb"), 0.5),
            (("dc_offset", "q_offset"), -0.05),
        ],
        ("iq_imbalance",),
    ),
    "impairments-polynomial": (
        ImpairmentConfig.from_dict,
        POLYNOMIAL,
        ImpairmentConfig(amplifier=PolynomialAmplifier()),
        [
            (("amplifier", "params", "a1"), [5.0, 0.0]),
            (("amplifier", "params", "a3"), [-1.0, 0.0]),
            (("amplifier", "params", "a5"), [0.0, 0.1]),
        ],
        ("amplifier", "params"),
    ),
    "ofdm-params": (
        OfdmParams.from_dict,
        OFDM,
        OfdmParams(),
        [(("pilot_amplitude",), 0.5)],
        None,
    ),
    "transmitter-config": (
        TransmitterConfig.from_dict,
        TRANSMITTER,
        TransmitterConfig(impairments=SALEH_IMPAIRMENTS, ofdm=OfdmParams()),
        [
            (("output_power",), 2.0),
            (("ofdm", "pilot_amplitude"), 0.5),
            (("impairments", "dac", "inl_fraction_lsb"), 0.5),
        ],
        ("impairments", "dc_offset"),
    ),
    "campaign-spec": (
        CampaignSpec.from_dict,
        SPEC,
        EXPECTED_SPEC,
        [
            (("bist_config", "lms_initial_step_seconds"), 2e-12),
            (("converters", 0, 1, "full_scale"), 2.0),
            (("impairments", 0, 1, "amplifier", "params", "alpha_phase"), 4.0),
        ],
        ("impairments", 0, 1, "phase_noise"),
    ),
    "post-jobs": (
        "post_jobs",
        SPEC,
        EXPECTED_SPEC.describe(),
        [
            (("bist_config", "correct_static_mismatch"), True),
            (("impairments", 0, 1, "dac", "reconstruction_cutoff_hz"), 10e6),
        ],
        ("impairments", 0, 1, "dac"),
    ),
}


def with_value(data, path, value):
    """A deep copy of ``data`` with ``value`` stored at the key ``path``."""
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def loader_for(loader, request):
    return request.getfixturevalue(loader) if isinstance(loader, str) else loader


@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_with_removed_settings_at_their_values_loads(name, request):
    loader, archive, expected, _, model_path = CASES[name]
    load = loader_for(loader, request)
    assert load(copy.deepcopy(archive)) == expected
    # An unknown key, inside a nested impairment model where there is one.
    unknown = with_value(archive, (*(model_path or ()), "added_by_a_newer_version"), 1.0)
    assert load(unknown) == expected


@pytest.mark.parametrize(
    "name, path, value",
    [(name, path, value) for name in sorted(CASES) for path, value in CASES[name][3]],
    ids=lambda item: ".".join(map(str, item)) if isinstance(item, tuple) else None,
)
def test_removed_setting_at_another_value_is_rejected(name, path, value, request):
    loader, archive, _, _, _ = CASES[name]
    with pytest.raises(ValidationError, match=str(path[-1])):
        loader_for(loader, request)(with_value(archive, path, value))
