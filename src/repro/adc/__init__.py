"""Converter models: quantizer, sample-and-hold, channel mismatch, BP-TIADC,
and the acquisition-source seam for hardware-in-the-loop captures."""

from .acquisition import (
    AcquisitionCapture,
    AcquisitionSource,
    CaptureRecord,
    CapturedSamplesSource,
    RecordingSource,
)
from .adc import AdcChannel
from .mismatch import ChannelMismatch
from .quantizer import UniformQuantizer
from .sample_hold import SampleAndHold
from .tiadc import BpTiadc, DigitallyControlledDelayElement

__all__ = [
    "AdcChannel",
    "ChannelMismatch",
    "UniformQuantizer",
    "SampleAndHold",
    "BpTiadc",
    "DigitallyControlledDelayElement",
    "AcquisitionSource",
    "AcquisitionCapture",
    "CaptureRecord",
    "CapturedSamplesSource",
    "RecordingSource",
]
