"""Synthetic multi-threaded workloads calibrated to the paper's Table II
applications."""

from repro.workloads.profiles import (
    WorkloadProfile,
    PROFILES,
    APPLICATIONS,
    profile,
)
from repro.workloads.generator import SyntheticTraceGenerator, generate_streams
from repro.workloads.capture import load_capture, save_capture

__all__ = [
    "WorkloadProfile",
    "PROFILES",
    "APPLICATIONS",
    "profile",
    "SyntheticTraceGenerator",
    "generate_streams",
    "load_capture",
    "save_capture",
]
