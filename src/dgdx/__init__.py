"""Failure-mode diagnostics for multi-domain classifiers.

Decomposes a model's error on unseen domains into four components and its
representation non-invariance into three, by fitting linear probes on
exported representations.  Ships synthetic ground-truth scenarios, exact
small-instance verification of the metric relationships, and a desk-scale
training harness.
"""

from .core import (
    DatasetError,
    Diagnosis,
    DomainMeta,
    DumpError,
    LinearProbe,
    RepresentationDataset,
    load_dump,
    save_dump,
    validate_no_label_shift,
)
from .metrics import decompose, diagnose, pearson
from .probe import FiniteProbeFamily, exact_best_error, fit_probe, zero_one_error
from .scenarios import ScenarioSpec, check_expectation, generate

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "Diagnosis",
    "DomainMeta",
    "DumpError",
    "FiniteProbeFamily",
    "LinearProbe",
    "RepresentationDataset",
    "ScenarioSpec",
    "check_expectation",
    "decompose",
    "diagnose",
    "exact_best_error",
    "fit_probe",
    "generate",
    "load_dump",
    "pearson",
    "save_dump",
    "validate_no_label_shift",
    "zero_one_error",
]
