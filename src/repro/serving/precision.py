"""Low-precision serving conversions and the fidelity gate.

The gateway wire already quantises point clouds to float32
(:mod:`repro.serving.gateway.protocol`), so the inputs a served model
sees carry at most float32 information — running the forward pass in
float64 spends memory bandwidth reconstructing precision the wire threw
away.  This module owns the two pieces that make the float32/int8 fast
path safe to turn on:

* :func:`apply_precision` — convert a fitted system's weights to a
  serving precision in place of retraining: float32 casts every
  parameter and batch-norm buffer; int8 round-trips each tensor through
  the arena format's per-tensor affine quantisation (so an in-process
  backend predicts exactly what a worker attached to an int8 arena
  would).  The system is stamped with ``serve_precision`` and
  :meth:`~repro.core.pipeline.GesturePrint.predict` runs float32
  forwards; posteriors stay float64 on the wire.

* :func:`fidelity_report` / :func:`assert_fidelity` — the gate: compare
  the candidate against the float64 reference on a probe set and bound
  the posterior drift (and, when labels are available, the EER delta in
  ``bench_fig10_eer.py`` terms) **before** the low-precision system is
  allowed to serve.  The CLI and benchmarks refuse to swap in a
  converted system whose report violates the bounds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import GesturePrint
from repro.metrics.eer import equal_error_rate, verification_trials
from repro.nn.module import Module
from repro.nn.serialization import _named_buffers, _set_buffer, flat_dtype_for


class FidelityError(RuntimeError):
    """A converted system drifted past the allowed bound."""


def _quantize_roundtrip(array: np.ndarray) -> np.ndarray:
    """int8 affine quantise-dequantise, bit-matching the arena path."""
    source = np.asarray(array, dtype=np.float64)
    lo = float(source.min()) if source.size else 0.0
    hi = float(source.max()) if source.size else 0.0
    scale = (hi - lo) / 255.0
    if scale <= 0.0:
        scale = 1.0
    codes = np.clip(np.rint((source - lo) / scale), 0, 255).astype(np.uint8)
    return codes.astype(np.float32) * np.float32(scale) + np.float32(lo)


def _convert_array(array: np.ndarray, precision: str) -> np.ndarray:
    if precision == "int8":
        return _quantize_roundtrip(array)
    return np.ascontiguousarray(array, dtype=np.float32)


def _convert_module(module: Module, precision: str) -> None:
    for _, param in module.named_parameters():
        param.data = _convert_array(param.data, precision)
        param.grad = np.zeros_like(param.data)
    for name, buf in _named_buffers(module):
        _set_buffer(module, name, _convert_array(buf, precision), copy=False)


def apply_precision(system: GesturePrint, precision: str) -> GesturePrint:
    """A deep copy of ``system`` converted to ``precision`` for serving.

    ``float64`` returns an unconverted copy (still stamped, so
    ``engine.precision`` reports what was asked for).  ``float32`` casts
    every weight; ``int8`` additionally round-trips each tensor through
    the arena's per-tensor affine quantisation, so the returned system
    predicts exactly what an int8 flat bundle would after attach.  The
    returned system is frozen for serving.  The original system is never
    touched — it remains the float64 reference the fidelity gate
    compares against.
    """
    flat_dtype_for(precision)  # validates the name
    if system.gesture_model is None:
        raise ValueError("the system must be fitted first")
    converted = copy.deepcopy(system)
    if precision != "float64":
        for model in converted.models():
            _convert_module(model, precision)
    converted.serve_precision = precision
    return converted.freeze()


@dataclass(frozen=True)
class FidelityReport:
    """Drift of a converted system against its float64 reference."""

    precision: str
    #: Max absolute posterior drift across the probe set.
    gesture_drift: float
    user_drift: float
    #: Fraction of probe samples whose argmax predictions agree.
    gesture_agreement: float
    user_agreement: float
    #: EER of reference and candidate on the probe set (NaN without labels).
    reference_eer: float
    candidate_eer: float

    @property
    def max_drift(self) -> float:
        return max(self.gesture_drift, self.user_drift)

    @property
    def eer_delta(self) -> float:
        """Candidate minus reference EER (NaN without labels)."""
        return self.candidate_eer - self.reference_eer

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "gesture_drift": self.gesture_drift,
            "user_drift": self.user_drift,
            "gesture_agreement": self.gesture_agreement,
            "user_agreement": self.user_agreement,
            "reference_eer": self.reference_eer,
            "candidate_eer": self.candidate_eer,
            "eer_delta": self.eer_delta,
        }


def fidelity_report(
    reference: GesturePrint,
    candidate: GesturePrint,
    probe: np.ndarray,
    *,
    user_labels: np.ndarray | None = None,
) -> FidelityReport:
    """Measure ``candidate``'s posterior drift against ``reference``.

    Both systems classify the same ``probe`` batch; the report records
    the max absolute posterior difference per head, argmax agreement,
    and — when ``user_labels`` is given — the verification EER of both
    systems on the probe (the ``bench_fig10_eer.py`` metric), whose
    delta is the product-level fidelity criterion.
    """
    probe = np.asarray(probe, dtype=np.float64)
    ref = reference.predict(probe)
    cand = candidate.predict(probe)
    gesture_drift = float(np.max(np.abs(ref.gesture_probs - cand.gesture_probs)))
    user_diff = np.abs(ref.user_probs - cand.user_probs)
    user_drift = float(np.nanmax(user_diff)) if user_diff.size else 0.0
    reference_eer = candidate_eer = float("nan")
    if user_labels is not None:
        labels = np.asarray(user_labels, dtype=np.int64).ravel()
        reference_eer = equal_error_rate(*verification_trials(ref.user_probs, labels))
        candidate_eer = equal_error_rate(*verification_trials(cand.user_probs, labels))
    return FidelityReport(
        precision=str(getattr(candidate, "serve_precision", "float64")),
        gesture_drift=gesture_drift,
        user_drift=user_drift,
        gesture_agreement=float(np.mean(ref.gesture_pred == cand.gesture_pred)),
        user_agreement=float(np.mean(ref.user_pred == cand.user_pred)),
        reference_eer=reference_eer,
        candidate_eer=candidate_eer,
    )


#: Default gate bounds.  float32 carries ~7 decimal digits — posterior
#: drift is dominated by softmax sensitivity and stays orders below
#: this; int8 is a 255-level grid, so the bound is loose enough to admit
#: a well-conditioned model and tight enough to reject a broken one.
DRIFT_BOUNDS = {"float64": 0.0, "float32": 1e-3, "int8": 0.25}
EER_DELTA_BOUND = 0.02


def assert_fidelity(
    report: FidelityReport,
    *,
    max_drift: float | None = None,
    max_eer_delta: float = EER_DELTA_BOUND,
) -> FidelityReport:
    """Raise :class:`FidelityError` unless ``report`` is within bounds.

    ``max_drift`` defaults per precision (:data:`DRIFT_BOUNDS`); the EER
    delta is only checked when the report measured one.  Returns the
    report so call sites can gate and log in one expression.
    """
    if max_drift is None:
        max_drift = DRIFT_BOUNDS.get(report.precision, 0.0)
    if report.max_drift > max_drift:
        raise FidelityError(
            f"{report.precision} posterior drift {report.max_drift:.3g} "
            f"exceeds the allowed {max_drift:.3g}"
        )
    if not np.isnan(report.eer_delta) and report.eer_delta > max_eer_delta:
        raise FidelityError(
            f"{report.precision} EER regressed by {report.eer_delta:.4f} "
            f"(bound {max_eer_delta:.4f}): "
            f"{report.reference_eer:.4f} -> {report.candidate_eer:.4f}"
        )
    return report
