"""Open-set identification: rejecting unauthorized users and random gestures.

The paper selects the serialized mode partly for its "capability of
handling random gestures and unauthorized people" (SIV-C).  This module
makes that capability concrete:

* :class:`OpenSetVerifier` calibrates score thresholds on enrolment
  data and then (a) verifies identity claims, (b) performs open-set
  identification — returning :data:`UNKNOWN_USER` when no enrolled
  user's score clears the threshold, and (c) flags out-of-vocabulary
  gestures whose recognition confidence is too low.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import GesturePrint
from repro.metrics.eer import roc_curve, verification_trials

#: Sentinel label returned for rejected (non-enrolled) users.
UNKNOWN_USER = -1

#: Sentinel label returned for rejected (out-of-vocabulary) gestures.
UNKNOWN_GESTURE = -1


@dataclass(frozen=True)
class Calibration:
    """Thresholds derived from enrolment data.

    ``feature_threshold`` guards against off-manifold inputs: softmax
    confidence saturates on data far from the training distribution, so
    probability thresholds alone cannot reject outsiders reliably.  The
    distance of a sample's fusion feature to the nearest enrolled class
    centroid does not saturate, making it the primary out-of-
    distribution gate.
    """

    user_threshold: float
    gesture_threshold: float
    feature_threshold: float
    eer: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.user_threshold <= 1.0:
            raise ValueError("user_threshold must be a probability")
        if not 0.0 <= self.gesture_threshold <= 1.0:
            raise ValueError("gesture_threshold must be a probability")
        if self.feature_threshold <= 0.0:
            raise ValueError("feature_threshold must be positive")


class OpenSetVerifier:
    """Threshold-calibrated open-set layer over a fitted GesturePrint."""

    def __init__(self, system: GesturePrint) -> None:
        if system.gesture_model is None:
            raise ValueError("the system must be fitted first")
        self.system = system
        self.calibration: Calibration | None = None
        self._class_centroids: np.ndarray | None = None

    def _fusion_features(self, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Primary fusion features of the gesture model, batched."""
        model = self.system.gesture_model
        model.eval()
        chunks = []
        for start in range(0, inputs.shape[0], batch_size):
            chunks.append(model.features(inputs[start : start + batch_size])["fused1"])
        return np.vstack(chunks)

    # ------------------------------------------------------------------
    def calibrate(
        self,
        inputs: np.ndarray,
        gesture_labels: np.ndarray,
        user_labels: np.ndarray,
        *,
        target_far: float = 0.05,
        gesture_quantile: float = 0.05,
        feature_quantile: float = 0.99,
    ) -> Calibration:
        """Derive thresholds from held-out enrolment samples.

        ``target_far`` sets the user-acceptance threshold at the score
        where the impostor false-accept rate equals the target;
        ``gesture_quantile`` sets the gesture threshold at the given
        quantile of correct-recognition confidences;
        ``feature_quantile`` sets the out-of-distribution gate at that
        quantile of enrolment feature-to-centroid distances.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        result = self.system.predict(inputs)
        user_labels = np.asarray(user_labels, dtype=np.int64).ravel()
        gesture_labels = np.asarray(gesture_labels, dtype=np.int64).ravel()

        genuine, impostor = verification_trials(result.user_probs, user_labels)
        curve = roc_curve(genuine, impostor)
        eer = curve.eer()
        # Smallest threshold whose FPR does not exceed the target.
        acceptable = np.flatnonzero(curve.false_positive_rate <= target_far)
        if acceptable.size:
            idx = int(acceptable[0])
            threshold = curve.thresholds[idx]
            if not np.isfinite(threshold):
                threshold = float(np.quantile(impostor, 1.0 - target_far))
        else:
            threshold = float(np.quantile(impostor, 1.0 - target_far))
        user_threshold = float(np.clip(threshold, 0.0, 1.0))

        correct = result.gesture_pred == gesture_labels
        if correct.any():
            confidences = result.gesture_probs[np.arange(correct.size), result.gesture_pred]
            gesture_threshold = float(np.quantile(confidences[correct], gesture_quantile))
        else:
            gesture_threshold = 1.0 / max(self.system.num_gestures, 1)

        # Feature-space out-of-distribution gate.
        features = self._fusion_features(inputs)
        centroids = np.stack(
            [
                features[gesture_labels == g].mean(axis=0)
                if (gesture_labels == g).any()
                else np.zeros(features.shape[1])
                for g in range(self.system.num_gestures)
            ]
        )
        self._class_centroids = centroids
        own = centroids[gesture_labels]
        genuine_dists = np.linalg.norm(features - own, axis=1)
        feature_threshold = float(np.quantile(genuine_dists, feature_quantile))

        self.calibration = Calibration(
            user_threshold=user_threshold,
            gesture_threshold=float(np.clip(gesture_threshold, 0.0, 1.0)),
            feature_threshold=max(feature_threshold, 1e-9),
            eer=float(eer),
        )
        return self.calibration

    # ------------------------------------------------------------------
    def _require_calibration(self) -> Calibration:
        if self.calibration is None:
            raise RuntimeError("call calibrate() before verification")
        return self.calibration

    def verify(self, inputs: np.ndarray, claimed_user: int) -> np.ndarray:
        """Accept/reject an identity claim per sample (boolean array)."""
        calibration = self._require_calibration()
        if not 0 <= claimed_user < self.system.num_users:
            raise ValueError(f"claimed_user {claimed_user} is not enrolled")
        result = self.system.predict(np.asarray(inputs, dtype=np.float64))
        scores = result.user_probs[:, claimed_user]
        return scores >= calibration.user_threshold

    def identify(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Open-set identification.

        Returns ``(gesture_pred, user_pred)`` where rejected entries are
        :data:`UNKNOWN_GESTURE` / :data:`UNKNOWN_USER`.
        """
        calibration = self._require_calibration()
        inputs = np.asarray(inputs, dtype=np.float64)
        result = self.system.predict(inputs)
        gesture_conf = result.gesture_probs.max(axis=1)
        user_conf = result.user_probs.max(axis=1)
        features = self._fusion_features(inputs)
        dists = np.linalg.norm(
            features[:, None, :] - self._class_centroids[None, :, :], axis=2
        ).min(axis=1)
        in_distribution = dists <= calibration.feature_threshold
        gestures = np.where(
            (gesture_conf >= calibration.gesture_threshold) & in_distribution,
            result.gesture_pred,
            UNKNOWN_GESTURE,
        )
        users = np.where(
            (user_conf >= calibration.user_threshold) & (gestures != UNKNOWN_GESTURE),
            result.user_pred,
            UNKNOWN_USER,
        )
        return gestures, users

    def false_accept_rate(self, outsider_inputs: np.ndarray) -> float:
        """Fraction of non-enrolled samples accepted as some enrolled user."""
        _, users = self.identify(outsider_inputs)
        return float((users != UNKNOWN_USER).mean())
