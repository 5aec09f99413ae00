"""The GesturePrint system: recognition + identification over gesture clouds.

``GesturePrint.fit`` consumes normalised gesture point arrays with both
gesture and user labels (the paper's key point: *the same data* is reused
"to dig for more information from another dimension").  It trains

* one GesIDNet gesture-recognition model, and
* user-identification GesIDNets in one of two modes (SIV-C):

  - **serialized** (default): one ID model per gesture; at inference the
    recognised gesture selects the ID model;
  - **parallel**: a single ID model trained across all gestures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.gesidnet import Geometry, GesIDNet, GesIDNetConfig, geometry_rows
from repro.core.trainer import PREDICT_BATCH, TrainConfig, TrainReport, train_classifier
from repro.metrics.classification import accuracy, macro_f1, one_vs_rest_auc
from repro.metrics.eer import equal_error_rate, verification_trials
from repro.nn.losses import softmax_probabilities


def _posteriors(model: GesIDNet, inputs: np.ndarray, geometry: Geometry) -> np.ndarray:
    """Primary-head probabilities of one chunk on a precomputed geometry."""
    if model.training:  # eval() walks the whole module tree, so only when needed
        model.eval()
    primary, _ = model(inputs, geometry)
    return softmax_probabilities(primary)


class IdentificationMode(enum.Enum):
    """Runtime identification modes (SIV-C)."""

    SERIALIZED = "serialized"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class GesturePrintConfig:
    """End-to-end system configuration."""

    network: GesIDNetConfig = field(default_factory=GesIDNetConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    #: Optional distinct optimisation settings for the user-ID models
    #: (the serialized mode's per-gesture sets are much smaller than the
    #: gesture model's, so they typically want more epochs).  None =
    #: use ``training``.
    id_training: TrainConfig | None = None
    mode: IdentificationMode = IdentificationMode.SERIALIZED
    augment: bool = True
    augment_copies: int = 3
    #: Extra augmentation for the user-identification models.  The
    #: serialized mode slices the training set per gesture, leaving each
    #: ID model with 1/num_gestures of the data; heavier jitter
    #: augmentation compensates.  None = use ``augment_copies``.
    id_augment_copies: int | None = None
    augment_sigma: float = 0.02
    seed: int = 0

    @classmethod
    def small(cls, *, mode: IdentificationMode = IdentificationMode.SERIALIZED, **overrides):
        """Laptop-scale config used by tests and the benchmark harness."""
        defaults = dict(
            network=GesIDNetConfig.small(),
            training=TrainConfig(epochs=18, batch_size=32, learning_rate=3e-3),
            mode=mode,
            augment_copies=1,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class PipelineResult:
    """Predictions for a batch of gesture samples."""

    gesture_pred: np.ndarray
    gesture_probs: np.ndarray
    user_pred: np.ndarray
    user_probs: np.ndarray


class GesturePrint:
    """Train and run the recognition + identification pipeline."""

    def __init__(self, config: GesturePrintConfig | None = None) -> None:
        self.config = config or GesturePrintConfig()
        self.gesture_model: GesIDNet | None = None
        self.user_models: dict[int, GesIDNet] = {}
        self.parallel_user_model: GesIDNet | None = None
        self.num_gestures = 0
        self.num_users = 0
        self.reports: dict[str, TrainReport] = {}

    # ------------------------------------------------------------------
    def _augment(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        users: np.ndarray,
        rng: np.random.Generator,
        *,
        num_copies: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        copies_wanted = self.config.augment_copies if num_copies is None else num_copies
        if not self.config.augment or copies_wanted == 0:
            return inputs, labels, users
        copies = [inputs]
        for _ in range(copies_wanted):
            jittered = inputs.copy()
            jittered[:, :, :3] += rng.normal(
                scale=self.config.augment_sigma, size=jittered[:, :, :3].shape
            )
            copies.append(jittered)
        reps = copies_wanted + 1
        return np.vstack(copies), np.tile(labels, reps), np.tile(users, reps)

    def fit(
        self,
        inputs: np.ndarray,
        gesture_labels: np.ndarray,
        user_labels: np.ndarray,
    ) -> "GesturePrint":
        """Train all models from one labelled sample set."""
        inputs = np.asarray(inputs, dtype=np.float64)
        gesture_labels = np.asarray(gesture_labels, dtype=np.int64).ravel()
        user_labels = np.asarray(user_labels, dtype=np.int64).ravel()
        if inputs.shape[0] != gesture_labels.size or inputs.shape[0] != user_labels.size:
            raise ValueError("inputs and labels must align")
        self.num_gestures = int(gesture_labels.max()) + 1
        self.num_users = int(user_labels.max()) + 1
        rng = np.random.default_rng(self.config.seed)

        aug_x, aug_g, aug_u = self._augment(inputs, gesture_labels, user_labels, rng)

        self.gesture_model = GesIDNet(
            self.num_gestures, self.config.network, rng=np.random.default_rng(self.config.seed)
        )
        self.reports["gesture"] = train_classifier(
            self.gesture_model, aug_x, aug_g, self.config.training
        )

        self.fit_user_models(inputs, gesture_labels, user_labels, rng=rng)
        return self

    def fit_user_models(
        self,
        inputs: np.ndarray,
        gesture_labels: np.ndarray,
        user_labels: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
    ) -> "GesturePrint":
        """(Re)train only the user-identification models.

        The gesture model is left untouched, so this is the enrolment
        path: when a new user joins, their samples extend the ID
        training set and only the (much smaller) ID models retrain.
        """
        self._require_fitted()
        inputs = np.asarray(inputs, dtype=np.float64)
        gesture_labels = np.asarray(gesture_labels, dtype=np.int64).ravel()
        user_labels = np.asarray(user_labels, dtype=np.int64).ravel()
        if inputs.shape[0] != gesture_labels.size or inputs.shape[0] != user_labels.size:
            raise ValueError("inputs and labels must align")
        rng = rng or np.random.default_rng(self.config.seed + 1)
        self.num_users = int(user_labels.max()) + 1

        id_copies = (
            self.config.id_augment_copies
            if self.config.id_augment_copies is not None
            else self.config.augment_copies
        )
        id_training = self.config.id_training or self.config.training
        if self.config.mode is IdentificationMode.SERIALIZED:
            self.user_models = {}
            for gesture in range(self.num_gestures):
                mask = gesture_labels == gesture
                if np.unique(user_labels[mask]).size < 2:
                    continue  # cannot identify among fewer than two users
                id_x, _, id_u = self._augment(
                    inputs[mask],
                    gesture_labels[mask],
                    user_labels[mask],
                    rng,
                    num_copies=id_copies,
                )
                model = GesIDNet(
                    self.num_users,
                    self.config.network,
                    rng=np.random.default_rng(self.config.seed + 100 + gesture),
                )
                self.reports[f"user_g{gesture}"] = train_classifier(
                    model, id_x, id_u, id_training
                )
                self.user_models[gesture] = model
        else:
            id_x, _, id_u = self._augment(
                inputs, gesture_labels, user_labels, rng, num_copies=id_copies
            )
            self.parallel_user_model = GesIDNet(
                self.num_users,
                self.config.network,
                rng=np.random.default_rng(self.config.seed + 100),
            )
            self.reports["user_parallel"] = train_classifier(
                self.parallel_user_model, id_x, id_u, id_training
            )
        return self

    def models(self) -> list[GesIDNet]:
        """Every fitted model: gesture, per-gesture ID, then parallel ID."""
        models = [self.gesture_model] if self.gesture_model is not None else []
        models.extend(self.user_models.values())
        if self.parallel_user_model is not None:
            models.append(self.parallel_user_model)
        return models

    def freeze(self) -> "GesturePrint":
        """Freeze every model for serving (:meth:`repro.nn.Module.freeze`).

        The weights become read-only and each model folds its batch-norms
        and transposes its dense weights once instead of every forward.
        Posteriors are unchanged bit for bit.  Fine-tuning calls
        ``train()`` first, which unlocks them again.
        """
        for model in self.models():
            model.freeze()
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.gesture_model is None:
            raise RuntimeError("call fit() before predicting")

    def predict(self, inputs: np.ndarray) -> PipelineResult:
        """Recognise gestures and identify users for a batch of samples.

        Each chunk of up to ``PREDICT_BATCH`` rows computes its
        set-abstraction geometry once (:meth:`recognize`) and the ID
        models reuse it (:meth:`identify`): every model of a system is
        built from ``config.network``, and the geometry depends on
        nothing else but the coordinates.

        A system stamped with a low ``serve_precision`` (the float32 /
        int8 arena fast path — see :mod:`repro.serving.precision`) runs
        its forward passes in float32; the returned posteriors are
        float64 in every mode, so downstream consumers and the gateway
        wire format never change.
        """
        self._require_fitted()
        inputs = self._work_inputs(inputs)
        gesture_chunks, user_chunks = [], []
        for start in range(0, inputs.shape[0], PREDICT_BATCH):
            chunk = inputs[start : start + PREDICT_BATCH]
            gesture_probs, geometry = self.recognize(chunk)
            gesture_chunks.append(gesture_probs)
            user_chunks.append(self.identify(chunk, gesture_probs.argmax(axis=1), geometry))
        gesture_probs = np.vstack(gesture_chunks)
        user_probs = np.vstack(user_chunks)
        return PipelineResult(
            gesture_pred=gesture_probs.argmax(axis=1),
            gesture_probs=gesture_probs,
            user_pred=user_probs.argmax(axis=1),
            user_probs=user_probs,
        )

    def recognize(self, inputs: np.ndarray) -> tuple[np.ndarray, Geometry]:
        """Gesture posteriors of one chunk, and the geometry they used.

        ``inputs`` should be a chunk :meth:`predict` would form; the
        geometry is built for all of its rows at once.
        """
        self._require_fitted()
        inputs = self._work_inputs(inputs)
        geometry = self.gesture_model.geometry(inputs)
        return _posteriors(self.gesture_model, inputs, geometry), geometry

    def identify(
        self, inputs: np.ndarray, gesture_pred: np.ndarray, geometry: Geometry
    ) -> np.ndarray:
        """User posteriors of a chunk recognised as ``gesture_pred``.

        ``geometry`` is the one :meth:`recognize` returned for the same
        ``inputs``; serialized mode hands each ID model its rows of it.
        A gesture with no ID model (degenerate training set) gets
        uniform posteriors.
        """
        inputs = self._work_inputs(inputs)
        if self.config.mode is IdentificationMode.PARALLEL:
            return _posteriors(self.parallel_user_model, inputs, geometry)
        user_probs = np.full((inputs.shape[0], max(self.num_users, 1)), np.nan)
        for gesture in np.unique(gesture_pred):
            mask = gesture_pred == gesture
            model = self.user_models.get(int(gesture))
            if model is None:
                user_probs[mask] = 1.0 / max(self.num_users, 1)
            else:
                user_probs[mask] = _posteriors(
                    model, inputs[mask], geometry_rows(geometry, mask)
                )
        return user_probs

    def _work_inputs(self, inputs: np.ndarray) -> np.ndarray:
        work_dtype = (
            np.float32
            if getattr(self, "serve_precision", None) in ("float32", "int8")
            else np.float64
        )
        return np.asarray(inputs, dtype=work_dtype)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        inputs: np.ndarray,
        gesture_labels: np.ndarray,
        user_labels: np.ndarray,
    ) -> dict[str, float]:
        """All the paper's metrics on a labelled test set.

        Returns GRA/GRF1/GRAUC, UIA/UIF1/UIAUC, and EER.  For serialized
        mode UIA is the per-gesture average (SVI-A3); for parallel mode
        it is computed once over all samples.
        """
        gesture_labels = np.asarray(gesture_labels, dtype=np.int64).ravel()
        user_labels = np.asarray(user_labels, dtype=np.int64).ravel()
        result = self.predict(inputs)

        metrics = {
            "GRA": accuracy(gesture_labels, result.gesture_pred),
            "GRF1": macro_f1(gesture_labels, result.gesture_pred),
            "GRAUC": one_vs_rest_auc(gesture_labels, result.gesture_probs),
        }
        if self.config.mode is IdentificationMode.SERIALIZED:
            per_gesture = []
            for gesture in np.unique(gesture_labels):
                mask = gesture_labels == gesture
                per_gesture.append(accuracy(user_labels[mask], result.user_pred[mask]))
            metrics["UIA"] = float(np.mean(per_gesture))
        else:
            metrics["UIA"] = accuracy(user_labels, result.user_pred)
        metrics["UIF1"] = macro_f1(user_labels, result.user_pred)
        metrics["UIAUC"] = one_vs_rest_auc(user_labels, result.user_probs)
        genuine, impostor = verification_trials(result.user_probs, user_labels)
        metrics["EER"] = equal_error_rate(genuine, impostor)
        return metrics
