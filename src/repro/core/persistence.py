"""Save and load a fitted GesturePrint system.

The paper's deployment splits training (back-end server) from inference
(laptop / Jetson Nano): models are trained once and shipped to the edge
device.  This module persists a fitted :class:`GesturePrint` — the
gesture model, every per-gesture (or the parallel) user model, and the
configuration — into a directory of ``.npz`` weight archives plus a
JSON manifest, and restores it into a ready-to-infer system.

Two on-disk layouts share the manifest schema:

* the **checkpoint** (:func:`save_system` / :func:`load_system`) — one
  ``.npz`` per model, the training/shipping format;
* the **flat bundle** (:func:`export_flat` / :func:`load_system_flat`)
  — every model's weights packed into one contiguous float64 arena
  (``weights.arena``) plus ``flat_manifest.json``.  Worker processes of
  the serving layer's :class:`~repro.serving.backends.ProcessPoolBackend`
  attach the arena **read-only via mmap**, so N workers share one
  physical copy of the weights through the page cache and a model swap
  never pickles a system across a process boundary.  Attached weights
  are bit-exact views, so predictions are byte-identical to the source
  system's.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
import os
import pathlib

import numpy as np

from repro.core.gesidnet import GesIDNet, GesIDNetConfig
from repro.core.pipeline import GesturePrint, GesturePrintConfig, IdentificationMode
from repro.core.trainer import TrainConfig
from repro.nn.serialization import (
    flat_dtype_for,
    load_flat_mmap,
    load_state,
    save_state,
    write_flat,
)
from repro.nn.setabstraction import ScaleSpec

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1

FLAT_MANIFEST_NAME = "flat_manifest.json"
FLAT_ARENA_NAME = "weights.arena"
FLAT_BUNDLE_VERSION = 1


def _scale_to_dict(spec: ScaleSpec) -> dict:
    return {
        "radius": spec.radius,
        "max_neighbors": spec.max_neighbors,
        "mlp_channels": list(spec.mlp_channels),
    }


def _scale_from_dict(data: dict) -> ScaleSpec:
    return ScaleSpec(
        radius=data["radius"],
        max_neighbors=data["max_neighbors"],
        mlp_channels=tuple(data["mlp_channels"]),
    )


def _network_to_dict(config: GesIDNetConfig) -> dict:
    data = dataclasses.asdict(config)
    data["sa1_scales"] = [_scale_to_dict(s) for s in config.sa1_scales]
    data["sa2_scales"] = [_scale_to_dict(s) for s in config.sa2_scales]
    return data


def _network_from_dict(data: dict) -> GesIDNetConfig:
    data = dict(data)
    data["sa1_scales"] = tuple(_scale_from_dict(s) for s in data["sa1_scales"])
    data["sa2_scales"] = tuple(_scale_from_dict(s) for s in data["sa2_scales"])
    data["level1_mlp"] = tuple(data["level1_mlp"])
    data["level2_mlp"] = tuple(data["level2_mlp"])
    data["head1_hidden"] = tuple(data["head1_hidden"])
    return GesIDNetConfig(**data)


def _system_manifest(system: GesturePrint) -> dict:
    """The architecture/config manifest shared by both on-disk layouts."""
    return {
        "format_version": FORMAT_VERSION,
        "mode": system.config.mode.value,
        "num_gestures": system.num_gestures,
        "num_users": system.num_users,
        "network": _network_to_dict(system.config.network),
        "training": dataclasses.asdict(system.config.training),
        "augment": system.config.augment,
        "augment_copies": system.config.augment_copies,
        "augment_sigma": system.config.augment_sigma,
        "seed": system.config.seed,
        "user_model_gestures": sorted(system.user_models),
        "has_parallel_model": system.parallel_user_model is not None,
    }


def _model_items(system: GesturePrint) -> list[tuple[str, GesIDNet]]:
    """``(slot_name, model)`` for every fitted model, in manifest order."""
    items = [("gesture_model", system.gesture_model)]
    for gesture in sorted(system.user_models):
        items.append((f"user_model_g{gesture}", system.user_models[gesture]))
    if system.parallel_user_model is not None:
        items.append(("user_model_parallel", system.parallel_user_model))
    return items


def _build_skeleton(manifest: dict) -> tuple[GesturePrint, list[tuple[str, GesIDNet]]]:
    """An unweighted system matching ``manifest``, plus its model slots."""
    network = _network_from_dict(manifest["network"])
    config = GesturePrintConfig(
        network=network,
        training=TrainConfig(**manifest["training"]),
        mode=IdentificationMode(manifest["mode"]),
        augment=manifest["augment"],
        augment_copies=manifest["augment_copies"],
        augment_sigma=manifest["augment_sigma"],
        seed=manifest["seed"],
    )
    system = GesturePrint(config)
    system.num_gestures = manifest["num_gestures"]
    system.num_users = manifest["num_users"]

    rng = np.random.default_rng(0)
    system.gesture_model = GesIDNet(system.num_gestures, network, rng=rng)
    slots: list[tuple[str, GesIDNet]] = [("gesture_model", system.gesture_model)]
    for gesture in manifest["user_model_gestures"]:
        model = GesIDNet(system.num_users, network, rng=rng)
        system.user_models[int(gesture)] = model
        slots.append((f"user_model_g{gesture}", model))
    if manifest["has_parallel_model"]:
        system.parallel_user_model = GesIDNet(system.num_users, network, rng=rng)
        slots.append(("user_model_parallel", system.parallel_user_model))
    return system, slots


def save_system(system: GesturePrint, directory: str | os.PathLike) -> None:
    """Persist a fitted system to ``directory`` (created if missing)."""
    if system.gesture_model is None:
        raise ValueError("cannot save an unfitted system; call fit() first")
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest = _system_manifest(system)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    for name, model in _model_items(system):
        save_state(model, path / f"{name}.npz")


def load_system(directory: str | os.PathLike) -> GesturePrint:
    """Restore a system saved by :func:`save_system`, frozen for predict()."""
    path = pathlib.Path(directory)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {manifest.get('format_version')!r}"
        )
    system, slots = _build_skeleton(manifest)
    for name, model in slots:
        load_state(model, path / f"{name}.npz")
    return system.freeze()


# ----------------------------------------------------------------------
# Flat bundle: one mmap-shareable weight arena for the whole system
# ----------------------------------------------------------------------
def export_flat(
    system: GesturePrint,
    directory: str | os.PathLike,
    *,
    precision: str = "float64",
) -> pathlib.Path:
    """Export a fitted system as a flat weight bundle for mmap sharing.

    Writes ``weights.arena`` (every model's parameters and buffers,
    concatenated into one contiguous little-endian arena in the storage
    dtype of ``precision`` — float64 by default, float32 or int8 for the
    low-precision serving fast path) and ``flat_manifest.json`` (the
    system manifest plus per-model arena sections).  The manifest is
    written *last*, so a reader that finds one never sees a truncated
    arena.  Returns the bundle directory.
    """
    if system.gesture_model is None:
        raise ValueError("cannot export an unfitted system; call fit() first")
    dtype = flat_dtype_for(precision)  # validates the precision name
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    sections: dict[str, dict] = {}
    offset = 0
    with open(path / FLAT_ARENA_NAME, "wb") as stream:
        for name, model in _model_items(system):
            section = write_flat(
                model, stream, element_offset=offset, precision=precision
            )
            sections[name] = section
            offset += section["elements"]
    manifest = _system_manifest(system)
    manifest["flat_version"] = FLAT_BUNDLE_VERSION
    manifest["dtype"] = dtype.str
    manifest["precision"] = precision
    manifest["elements"] = offset
    manifest["sections"] = sections
    (path / FLAT_MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return path


def load_system_flat(directory: str | os.PathLike) -> GesturePrint:
    """Attach a flat bundle: a ready-to-infer system over mmap'd weights.

    Every parameter and batch-norm buffer is a read-only view into one
    ``np.memmap`` of the bundle's arena, shared page-for-page with every
    other process attached to the same bundle (int8 bundles dequantise
    into private float32 copies — the shared mapping backs the 1-byte
    codes).  A float64 bundle predicts byte-identically to the exporting
    system; float32/int8 bundles are stamped with ``serve_precision`` so
    :meth:`~repro.core.pipeline.GesturePrint.predict` runs its forwards
    in float32.  The system comes back frozen; ``train()`` on it leaves
    the mmap views read-only.
    """
    path = pathlib.Path(directory)
    manifest_path = path / FLAT_MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no flat manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("flat_version") != FLAT_BUNDLE_VERSION:
        raise ValueError(
            f"unsupported flat bundle version {manifest.get('flat_version')!r}"
        )
    precision = manifest.get("precision", "float64")
    system, slots = _build_skeleton(manifest)
    arena = np.memmap(path / FLAT_ARENA_NAME, dtype=flat_dtype_for(precision), mode="r")
    if arena.size != manifest["elements"]:
        raise ValueError(
            f"arena holds {arena.size} elements, manifest expects "
            f"{manifest['elements']} (truncated bundle?)"
        )
    sections = manifest["sections"]
    for name, model in slots:
        if name not in sections:
            raise ValueError(f"flat bundle is missing section {name!r}")
        load_flat_mmap(model, arena, manifest=sections[name], precision=precision)
    system.serve_precision = precision
    return system.freeze()


def prefetch_arena(directory: str | os.PathLike) -> int:
    """Touch every page of a bundle's arena; returns pages touched.

    A freshly respawned worker attaches the arena lazily: the mmap costs
    nothing until the first forward pass walks the weights and pays one
    major/minor page fault per 4 KiB — exactly on the critical path of
    the first post-respawn batch.  Reading one byte per page here moves
    that tax to attach time (off the request path) and populates the
    page cache for every later attacher as a side effect.
    """
    path = pathlib.Path(directory) / FLAT_ARENA_NAME
    size = path.stat().st_size
    if size <= 0:
        return 0
    page = mmap.PAGESIZE
    touched = 0
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            for start in range(0, size, page):
                mapped[start]
                touched += 1
        finally:
            mapped.close()
    return touched
