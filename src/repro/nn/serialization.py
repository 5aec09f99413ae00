"""Save and load module weights: .npz archives and flat mmap arenas.

Two persistence formats live here:

* ``save_state`` / ``load_state`` — one ``.npz`` archive per module, the
  checkpoint format (named arrays, shape-checked on restore).
* ``pack_flat`` / ``load_flat_mmap`` — one **contiguous little-endian
  float64 arena** plus a JSON manifest.  The arena is built for
  cross-process weight sharing: worker processes attach it with
  ``np.memmap(mode="r")`` and point every parameter (and batch-norm
  buffer) at a read-only *view* into the mapping, so N workers serving
  the same model share one physical copy of the weights through the page
  cache instead of each unpickling their own.  Values are bit-exact
  copies of the source arrays, so a forward pass over mmap'd weights is
  byte-identical to one over the originals.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO

import numpy as np

from repro.nn.module import BUFFER_NAMES, Module

#: Flat-arena manifest format marker / version.
FLAT_FORMAT = "repro-flat"
FLAT_VERSION = 1
FLAT_DTYPE = "<f8"  # little-endian float64, the substrate's native dtype

#: Storage dtype per arena precision.  ``float64`` is the bit-exact
#: reference; ``float32`` halves the arena (and the page faults paid to
#: attach it) and feeds the nn substrate's float32 fast path; ``int8``
#: stores each entry as a per-entry affine quantisation (uint8 codes
#: with a float ``scale``/``offset`` in the manifest) and dequantises to
#: float32 copies at attach time.
FLAT_PRECISIONS = {"float64": "<f8", "float32": "<f4", "int8": "|u1"}


def flat_dtype_for(precision: str) -> np.dtype:
    """Numpy storage dtype of a ``precision`` arena (raises on unknown)."""
    try:
        return np.dtype(FLAT_PRECISIONS[precision])
    except KeyError:
        raise ValueError(
            f"unknown arena precision {precision!r}; "
            f"expected one of {sorted(FLAT_PRECISIONS)}"
        ) from None


def save_state(module: Module, path: str | os.PathLike) -> None:
    """Persist all named parameters plus batch-norm running statistics."""
    arrays: dict[str, np.ndarray] = {}
    for name, param in module.named_parameters():
        arrays[f"param:{name}"] = param.data
    for name, buf in _named_buffers(module):
        arrays[f"buffer:{name}"] = buf
    np.savez(path, **arrays)


def load_state(module: Module, path: str | os.PathLike) -> None:
    """Restore parameters saved by :func:`save_state` into ``module``.

    The module must have been constructed with identical architecture;
    mismatched names or shapes raise ``ValueError``.
    """
    with np.load(path) as archive:
        stored = {key: archive[key] for key in archive.files}
    for name, param in module.named_parameters():
        key = f"param:{name}"
        if key not in stored:
            raise ValueError(f"missing parameter {name!r} in checkpoint")
        data = stored.pop(key)
        if data.shape != param.data.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: checkpoint {data.shape}, model {param.shape}"
            )
        param.data = data.astype(np.float64)
        param.grad = np.zeros_like(param.data)
    for name, _ in _named_buffers(module):
        key = f"buffer:{name}"
        if key in stored:
            _set_buffer(module, name, stored.pop(key))
    leftover_params = [k for k in stored if k.startswith("param:")]
    if leftover_params:
        raise ValueError(f"checkpoint has unused parameters: {leftover_params}")


# ----------------------------------------------------------------------
# Flat arena: contiguous float64 weights for read-only mmap attachment
# ----------------------------------------------------------------------
def flat_entries(module: Module) -> list[tuple[str, str, np.ndarray]]:
    """``(kind, name, array)`` for every parameter and buffer.

    The order is deterministic (``named_parameters`` then buffers, both
    sorted walks), so a writer and a reader built from the same
    architecture agree on the arena layout without consulting offsets —
    though the manifest records them anyway.
    """
    entries = [
        ("param", name, param.data) for name, param in module.named_parameters()
    ]
    entries.extend(("buffer", name, buf) for name, buf in _named_buffers(module))
    return entries


def write_flat(
    module: Module,
    stream: BinaryIO,
    *,
    element_offset: int = 0,
    precision: str = "float64",
) -> dict:
    """Append one module's weights to an open arena stream.

    Returns the module's manifest section: ``entries`` (name, kind,
    element offset, shape) and the total ``elements`` written.  The
    caller threads ``element_offset`` so several modules can share one
    arena file (see :func:`repro.core.persistence.export_flat`).

    ``precision`` selects the storage dtype (:data:`FLAT_PRECISIONS`).
    ``int8`` quantises each entry with its own affine map — codes
    ``q = round((x - offset) / scale)`` in [0, 255], with ``scale`` and
    ``offset`` recorded on the entry — so one outlier tensor cannot
    destroy the resolution of every other.
    """
    dtype = flat_dtype_for(precision)
    entries: list[dict] = []
    offset = element_offset
    for kind, name, array in flat_entries(module):
        entry = {"kind": kind, "name": name, "offset": offset, "shape": list(array.shape)}
        if precision == "int8":
            source = np.asarray(array, dtype=np.float64)
            lo = float(source.min()) if source.size else 0.0
            hi = float(source.max()) if source.size else 0.0
            scale = (hi - lo) / 255.0
            if scale <= 0.0:
                scale = 1.0  # constant tensor: every code dequantises to lo
            codes = np.clip(np.rint((source - lo) / scale), 0, 255)
            data = np.ascontiguousarray(codes, dtype=dtype)
            entry["scale"] = scale
            entry["zero"] = lo
        else:
            data = np.ascontiguousarray(array, dtype=dtype)
        stream.write(data.tobytes())
        entries.append(entry)
        offset += int(data.size)
    return {"entries": entries, "elements": offset - element_offset}


def pack_flat(
    module: Module,
    arena_path: str | os.PathLike,
    *,
    manifest_path: str | os.PathLike | None = None,
    precision: str = "float64",
) -> dict:
    """Write ``module``'s weights as one contiguous arena.

    Produces ``arena_path`` (raw little-endian bytes in the storage
    dtype of ``precision``, float64 by default) and a JSON manifest next
    to it (``<arena_path>.json`` unless ``manifest_path`` overrides).
    Returns the manifest dict.  A float64 arena round-trips through
    :func:`load_flat_mmap` bit-for-bit; float32/int8 arenas round-trip
    exactly to their stored (reduced-precision) values.
    """
    with open(arena_path, "wb") as stream:
        section = write_flat(module, stream, precision=precision)
    manifest = {
        "format": FLAT_FORMAT,
        "version": FLAT_VERSION,
        "dtype": flat_dtype_for(precision).str,
        "precision": precision,
        "elements": section["elements"],
        "entries": section["entries"],
    }
    if manifest_path is None:
        manifest_path = f"{os.fspath(arena_path)}.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    return manifest


def _open_arena(
    arena: str | os.PathLike | np.ndarray, dtype: np.dtype | str = FLAT_DTYPE
) -> np.ndarray:
    if isinstance(arena, np.ndarray):
        return arena
    return np.memmap(arena, dtype=dtype, mode="r")


def load_flat_mmap(
    module: Module,
    arena: str | os.PathLike | np.ndarray,
    *,
    manifest: dict | None = None,
    manifest_path: str | os.PathLike | None = None,
    precision: str | None = None,
) -> np.ndarray:
    """Attach a flat arena's weights to ``module`` as read-only views.

    ``arena`` is a path (memory-mapped read-only here) or an already
    mapped/loaded 1-D array in the arena's storage dtype (so several
    modules can share one mapping).  Entry offsets are absolute into
    that array.  For float64/float32 arenas every parameter's ``data``
    and every batch-norm buffer becomes a **view** into the mapping —
    no copy, shared pages across processes; for int8 arenas each entry
    is dequantised into a private float32 copy (the mapping still backs
    the codes, so the storage shared across workers stays 1 byte per
    element).  Gradients are reallocated writable so the module stays
    usable for inference bookkeeping.  Architecture mismatches raise
    ``ValueError`` exactly like :func:`load_state`.  Returns the
    attached arena array.

    ``precision`` defaults to the manifest's recorded precision (legacy
    manifests without one are float64); pass it explicitly when
    ``manifest`` is a bare section dict without the top-level keys.
    """
    if manifest is None:
        if manifest_path is None:
            if isinstance(arena, np.ndarray):
                raise ValueError("pass manifest= when attaching a shared arena array")
            manifest_path = f"{os.fspath(arena)}.json"
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format", FLAT_FORMAT) != FLAT_FORMAT:
            raise ValueError(f"not a flat-arena manifest: {manifest.get('format')!r}")
    if precision is None:
        precision = manifest.get("precision", "float64")
    dtype = flat_dtype_for(precision)
    data = _open_arena(arena, dtype)
    if data.dtype != dtype:
        raise ValueError(
            f"arena dtype {data.dtype} does not match precision {precision!r}"
        )
    params = dict(module.named_parameters())
    buffers = {name for name, _ in _named_buffers(module)}
    for entry in manifest["entries"]:
        name, kind = entry["name"], entry["kind"]
        shape = tuple(entry["shape"])
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = int(entry["offset"])
        view = data[start : start + size].reshape(shape)
        if precision == "int8":
            # Dequantise codes -> float32 once at attach; the fast path
            # then runs pure float32 forwards over ordinary arrays.
            view = (
                view.astype(np.float32) * np.float32(entry["scale"])
                + np.float32(entry["zero"])
            )
        if kind == "param":
            param = params.pop(name, None)
            if param is None:
                raise ValueError(f"arena has unknown parameter {name!r}")
            if param.data.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: arena {shape}, "
                    f"model {param.data.shape}"
                )
            param.data = view
            param.grad = np.zeros(shape, dtype=view.dtype)
        elif name in buffers:
            _set_buffer(module, name, view, copy=False)
    if params:
        raise ValueError(f"arena is missing parameters: {sorted(params)}")
    return data


def _named_buffers(module: Module, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    buffers: list[tuple[str, np.ndarray]] = []
    for name, value in sorted(vars(module).items()):
        path = f"{prefix}{name}"
        if name in BUFFER_NAMES and isinstance(value, np.ndarray):
            buffers.append((path, value))
        elif isinstance(value, Module):
            buffers.extend(_named_buffers(value, prefix=f"{path}."))
        elif isinstance(value, (list, tuple)):
            for idx, item in enumerate(value):
                if isinstance(item, Module):
                    buffers.extend(_named_buffers(item, prefix=f"{path}.{idx}."))
    return buffers


def _set_buffer(
    module: Module, dotted: str, value: np.ndarray, *, copy: bool = True
) -> None:
    parts = dotted.split(".")
    target = module
    for part in parts[:-1]:
        if part.isdigit():
            target = target[int(part)]
        else:
            target = getattr(target, part)
    setattr(target, parts[-1], value.astype(np.float64) if copy else value)
