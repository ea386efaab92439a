"""Model checkpoint save/load for the numpy NN framework.

Checkpoints are plain ``.npz`` archives mapping state-dict keys to arrays,
plus an optional JSON metadata blob (model preset name, training config)
stored under a reserved key.  This keeps checkpoints portable, diffable and
dependency-free.

Writes are **atomic**: the archive is written to ``path + ".tmp"`` and
moved into place with :func:`os.replace`, so a crash mid-write can never
leave a torn archive under the real path — readers see either the old
complete checkpoint or the new complete one.  Every archive additionally
embeds a **key manifest** in its metadata; strict loads verify the stored
arrays against it, so a truncated or mixed-up archive is rejected instead
of silently restoring partial state.

:func:`save_arrays` / :func:`load_arrays` are the raw layer (any string →
array mapping); :func:`save_checkpoint` / :func:`load_checkpoint`
specialize them to module state dicts.

The fleet's per-session checkpoints do *not* use this module: a session
is hundreds of small arrays rewritten every few frames, where zip
framing costs ~10 ms a write, so :mod:`repro.serve.checkpoint` keeps
its own flat, CRC-checked container.  Model checkpoints are written
once, hold a few large arrays, and gain more from being readable with
stock ``np.load`` than from speed — so they stay ``.npz``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .modules import Module

_META_KEY = "__repro_meta__"
_MANIFEST_KEY = "__keys__"


def save_arrays(
    path: str,
    arrays: Mapping[str, np.ndarray],
    metadata: Optional[dict] = None,
) -> str:
    """Atomically serialize a named-array mapping (plus metadata) to ``path``.

    Parent directories are created as needed; a ``.npz`` suffix is added
    if missing.  The sorted key list is embedded in the metadata blob as
    a manifest for :func:`load_arrays`' strict check.  Returns the final
    path written.
    """
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved for metadata")
    meta = dict(metadata) if metadata is not None else {}
    meta[_MANIFEST_KEY] = sorted(arrays)
    payload: Dict[str, np.ndarray] = {
        k: np.asarray(v) for k, v in arrays.items()
    }
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    final = path if path.endswith(".npz") else path + ".npz"
    directory = os.path.dirname(os.path.abspath(final))
    os.makedirs(directory, exist_ok=True)
    tmp = final + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, final)
    return final


def load_arrays(
    path: str,
    strict: bool = True,
) -> Tuple[Dict[str, np.ndarray], Optional[dict]]:
    """Load a named-array archive; returns ``(arrays, metadata)``.

    With ``strict=True`` (default) the stored arrays are verified against
    the archive's embedded key manifest: missing or unexpected keys raise
    ``KeyError``.  Archives written before the manifest existed carry no
    manifest and pass unchecked.
    """
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path, allow_pickle=False) as data:
        state = {k: data[k] for k in data.files if k != _META_KEY}
        metadata = None
        if _META_KEY in data.files:
            metadata = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
    manifest = None
    if metadata is not None:
        manifest = metadata.pop(_MANIFEST_KEY, None)
        if not metadata:
            metadata = None
    if strict and manifest is not None:
        expected, actual = set(manifest), set(state)
        if expected != actual:
            missing = sorted(expected - actual)
            unexpected = sorted(actual - expected)
            raise KeyError(
                f"checkpoint {path!r} does not match its key manifest: "
                f"missing {missing}, unexpected {unexpected}"
            )
    return state, metadata


def save_checkpoint(
    path: str,
    module: Module,
    metadata: Optional[dict] = None,
) -> None:
    """Serialize ``module.state_dict()`` (and optional metadata) to ``path``.

    Atomic (tmp + ``os.replace``) with an embedded key manifest — see
    :func:`save_arrays`.
    """
    save_arrays(path, module.state_dict(), metadata)


def load_checkpoint(
    path: str,
    module: Optional[Module] = None,
    strict: bool = True,
) -> Tuple[Dict[str, np.ndarray], Optional[dict]]:
    """Load a checkpoint; optionally restore it into ``module``.

    Returns ``(state_dict, metadata)``.  ``metadata`` is None when the
    checkpoint was saved without it.  ``strict`` both verifies the
    archive against its key manifest (a torn or mismatched file is
    rejected before any state is touched) and, when ``module`` is given,
    enforces exact state-dict key agreement.
    """
    state, metadata = load_arrays(path, strict=strict)
    if module is not None:
        module.load_state_dict(state, strict=strict)
    return state, metadata
