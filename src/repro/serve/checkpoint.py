"""Durable per-session checkpoints for the device pool.

LD-BN-ADAPT's value is the state it accumulates online: per-stream BN
statistics and gamma/beta, optimizer slots, admission debt, the arrival
cursor.  A device crash destroys exactly that state for every hosted
stream — so the fleet periodically serializes each
:class:`~repro.serve.streams.StreamSession`'s complete adapted state to
a checkpoint store.  Recovery (:meth:`repro.serve.server.FleetServer.
crash_device`) restores the last *durable* checkpoint; frames served
between that checkpoint and the crash are counted as lost, never
recomputed.

Container (schema ``repro-session-checkpoint-v3``): one flat file per
stream (``<root>/<stream-id>.ckpt``), atomically replaced on every
write (``<path>.tmp`` + :func:`os.replace`)::

    offset 0    magic ``RPCKPT`` (6 bytes) | version u16 | header length u32
    offset 12   header: UTF-8 JSON ``{"meta": {...}, "arrays": [[key,
                dtype, shape], ...]}`` — the manifest is sorted by key
    ...         payload: every manifested array's C-order bytes, back
                to back in manifest order (no padding)
    last 4      CRC32 (u32) of every byte before it

(all integers little-endian).  :func:`unpack_checkpoint` verifies the
magic and version, that the file is long enough for its header, that
the manifest's byte count equals the payload's, and the CRC — which
covers prefix, header and payload, so a flipped bit anywhere in the
file is caught — and raises :class:`CheckpointCorrupt` otherwise,
*before* any array is handed out: a restore is all-or-nothing.  A v2
file (per-layer BN keys) fails that version check.

A session is ~50 small arrays once its drift bank holds two regimes
(~350 in v2, before the flat BN block); ``np.savez`` spent 10 ms per
write on per-member zip framing (and doubled the file with member
headers), where this container is one ``join`` and one ``write``.
*Model* checkpoints (:mod:`repro.nn.serialization`) deliberately stay
``.npz``: they are written once per training run, are few large arrays
(framing is noise), and being openable with stock numpy is worth more
there than speed — the one place the repo keeps two formats.

Array keys:

* ``bn.state`` / ``bn.counts`` — the session's flat BN block (running
  mean, var, gamma, beta) and its per-layer batch counters
* ``opt.<j>.<slot>`` — optimizer slots per trainable parameter
  (the SGD momentum buffers; scratch buffers are excluded)
* ``adapt.buffer.<k>`` — frames buffered toward the next adaptation step
* ``drift.*`` — detector vector, regime accumulators, warm-start bank

and the header's ``meta`` carries the scalar state: serving counters,
the adapter's step index, admission debt/deferrals, and the arrival
process cursor (frame index, last timestamp, generator state) so a
cold restore resumes the exact seeded arrival realization.

Policy lives in :class:`CheckpointConfig`: ``interval_frames`` sets the
cadence (and thus the worst-case loss per stream), ``mode="async"``
models a background writer — a capture is *staged* in memory (as its
packed bytes) and only becomes durable at the session's next checkpoint
opportunity, so a crash loses the staged capture exactly like a real
write-behind store — and ``max_staleness_frames`` bounds how stale the
durable copy may get before the writer is forced synchronous.

Checkpointing never mutates session state (a capture serializes the
live arrays into its own buffer), so a run with checkpointing enabled
is bitwise identical to one without.  A non-finite BN block is never
captured (``refusals`` counts it; the last durable file stays).
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

SCHEMA = "repro-session-checkpoint-v3"

MAGIC = b"RPCKPT"
VERSION = 3
_PREFIX = struct.Struct("<6sHI")  # magic, version, header length
_TRAILER = struct.Struct("<I")  # CRC32 of everything before it
_KINDS = "biufc"  # dtype kinds whose ``.str`` describes them completely
REFUSED_NONFINITE = "non-finite BN state"  # why a capture was refused


class CheckpointCorrupt(ValueError):
    """A session checkpoint failed a magic/length/manifest/CRC/schema check."""


def pack_checkpoint(arrays: Mapping[str, np.ndarray], meta: dict) -> bytes:
    """Serialize ``arrays`` + JSON-able ``meta`` into one v3 buffer.

    Each array is copied exactly once (its C-order bytes, whatever its
    strides), so the buffer is frozen the moment this returns.
    """
    manifest = []
    chunks = []
    for key in sorted(arrays):
        arr = np.asarray(arrays[key])
        if arr.dtype.kind not in _KINDS:
            raise ValueError(
                f"array {key!r} has dtype {arr.dtype}; a flat checkpoint "
                "holds plain numeric arrays only"
            )
        manifest.append((key, arr.dtype.str, arr.shape))
        chunks.append(arr.tobytes())
    header = json.dumps(
        {"meta": meta, "arrays": manifest}, separators=(",", ":")
    ).encode("utf-8")
    body = b"".join([_PREFIX.pack(MAGIC, VERSION, len(header)), header] + chunks)
    return body + _TRAILER.pack(zlib.crc32(body))


def _unpack_header(blob: bytes, source: str) -> Tuple[dict, list, int]:
    """Parse prefix + JSON header; returns ``(meta, manifest, payload offset)``."""
    if len(blob) < _PREFIX.size:
        raise CheckpointCorrupt(f"checkpoint {source} is shorter than its prefix")
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC or version != VERSION:
        raise CheckpointCorrupt(
            f"checkpoint {source} is not a v{VERSION} session checkpoint "
            f"(magic {magic!r}, version {version})"
        )
    end = _PREFIX.size + header_len
    if len(blob) < end:
        raise CheckpointCorrupt(f"checkpoint {source} is shorter than its header")
    try:
        header = json.loads(blob[_PREFIX.size:end].decode("utf-8"))
        return header["meta"], header["arrays"], end
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointCorrupt(
            f"checkpoint {source} has an unreadable header: {exc}"
        ) from exc


def unpack_checkpoint(
    blob: bytes, source: str = "<bytes>"
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Verify a v3 buffer and return ``(arrays, meta)``.

    The arrays are read-only views into ``blob``.  Raises
    :class:`CheckpointCorrupt` on a bad magic/version, a short file, a
    CRC mismatch, or a manifest whose byte count differs from the
    payload's — all checked before the first array is built.
    """
    meta, manifest, offset = _unpack_header(blob, source)
    stop = len(blob) - _TRAILER.size
    if stop < offset:
        raise CheckpointCorrupt(f"checkpoint {source} is shorter than its trailer")
    (stored,) = _TRAILER.unpack_from(blob, stop)
    if zlib.crc32(memoryview(blob)[:stop]) != stored:
        raise CheckpointCorrupt(f"checkpoint {source} fails its CRC32")
    try:
        entries = [
            (key, np.dtype(dtype), tuple(shape), math.prod(shape))
            for key, dtype, shape in manifest
        ]
        if any(dtype.kind not in _KINDS for _, dtype, _, _ in entries):
            raise ValueError("non-numeric dtype")
    except (ValueError, TypeError) as exc:
        raise CheckpointCorrupt(
            f"checkpoint {source} has an unreadable manifest: {exc}"
        ) from exc
    described = sum(dtype.itemsize * count for _, dtype, _, count in entries)
    if offset + described != stop:
        raise CheckpointCorrupt(
            f"checkpoint {source} holds {stop - offset} payload bytes, "
            f"its manifest describes {described}"
        )
    arrays: Dict[str, np.ndarray] = {}
    for key, dtype, shape, count in entries:
        arrays[key] = np.frombuffer(
            blob, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset += count * dtype.itemsize
    return arrays, meta


#: optimizer slots that are scratch space, not state (fully overwritten
#: each step) — excluded from checkpoints
_SCRATCH_SLOTS = ("work",)


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpoint policy for fleet sessions.

    Attributes
    ----------
    interval_frames:
        Checkpoint a session every N served frames.  The worst-case
        adapted-state loss on a crash is bounded by this (sync mode) or
        twice this (async mode, staged capture lost too).
    mode:
        ``"sync"`` — captures become durable immediately.  ``"async"`` —
        captures are staged and written at the session's next checkpoint
        opportunity (a crash in between loses the staged capture).
    max_staleness_frames:
        Upper bound on served frames since the last *durable* checkpoint
        before an async write is forced synchronous.  None = unbounded.
    dir:
        Checkpoint directory; None = a fresh temporary directory per
        store.
    """

    interval_frames: int = 8
    mode: str = "sync"
    max_staleness_frames: Optional[int] = None
    dir: Optional[str] = None

    def __post_init__(self):
        if self.interval_frames < 1:
            raise ValueError(
                f"interval_frames must be >= 1, got {self.interval_frames}"
            )
        if self.mode not in ("sync", "async"):
            raise ValueError(
                f"mode must be 'sync' or 'async', got {self.mode!r}"
            )
        if (
            self.max_staleness_frames is not None
            and self.max_staleness_frames < self.interval_frames
        ):
            raise ValueError(
                f"max_staleness_frames ({self.max_staleness_frames}) must "
                f"be >= interval_frames ({self.interval_frames})"
            )


# ----------------------------------------------------------------------
# pure capture/restore helpers (no I/O) — the store and the property
# tests share them
def pack_session_state(
    session,
    admission_state: Optional[Dict[str, object]] = None,
    now_ms: float = 0.0,
) -> bytes:
    """Serialize a session's complete adapted state into one v3 buffer.

    The live arrays are packed directly (:func:`pack_checkpoint` copies
    each once), so the buffer stays frozen while the session keeps
    serving.  ``admission_state`` is the non-destructive
    :meth:`~repro.serve.admission.SlackAdmission.peek_stream` view of
    the hosting device's controller (the fuse key is *not* serialized;
    it is recomputed from the adapter at restore).
    """
    arrays: Dict[str, np.ndarray] = {
        "bn.state": session.bn_state.state,
        "bn.counts": session.bn_state.counts,
    }
    optimizer = getattr(session.adapter, "optimizer", None)
    if optimizer is not None:
        for j, param in enumerate(optimizer.params):
            slots = optimizer.state.get(id(param))
            if not slots:
                continue
            for slot, value in slots.items():
                if slot in _SCRATCH_SLOTS:
                    continue
                arrays[f"opt.{j}.{slot}"] = value
    pending = session.adapter.pending_images
    for k, frame in enumerate(pending):
        arrays[f"adapt.buffer.{k}"] = frame
    drift = getattr(session, "drift", None)
    if drift is not None:
        # detector vector, regime accumulators and warm-start bank (the
        # source snapshot is NOT serialized: it is re-captured from the
        # pristine model whenever a session is constructed)
        arrays.update(drift.state_arrays())

    meta = {
        "schema": SCHEMA,
        "stream_id": session.stream_id,
        "time_ms": float(now_ms),
        "frames_seen": session.frames_seen,
        "adapt_phase": session.adapt_phase,
        "adapt_burst_until": session.adapt_burst_until,
        "frames_ingested": session.frames_ingested,
        "frames_dropped": session.frames_dropped,
        "adapt_grants": session.adapt_grants,
        "adapt_skips": session.adapt_skips,
        "migrations": session.migrations,
        "adapter_step": session.adapter.steps_taken,
        "adapt_pending": len(pending),
        "admission": {
            "debt": int(admission_state.get("debt", 0))
            if admission_state
            else 0,
            "deferrals": int(admission_state.get("deferrals", 0))
            if admission_state
            else 0,
        },
    }
    if session.arrivals is not None:
        meta["arrival"] = {
            "index": session.arrivals._index,
            "last_ms": session.arrivals._last_ms,
            "rng": session.arrivals._rng.bit_generator.state,
        }
    if drift is not None:
        meta["drift"] = drift.state_meta()
    return pack_checkpoint(arrays, meta)


def capture_session_state(
    session,
    admission_state: Optional[Dict[str, object]] = None,
    now_ms: float = 0.0,
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Snapshot a session's state as frozen ``(arrays, meta)``.

    Exactly what a checkpoint written now would load back as: the
    arrays are read-only views into a private :func:`pack_session_state`
    buffer.
    """
    return unpack_checkpoint(
        pack_session_state(session, admission_state, now_ms),
        f"of stream {session.stream_id!r}",
    )


def restore_session_state(
    session,
    arrays: Dict[str, np.ndarray],
    meta: dict,
    counters: bool = False,
) -> dict:
    """Write a captured state back into ``session``; returns admission state.

    Restores the BN snapshot (in place — per-sample folding keeps its
    aliases), optimizer slots (stale slots for checkpointed-empty
    parameters are dropped), the adapter's pending-frame buffer and step
    index.  With ``counters=True`` the serving counters and arrival
    cursor are restored too — that is a *cold* restore resuming a
    stream from scratch; live crash recovery keeps the session's
    counters (frames since the checkpoint are lost, not rewound, so
    report indices never collide).

    The return value is an :meth:`~repro.serve.admission.SlackAdmission.
    import_stream`-shaped dict (minus the fuse key, which the caller
    recomputes from the adapter).
    """
    if meta.get("schema") != SCHEMA:
        raise CheckpointCorrupt(
            f"checkpoint schema {meta.get('schema')!r} for stream "
            f"{session.stream_id!r} does not match {SCHEMA!r}"
        )
    if meta.get("stream_id") != session.stream_id:
        raise ValueError(
            f"checkpoint belongs to stream {meta.get('stream_id')!r}, "
            f"not {session.stream_id!r}"
        )
    session.bn_state.state[...] = arrays["bn.state"]
    session.bn_state.counts[...] = arrays["bn.counts"]
    optimizer = getattr(session.adapter, "optimizer", None)
    if optimizer is not None:
        for param in optimizer.params:
            optimizer.state.pop(id(param), None)
        # one pass over the manifest: ``opt.<j>.<slot>`` keys by parameter
        for key, value in arrays.items():
            if key.startswith("opt."):
                _, j, slot = key.split(".", 2)
                slots = optimizer.state.setdefault(id(optimizer.params[int(j)]), {})
                slots[slot] = int(value) if slot == "step" else value.copy()
    session.adapter.restore_pending([
        arrays[f"adapt.buffer.{k}"]
        for k in range(int(meta.get("adapt_pending", 0)))
    ])
    session.adapter._step = int(meta["adapter_step"])
    drift = getattr(session, "drift", None)
    if drift is not None and "drift" in meta:
        drift.load_state(arrays, meta["drift"])
    if counters:
        session.frames_seen = int(meta["frames_seen"])
        # a drift reset re-aligns the stagger and opens a burst; both
        # must survive a crash or the restored session waits out the
        # stride on the pre-reset schedule
        session.adapt_phase = int(meta.get("adapt_phase", session.adapt_phase))
        session.adapt_burst_until = int(
            meta.get("adapt_burst_until", session.adapt_burst_until)
        )
        session.frames_ingested = int(meta["frames_ingested"])
        session.frames_dropped = int(meta["frames_dropped"])
        session.adapt_grants = int(meta["adapt_grants"])
        session.adapt_skips = int(meta["adapt_skips"])
        session.migrations = int(meta["migrations"])
        arrival = meta.get("arrival")
        if arrival is not None and session.arrivals is not None:
            session.arrivals._index = int(arrival["index"])
            session.arrivals._last_ms = float(arrival["last_ms"])
            session.arrivals._rng.bit_generator.state = arrival["rng"]
    return {
        "debt": int(meta["admission"]["debt"]),
        "deferrals": int(meta["admission"]["deferrals"]),
    }


# ----------------------------------------------------------------------
class SessionCheckpointStore:
    """Interval-driven durable store of per-session checkpoints.

    The hosting :class:`~repro.serve.pool.DeviceWorker` calls
    :meth:`observe` after serving a session; the store decides from
    ``config`` whether a capture is due and whether it becomes durable
    now (sync / staleness-forced) or is staged for the next opportunity
    (async).  :meth:`restore` reads the last durable file — staged
    captures are deliberately *not* consulted: a crash loses them, like
    any write-behind store.
    """

    def __init__(self, config: Optional[CheckpointConfig] = None):
        self.config = config if config is not None else CheckpointConfig()
        self.root = (
            self.config.dir
            if self.config.dir is not None
            else tempfile.mkdtemp(prefix="repro-ckpt-")
        )
        os.makedirs(self.root, exist_ok=True)
        self.writes = 0  # durable files written
        self.staged_writes = 0  # captures parked for the background writer
        self.refusals = 0  # captures refused: REFUSED_NONFINITE
        # packed capture + the frames_seen it was taken at, per stream
        self._staged: Dict[str, Tuple[bytes, int]] = {}
        self._last_capture_frames: Dict[str, int] = {}
        self._last_durable_frames: Dict[str, int] = {}

    def path_for(self, stream_id: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", stream_id)
        return os.path.join(self.root, f"{safe}.ckpt")

    # ------------------------------------------------------------------
    def observe(
        self,
        session,
        admission_state: Optional[Dict[str, object]] = None,
        now_ms: float = 0.0,
    ) -> int:
        """Give the store one checkpoint opportunity for ``session``.

        Flushes the session's staged capture (the background writer has
        had a full interval to complete it), then captures a fresh
        checkpoint if ``interval_frames`` have been served since the
        last capture and the BN block is finite.  Returns the number of
        durable writes performed (0, 1 or 2) so the caller can account
        them.
        """
        sid = session.stream_id
        written = 0
        if sid in self._staged:
            written += self._write(sid, *self._staged.pop(sid))
        since = session.frames_seen - self._last_capture_frames.get(sid, 0)
        if since < self.config.interval_frames or self._refused(session):
            return written
        blob = pack_session_state(session, admission_state, now_ms)
        self._last_capture_frames[sid] = session.frames_seen
        force_sync = (
            self.config.max_staleness_frames is not None
            and session.frames_seen - self._last_durable_frames.get(sid, 0)
            >= self.config.max_staleness_frames
        )
        if self.config.mode == "sync" or force_sync:
            written += self._write(sid, blob, session.frames_seen)
        else:
            self._staged[sid] = (blob, session.frames_seen)
            self.staged_writes += 1
        return written

    def checkpoint(
        self,
        session,
        admission_state: Optional[Dict[str, object]] = None,
        now_ms: float = 0.0,
    ) -> int:
        """Unconditionally capture ``session`` and make it durable now.

        Used at registration/attach time so every session has a durable
        baseline before it serves a single frame.
        """
        if self._refused(session):
            return 0
        blob = pack_session_state(session, admission_state, now_ms)
        self._staged.pop(session.stream_id, None)
        self._last_capture_frames[session.stream_id] = session.frames_seen
        return self._write(session.stream_id, blob, session.frames_seen)

    def flush(self) -> int:
        """Make every staged capture durable (end-of-run barrier)."""
        written = 0
        for sid in list(self._staged):
            written += self._write(sid, *self._staged.pop(sid))
        return written

    def _refused(self, session) -> bool:
        """The rail: True, and counted, when the BN block is non-finite."""
        refused = not np.isfinite(session.bn_state.state).all()
        self.refusals += refused
        return refused

    def drop_staged(self, stream_id: str) -> None:
        """Discard a staged capture (its device crashed before the write)."""
        self._staged.pop(stream_id, None)

    def _write(self, stream_id: str, blob: bytes, frames_seen: int) -> int:
        path = self.path_for(stream_id)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        self.writes += 1
        self._last_durable_frames[stream_id] = frames_seen
        return 1

    # ------------------------------------------------------------------
    def has_checkpoint(self, stream_id: str) -> bool:
        return os.path.exists(self.path_for(stream_id))

    def load(self, stream_id: str) -> Tuple[Dict[str, np.ndarray], dict]:
        """Read and verify a stream's durable checkpoint.

        Raises :class:`CheckpointCorrupt` unless the whole file checks
        out (see :func:`unpack_checkpoint`).
        """
        path = self.path_for(stream_id)
        with open(path, "rb") as fh:
            return unpack_checkpoint(fh.read(), repr(path))

    def restore(self, session, counters: bool = False) -> Optional[dict]:
        """Restore ``session`` from its last durable checkpoint.

        Returns the checkpoint's metadata (the caller computes frames
        lost as ``session.frames_seen - meta["frames_seen"]`` and
        re-imports admission state), or None when the stream has no
        durable checkpoint yet.  All-or-nothing: the file is verified in
        full before the first in-place write, so a
        :class:`CheckpointCorrupt` leaves the session untouched.
        """
        if not self.has_checkpoint(session.stream_id):
            return None
        arrays, meta = self.load(session.stream_id)
        meta["admission"].update(
            restore_session_state(session, arrays, meta, counters=counters)
        )
        return meta

    def metadata(self, stream_id: str) -> Optional[dict]:
        """The durable checkpoint's metadata without touching any session.

        Reads prefix and header only — the payload is neither read nor
        CRC-checked.
        """
        if not self.has_checkpoint(stream_id):
            return None
        path = self.path_for(stream_id)
        with open(path, "rb") as fh:
            prefix = fh.read(_PREFIX.size)
            if len(prefix) == _PREFIX.size:
                prefix += fh.read(_PREFIX.unpack(prefix)[2])
        return _unpack_header(prefix, repr(path))[0]
