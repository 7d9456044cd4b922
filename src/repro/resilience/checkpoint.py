"""Full-state training checkpoints: versioned, checksummed, atomic.

A :class:`TrainingCheckpoint` bundles everything needed to continue a
training run exactly where it stopped:

* the model ``state_dict`` (and, optionally, the best-validation-epoch
  weights the early-stopping logic would restore),
* the optimizer ``state_dict`` — moments, accumulators, step counters
  and the per-group learning rate *after* any decay,
* the numpy bit-generator state of the run's RNG, so batch shuffling and
  Gumbel sampling continue on the same random stream,
* the epoch / global-step counters and the :class:`History` so far,
* free-form ``extras`` (early-stopping counters, recovery bookkeeping).

On disk a checkpoint is a single ``.npz`` archive: one entry per array,
a ``__meta__`` JSON entry for everything scalar, and a ``__checksum__``
entry holding a SHA-256 over the content.  Writes go through
:func:`repro.io.atomic_write_bytes` (tmp file + fsync + ``os.replace``)
so a crash mid-write can never leave a truncated archive, and the
checksum is verified on load so silent corruption is detected rather
than resumed from.

:class:`CheckpointManager` names checkpoints by epoch inside one
directory, prunes all but the newest ``keep_last``, and resolves "the
latest *valid* checkpoint" by walking backwards past corrupt files.
"""

from __future__ import annotations

import hashlib
import io as _stdio
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Container, Dict, List, Optional, Tuple,
                    Union)

import numpy as np

from ..fsutil import PathLike, atomic_write_bytes
from ..nn.module import Module
from ..nn.optim import Optimizer
from ..training.history import History

#: Bump when the on-disk layout changes; loaders refuse newer formats.
CHECKPOINT_VERSION = 1

_META_KEY = "__meta__"
_CHECKSUM_KEY = "__checksum__"
_MODEL_PREFIX = "model/"
_BEST_PREFIX = "best/"
_OPT_PREFIX = "opt/"


class CorruptCheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be trusted (truncated archive,
    checksum mismatch, missing metadata, or a format newer than this
    code understands)."""


def _content_checksum(arrays: Dict[str, np.ndarray], meta_json: str) -> str:
    """SHA-256 over every array's name/dtype/shape/bytes plus the metadata.

    Computed over the *content*, not the file bytes, so the same digest
    can be recomputed from a loaded archive regardless of zip framing.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    digest.update(meta_json.encode("utf-8"))
    return digest.hexdigest()


def _optimizer_arrays(opt_state: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Flatten an optimizer state's slot arrays into npz-friendly keys."""
    arrays: Dict[str, np.ndarray] = {}
    for index, slots in opt_state.get("state", {}).items():
        for slot, value in slots.items():
            arrays[f"{_OPT_PREFIX}{index}/{slot}"] = np.asarray(value)
    return arrays


def _optimizer_meta(opt_state: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-serialisable part of an optimizer state (groups + extra)."""
    return {"groups": opt_state.get("groups", []),
            "extra": opt_state.get("extra", {})}


def write_archive(path: PathLike, arrays: Dict[str, np.ndarray],
                  meta: Dict[str, Any]) -> Path:
    """Atomically write a checksummed ``.npz`` of arrays + JSON metadata.

    The generic form of the :class:`TrainingCheckpoint` on-disk pattern,
    for subsystems (e.g. streaming ingest) that persist arbitrary array
    state: one entry per array, a ``__meta__`` JSON entry, a
    ``__checksum__`` over the content, written via tmp + fsync +
    ``os.replace`` so a crash leaves the previous file or none.
    """
    arrays = {key: np.asarray(value) for key, value in arrays.items()}
    for reserved in (_META_KEY, _CHECKSUM_KEY):
        if reserved in arrays:
            raise ValueError(f"array name {reserved!r} is reserved")
    meta_json = json.dumps(meta, sort_keys=True)
    checksum = _content_checksum(arrays, meta_json)
    buffer = _stdio.BytesIO()
    np.savez(buffer, **arrays,
             **{_META_KEY: np.array(meta_json),
                _CHECKSUM_KEY: np.array(checksum)})
    return atomic_write_bytes(Path(path), buffer.getvalue())


def read_archive(path: PathLike
                 ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load and verify an archive written by :func:`write_archive`.

    Raises :class:`CorruptCheckpointError` on truncation, checksum
    mismatch or missing metadata, and :class:`FileNotFoundError` when
    the file is absent — callers distinguish "never written" from
    "damaged".
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no archive at {path}")
    try:
        with np.load(_stdio.BytesIO(path.read_bytes()),
                     allow_pickle=False) as archive:
            entries = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError,
            KeyError) as exc:
        raise CorruptCheckpointError(
            f"unreadable archive {path}: {exc}") from exc
    if _META_KEY not in entries or _CHECKSUM_KEY not in entries:
        raise CorruptCheckpointError(
            f"archive {path} lacks metadata/checksum entries")
    meta_json = str(entries.pop(_META_KEY)[()])
    stored_checksum = str(entries.pop(_CHECKSUM_KEY)[()])
    actual = _content_checksum(entries, meta_json)
    if actual != stored_checksum:
        raise CorruptCheckpointError(
            f"checksum mismatch for archive {path}: "
            f"stored {stored_checksum[:12]}..., computed {actual[:12]}...")
    try:
        meta = json.loads(meta_json)
    except json.JSONDecodeError as exc:
        raise CorruptCheckpointError(
            f"unparseable metadata in archive {path}") from exc
    return entries, meta


@dataclass
class TrainingCheckpoint:
    """Everything required to resume a run bit-for-bit.  See module doc."""

    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, Any]
    epoch: int
    global_step: int
    rng_state: Optional[Dict[str, Any]] = None
    history: History = field(default_factory=History)
    extras: Dict[str, Any] = field(default_factory=dict)
    best_state: Optional[Dict[str, np.ndarray]] = None
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    # Capture / restore against live objects
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, model: Module, optimizer: Optimizer, *, epoch: int,
                global_step: int,
                rng: Optional[np.random.Generator] = None,
                history: Optional[History] = None,
                extras: Optional[Dict[str, Any]] = None,
                best_state: Optional[Dict[str, np.ndarray]] = None,
                ) -> "TrainingCheckpoint":
        """Snapshot the live training state at an epoch boundary."""
        return cls(
            model_state=model.state_dict(),
            optimizer_state=optimizer.state_dict(),
            epoch=epoch,
            global_step=global_step,
            rng_state=(None if rng is None
                       else dict(rng.bit_generator.state)),
            history=history if history is not None else History(),
            extras=dict(extras or {}),
            best_state=best_state,
        )

    def restore(self, model: Module, optimizer: Optimizer,
                rng: Optional[np.random.Generator] = None) -> None:
        """Load this snapshot back into live objects (in place)."""
        model.load_state_dict(self.model_state)
        optimizer.load_state_dict(self.optimizer_state)
        if rng is not None and self.rng_state is not None:
            rng.bit_generator.state = self.rng_state

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise to a checksummed ``.npz`` archive in memory."""
        arrays: Dict[str, np.ndarray] = {}
        for name, value in self.model_state.items():
            arrays[_MODEL_PREFIX + name] = np.asarray(value)
        if self.best_state is not None:
            for name, value in self.best_state.items():
                arrays[_BEST_PREFIX + name] = np.asarray(value)
        arrays.update(_optimizer_arrays(self.optimizer_state))
        meta = {
            "version": self.version,
            "epoch": int(self.epoch),
            "global_step": int(self.global_step),
            "rng_state": self.rng_state,
            "optimizer": _optimizer_meta(self.optimizer_state),
            "history": self.history.to_jsonl(),
            "extras": self.extras,
            "has_best_state": self.best_state is not None,
        }
        meta_json = json.dumps(meta, sort_keys=True)
        checksum = _content_checksum(arrays, meta_json)
        buffer = _stdio.BytesIO()
        np.savez(buffer, **arrays,
                 **{_META_KEY: np.array(meta_json),
                    _CHECKSUM_KEY: np.array(checksum)})
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes,
                   source: str = "<bytes>") -> "TrainingCheckpoint":
        """Parse and verify an archive written by :meth:`to_bytes`.

        Raises :class:`CorruptCheckpointError` on any integrity failure.
        """
        try:
            with np.load(_stdio.BytesIO(data), allow_pickle=False) as archive:
                entries = {key: archive[key] for key in archive.files}
        except (zipfile.BadZipFile, ValueError, OSError, EOFError,
                KeyError) as exc:
            raise CorruptCheckpointError(
                f"unreadable checkpoint {source}: {exc}") from exc
        if _META_KEY not in entries or _CHECKSUM_KEY not in entries:
            raise CorruptCheckpointError(
                f"checkpoint {source} lacks metadata/checksum entries")
        meta_json = str(entries.pop(_META_KEY)[()])
        stored_checksum = str(entries.pop(_CHECKSUM_KEY)[()])
        actual = _content_checksum(entries, meta_json)
        if actual != stored_checksum:
            raise CorruptCheckpointError(
                f"checksum mismatch for checkpoint {source}: "
                f"stored {stored_checksum[:12]}..., computed {actual[:12]}...")
        try:
            meta = json.loads(meta_json)
        except json.JSONDecodeError as exc:
            raise CorruptCheckpointError(
                f"unparseable metadata in checkpoint {source}") from exc
        version = int(meta.get("version", -1))
        if version > CHECKPOINT_VERSION or version < 1:
            raise CorruptCheckpointError(
                f"checkpoint {source} has format version {version}; this "
                f"build reads up to {CHECKPOINT_VERSION}")
        model_state: Dict[str, np.ndarray] = {}
        best_state: Dict[str, np.ndarray] = {}
        opt_slots: Dict[str, Dict[str, np.ndarray]] = {}
        for key, value in entries.items():
            if key.startswith(_MODEL_PREFIX):
                model_state[key[len(_MODEL_PREFIX):]] = value
            elif key.startswith(_BEST_PREFIX):
                best_state[key[len(_BEST_PREFIX):]] = value
            elif key.startswith(_OPT_PREFIX):
                index, slot = key[len(_OPT_PREFIX):].split("/", 1)
                opt_slots.setdefault(index, {})[slot] = value
        opt_meta = meta.get("optimizer", {})
        optimizer_state = {"groups": opt_meta.get("groups", []),
                           "state": opt_slots,
                           "extra": opt_meta.get("extra", {})}
        return cls(
            model_state=model_state,
            optimizer_state=optimizer_state,
            epoch=int(meta["epoch"]),
            global_step=int(meta["global_step"]),
            rng_state=meta.get("rng_state"),
            history=History.from_jsonl(meta.get("history", "")),
            extras=meta.get("extras", {}),
            best_state=(best_state
                        if meta.get("has_best_state") and best_state
                        else None),
            version=version,
        )

    def save(self, path: PathLike) -> Path:
        """Atomic write; the destination is complete-or-absent."""
        return atomic_write_bytes(Path(path), self.to_bytes())

    @classmethod
    def load(cls, path: PathLike) -> "TrainingCheckpoint":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no checkpoint at {path}")
        return cls.from_bytes(path.read_bytes(), source=str(path))


class CheckpointManager:
    """Epoch-indexed checkpoint directory with retention and fallback.

    Files are named ``<prefix>-<epoch:08d>.npz``; :meth:`save` writes
    atomically and then prunes everything but the newest ``keep_last``
    files, and :meth:`latest_valid` walks checkpoints newest-first,
    skipping (and reporting) corrupt ones, so resume survives a crash
    that happened *during* a checkpoint write or a disk that mangled the
    newest file.
    """

    def __init__(self, directory: PathLike, keep_last: int = 3,
                 prefix: str = "ckpt") -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.prefix = prefix

    def path_for(self, epoch: int) -> Path:
        return self.directory / f"{self.prefix}-{epoch:08d}.npz"

    def _epoch_of(self, path: Path) -> Optional[int]:
        stem = path.name
        head = f"{self.prefix}-"
        if not (stem.startswith(head) and stem.endswith(".npz")):
            return None
        digits = stem[len(head):-len(".npz")]
        return int(digits) if digits.isdigit() else None

    def checkpoints(self) -> List[Path]:
        """Existing checkpoint paths, oldest first."""
        if not self.directory.exists():
            return []
        found = [(epoch, path)
                 for path in self.directory.glob(f"{self.prefix}-*.npz")
                 if (epoch := self._epoch_of(path)) is not None]
        return [path for _, path in sorted(found)]

    def save(self, checkpoint: TrainingCheckpoint) -> Path:
        """Write ``checkpoint`` under its epoch's name, then prune."""
        path = checkpoint.save(self.path_for(checkpoint.epoch))
        self.prune()
        return path

    def prune(self) -> List[Path]:
        """Delete all but the newest ``keep_last`` checkpoints."""
        paths = self.checkpoints()
        doomed = paths[:-self.keep_last] if len(paths) > self.keep_last else []
        for path in doomed:
            try:
                os.unlink(path)
            except OSError:
                pass
        return doomed

    def latest_valid(
        self,
        on_corrupt: Optional[Callable[[Path, Exception], None]] = None,
        skip: Container[str] = (),
    ) -> Optional[Tuple[TrainingCheckpoint, Path]]:
        """The newest checkpoint that loads and verifies, or ``None``.

        Corrupt files are skipped (newest-first) after notifying
        ``on_corrupt(path, error)`` — the hook resilience code uses to
        emit a ``recovery`` event so traces record the fallback.  Paths
        in ``skip`` (as strings) are passed over unread.
        """
        for path in reversed(self.checkpoints()):
            if str(path) in skip:
                continue
            try:
                return TrainingCheckpoint.load(path), path
            except FileNotFoundError:
                # Pruned by a concurrent writer between the directory
                # listing and the read — not corruption, just gone.
                continue
            except CorruptCheckpointError as exc:
                if on_corrupt is not None:
                    on_corrupt(path, exc)
        return None
