"""CRIU-style checkpoint/restore built on dirty-page tracking."""

from repro.trackers.criu.checkpoint import Criu, CriuPhaseTimes, CriuReport, CriuSession
from repro.trackers.criu.images import CheckpointImage, MemoryImage, VmaRecord
from repro.trackers.criu.lazy import LazyRestoredProcess, LazyRestoreStats, lazy_restore
from repro.trackers.criu.restore import restore

__all__ = [
    "Criu",
    "CriuPhaseTimes",
    "CriuReport",
    "CriuSession",
    "CheckpointImage",
    "MemoryImage",
    "VmaRecord",
    "restore",
    "LazyRestoredProcess",
    "LazyRestoreStats",
    "lazy_restore",
]
