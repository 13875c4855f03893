"""Checkpoint image format.

A simplified CRIU image set: process metadata, VMA records, and memory
images holding (VPN, content-token) pairs.  Iterative pre-dump produces a
*stack* of memory images; restore applies them oldest-first so later dumps
overwrite earlier page versions, exactly like CRIU's page-server images.

Images serialise to a single ``.npz`` file (:meth:`CheckpointImage.save` /
:meth:`CheckpointImage.load`), so checkpoints survive the process that
took them and can be restored into a different VM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError
from repro.guest.process import Process

__all__ = ["VmaRecord", "MemoryImage", "CheckpointImage"]


@dataclass(frozen=True)
class VmaRecord:
    start_vpn: int
    n_pages: int
    name: str


@dataclass
class MemoryImage:
    """Pages captured by one dump round."""

    vpns: np.ndarray  # int64
    tokens: np.ndarray  # uint64 content tokens

    def __post_init__(self) -> None:
        self.vpns = np.asarray(self.vpns, dtype=np.int64)
        self.tokens = np.asarray(self.tokens, dtype=np.uint64)
        if self.vpns.shape != self.tokens.shape:
            raise CheckpointError("memory image vpns/tokens length mismatch")

    @property
    def n_pages(self) -> int:
        return int(self.vpns.size)


@dataclass
class CheckpointImage:
    """A complete checkpoint of one process."""

    pid: int
    name: str
    space_pages: int
    vmas: list[VmaRecord] = field(default_factory=list)
    #: Dump rounds in capture order (pre-dump rounds then the final dump).
    memory: list[MemoryImage] = field(default_factory=list)

    @classmethod
    def for_process(cls, process: Process) -> "CheckpointImage":
        return cls(
            pid=process.pid,
            name=process.name,
            space_pages=process.space.n_pages,
            vmas=[
                VmaRecord(v.start_vpn, v.n_pages, v.name)
                for v in process.space.vmas
            ],
        )

    def add_round(self, vpns: np.ndarray, tokens: np.ndarray) -> MemoryImage:
        img = MemoryImage(vpns, tokens)
        self.memory.append(img)
        return img

    def flatten(self) -> MemoryImage:
        """Latest version of every captured page (restore view)."""
        if not self.memory:
            return MemoryImage(np.empty(0), np.empty(0))
        # Newest first: a page's first occurrence is its latest version.
        vpns = np.concatenate([img.vpns for img in self.memory])[::-1]
        tokens = np.concatenate([img.tokens for img in self.memory])[::-1]
        vpns, first = np.unique(vpns, return_index=True)
        return MemoryImage(vpns, tokens[first])

    @property
    def total_pages_dumped(self) -> int:
        return sum(img.n_pages for img in self.memory)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialise to a single .npz image file."""
        meta = {
            "pid": self.pid,
            "name": self.name,
            "space_pages": self.space_pages,
            "vmas": [
                {"start_vpn": v.start_vpn, "n_pages": v.n_pages, "name": v.name}
                for v in self.vmas
            ],
            "n_rounds": len(self.memory),
        }
        arrays: dict[str, np.ndarray] = {
            "meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ).copy()
        }
        for i, img in enumerate(self.memory):
            arrays[f"round{i}_vpns"] = img.vpns
            arrays[f"round{i}_tokens"] = img.tokens
        np.savez_compressed(Path(path), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "CheckpointImage":
        """Deserialise a .npz image file."""
        with np.load(Path(path)) as data:
            try:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            except (KeyError, ValueError) as exc:
                raise CheckpointError(f"corrupt checkpoint image: {exc}") from exc
            image = cls(
                pid=int(meta["pid"]),
                name=str(meta["name"]),
                space_pages=int(meta["space_pages"]),
                vmas=[
                    VmaRecord(int(v["start_vpn"]), int(v["n_pages"]),
                              str(v["name"]))
                    for v in meta["vmas"]
                ],
            )
            for i in range(int(meta["n_rounds"])):
                image.add_round(
                    data[f"round{i}_vpns"], data[f"round{i}_tokens"]
                )
        return image
