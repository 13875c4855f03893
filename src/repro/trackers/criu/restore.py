"""Checkpoint restore: rebuild a process from an image."""

from __future__ import annotations

from repro.errors import CheckpointError
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.trackers.criu.images import CheckpointImage

__all__ = ["restore", "spawn_from_image"]


def spawn_from_image(kernel: GuestKernel, image: CheckpointImage, tag: str) -> Process:
    """Spawn ``<image name>:<tag>`` with the image's VMA layout and no
    pages mapped yet; both restore modes start here."""
    if not image.memory:
        raise CheckpointError("image has no memory rounds")
    proc = kernel.spawn(f"{image.name}:{tag}", n_pages=image.space_pages)
    for vma in image.vmas:
        new = proc.space.add_vma(vma.n_pages, vma.name)
        if new.start_vpn != vma.start_vpn:
            raise CheckpointError(
                f"VMA layout mismatch restoring {proc.name}: "
                f"{new.start_vpn} != {vma.start_vpn}"
            )
    return proc


def restore(kernel: GuestKernel, image: CheckpointImage) -> Process:
    """Create a new process whose memory matches the checkpoint.

    Pages are demand-mapped by touching them, then their content tokens are
    written back from the flattened image (latest version of each page).
    """
    proc = spawn_from_image(kernel, image, "restored")
    flat = image.flatten()
    if flat.n_pages:
        kernel.access(proc, flat.vpns, True)  # populate mappings
        kernel.vm.mmu.write_page_contents(proc.space.pt, flat.vpns, flat.tokens)
    return proc
