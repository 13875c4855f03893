"""Reference emulator for differential validation (the BOCHS role).

The paper could not run EPML on real hardware, so it implemented the
extension in the BOCHS instruction-level emulator and cross-validated
measurements between the real-machine SPML prototype and the emulated
environment (§IV-E, §VI-B: N collected with a 2% difference).

This package plays the same role for the simulator: a deliberately
simple, one-write-at-a-time reference implementation of the PML/EPML
datapath, written independently of the vectorised fast path.  The
differential tests feed identical access streams to both and require
identical logs, buffer-full events, and dirty-bit outcomes.

:class:`RefMmu` is the second oracle: the original multipass MMU walk,
swapped in for a VM's ``mmu`` so whole-stack runs (state, logs, golden
traces) can be compared against the production walk.  No production
module imports this package.
"""

from repro.emu.refmmu import RefMmu
from repro.emu.refpml import RefMachine

__all__ = ["RefMachine", "RefMmu"]
