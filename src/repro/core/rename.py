"""Per-thread register rename state.

Each thread owns two map pairs per register class:

* the **front-end map** — the speculative mapping used to rename newly
  dispatched instructions, updated at dispatch and repaired on squashes;
* the **architectural map** — the committed mapping, updated only at commit
  (never during runahead), which therefore doubles as the runahead
  checkpoint: entering runahead simply pins the architectural registers and
  exiting restores the front-end map from them (§3.3, "Checkpoints": each
  thread checkpoints only its own architectural registers).
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import SimulationError
from ..isa import NUM_FP_ARCH_REGS, NUM_INT_ARCH_REGS, RegClass
from .regfile import PhysRegFile


class RenameState:
    """Rename maps for one hardware thread context."""

    __slots__ = ("tid", "front", "arch", "_files")

    def __init__(self, tid: int, int_file: PhysRegFile,
                 fp_file: PhysRegFile) -> None:
        self.tid = tid
        self._files = (int_file, fp_file)
        self.front: List[List[int]] = [[], []]
        self.arch: List[List[int]] = [[], []]
        for klass, count in ((RegClass.INT, NUM_INT_ARCH_REGS),
                             (RegClass.FP, NUM_FP_ARCH_REGS)):
            file = self._files[klass]
            regs = []
            for _ in range(count):
                if file.is_full():
                    raise SimulationError(
                        f"register file too small to hold architectural "
                        f"state of thread {tid}")
                preg = file.alloc()
                # Architectural values exist from cycle 0.
                file.set_ready(preg, 0)
                regs.append(preg)
            self.front[klass] = list(regs)
            self.arch[klass] = list(regs)

    # --- front-end operations ------------------------------------------------

    def lookup(self, klass: int, arch_reg: int) -> int:
        return self.front[klass][arch_reg]

    def rename_dest(self, klass: int, arch_reg: int, preg: int) -> int:
        """Point ``arch_reg`` at a new physical register.

        Returns the previous front-end mapping (the instruction's
        ``old_pdest``), which retirement or squash will dispose of.
        """
        front = self.front[klass]
        old = front[arch_reg]
        front[arch_reg] = preg
        return old

    def undo_rename(self, klass: int, arch_reg: int, old_preg: int) -> None:
        """Squash repair: restore the previous mapping."""
        self.front[klass][arch_reg] = old_preg

    # --- commit operations ----------------------------------------------------------

    def commit_dest(self, klass: int, arch_reg: int, preg: int) -> int:
        """Advance the architectural map at commit.

        Returns the physical register holding the *previous* architectural
        value, which is now dead and must be released by the caller.
        """
        old = self.arch[klass][arch_reg]
        self.arch[klass][arch_reg] = preg
        return old

    # --- runahead checkpointing ------------------------------------------------------

    def pin_architectural(self) -> None:
        """Pin the architectural registers (runahead entry)."""
        for klass in (RegClass.INT, RegClass.FP):
            file = self._files[klass]
            for preg in self.arch[klass]:
                file.pin(preg)

    def unpin_architectural(self) -> None:
        for klass in (RegClass.INT, RegClass.FP):
            file = self._files[klass]
            for preg in self.arch[klass]:
                file.unpin(preg)

    def restore_front_to_arch(self) -> Tuple[int, int]:
        """Reset the front-end map to architectural state (runahead exit).

        Any front-end mapping that differs from the architectural one points
        at a register allocated during runahead by an already pseudo-retired
        instruction; those are released here.  Returns the number released
        per class as ``(int_released, fp_released)``.
        """
        released = [0, 0]
        for klass in (RegClass.INT, RegClass.FP):
            file = self._files[klass]
            front = self.front[klass]
            arch = self.arch[klass]
            for arch_reg, current in enumerate(front):
                target = arch[arch_reg]
                if current != target:
                    if file.is_allocated(current) and not file.pinned[current]:
                        file.release(current)
                        released[klass] += 1
                    front[arch_reg] = target
        return released[RegClass.INT], released[RegClass.FP]

    # --- invariants -------------------------------------------------------------------

    def check_maps(self) -> None:
        """Every mapped register must be allocated; maps must be in range."""
        for klass in (RegClass.INT, RegClass.FP):
            file = self._files[klass]
            for label, mapping in (("front", self.front[klass]),
                                   ("arch", self.arch[klass])):
                for arch_reg, preg in enumerate(mapping):
                    if not 0 <= preg < file.size:
                        raise SimulationError(
                            f"t{self.tid} {label} map[{arch_reg}] out of "
                            f"range: {preg}")
                    if not file.is_allocated(preg):
                        raise SimulationError(
                            f"t{self.tid} {label} map[{arch_reg}] points at "
                            f"free register p{preg}")
