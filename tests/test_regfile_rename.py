"""Tests for the physical register file and rename state."""

import pytest

from repro.core.dyninst import DynInst
from repro.core.regfile import NEVER, PhysRegFile
from repro.core.rename import RenameState
from repro.errors import SimulationError
from repro.isa import OpClass, RegClass


def _inst(tid=0, gseq=0):
    return DynInst(tid, gseq, 0, 0, int(OpClass.IALU), 0x100, 0, 1, -1, -1,
                   False)


class TestPhysRegFile:
    def test_alloc_release_cycle(self):
        file = PhysRegFile("t", 4)
        regs = [file.alloc() for _ in range(4)]
        assert sorted(regs) == [0, 1, 2, 3]
        assert file.alloc() == -1
        file.release(regs[0])
        assert file.alloc() == regs[0]

    def test_alloc_resets_state(self):
        file = PhysRegFile("t", 2)
        preg = file.alloc()
        file.set_ready(preg, 5, invalid=True)
        file.release(preg)
        preg2 = file.alloc()
        assert preg2 == preg
        assert file.ready[preg2] == NEVER
        # The stale INV bit is unobservable: it is read only once the
        # value is ready, and making it ready rewrites it.
        file.set_ready(preg2, 6)
        assert not file.inv[preg2]

    def test_double_release_raises(self):
        file = PhysRegFile("t", 2)
        preg = file.alloc()
        file.release(preg)
        with pytest.raises(SimulationError):
            file.release(preg)

    def test_release_pinned_raises(self):
        file = PhysRegFile("t", 2)
        preg = file.alloc()
        file.pin(preg)
        with pytest.raises(SimulationError):
            file.release(preg)
        file.unpin(preg)
        file.release(preg)

    def test_pin_unallocated_raises(self):
        file = PhysRegFile("t", 2)
        with pytest.raises(SimulationError):
            file.pin(0)

    def test_ready_and_waiters(self):
        file = PhysRegFile("t", 2)
        preg = file.alloc()
        waiter = _inst()
        file.add_waiter(preg, waiter)
        assert not file.is_ready(preg, 100)
        woken = file.set_ready(preg, 50, invalid=True)
        assert woken == [waiter]
        assert file.is_ready(preg, 50)
        assert file.inv[preg]
        # Waiter list is cleared after wakeup.
        assert file.set_ready(preg, 60) == []

    def test_conservation_check(self):
        file = PhysRegFile("t", 8)
        for _ in range(5):
            file.alloc()
        file.check_conservation()

    def test_conservation_rejects_a_pinned_free_register(self):
        file = PhysRegFile("t", 4)
        preg = file.alloc()
        file.release(preg)
        file.pinned[preg] = True
        with pytest.raises(SimulationError, match="is pinned"):
            file.check_conservation()

    def test_counts(self):
        file = PhysRegFile("t", 8)
        file.alloc()
        assert file.allocated_count == 1
        assert file.free_count == 7

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            PhysRegFile("t", 0)


class TestRenameState:
    def _files(self, size=96):
        return PhysRegFile("int", size), PhysRegFile("fp", size)

    def test_init_reserves_architectural_state(self):
        int_file, fp_file = self._files()
        RenameState(0, int_file, fp_file)
        assert int_file.allocated_count == 32
        assert fp_file.allocated_count == 32

    def test_init_raises_when_too_small(self):
        int_file, fp_file = self._files(16)
        with pytest.raises(SimulationError):
            RenameState(0, int_file, fp_file)

    def test_arch_registers_start_ready(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        for arch in range(32):
            assert int_file.is_ready(rename.lookup(RegClass.INT, arch), 0)

    def test_rename_and_undo(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        original = rename.lookup(RegClass.INT, 5)
        fresh = int_file.alloc()
        old = rename.rename_dest(RegClass.INT, 5, fresh)
        assert old == original
        assert rename.lookup(RegClass.INT, 5) == fresh
        rename.undo_rename(RegClass.INT, 5, old)
        assert rename.lookup(RegClass.INT, 5) == original

    def test_commit_advances_arch_map(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        fresh = int_file.alloc()
        rename.rename_dest(RegClass.INT, 3, fresh)
        dead = rename.commit_dest(RegClass.INT, 3, fresh)
        assert rename.arch[RegClass.INT][3] == fresh
        assert dead != fresh

    def test_pin_unpin_architectural(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        rename.pin_architectural()
        assert all(int_file.pinned[p] for p in rename.arch[RegClass.INT])
        rename.unpin_architectural()
        assert not any(int_file.pinned[p] for p in rename.arch[RegClass.INT])

    def test_restore_front_to_arch_releases_speculative(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        fresh = int_file.alloc()
        rename.rename_dest(RegClass.INT, 7, fresh)
        released_int, released_fp = rename.restore_front_to_arch()
        assert released_int == 1 and released_fp == 0
        assert rename.lookup(RegClass.INT, 7) == rename.arch[RegClass.INT][7]
        assert not int_file.is_allocated(fresh)

    def test_restore_noop_when_consistent(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        assert rename.restore_front_to_arch() == (0, 0)

    def test_check_maps_detects_freed_register(self):
        int_file, fp_file = self._files()
        rename = RenameState(0, int_file, fp_file)
        preg = rename.lookup(RegClass.INT, 0)
        int_file.release(preg)
        with pytest.raises(SimulationError):
            rename.check_maps()

    def test_two_threads_disjoint_arch_state(self):
        int_file, fp_file = self._files(128)
        first = RenameState(0, int_file, fp_file)
        second = RenameState(1, int_file, fp_file)
        own = set(first.arch[RegClass.INT])
        other = set(second.arch[RegClass.INT])
        assert not own & other
