"""Tests for the Trace container and TraceInstruction."""

import pytest

from repro.errors import TraceError
from repro.isa import NO_REG, OpClass
from repro.trace.instruction import TraceInstruction
from repro.trace.trace import Trace


def _columns(count=4, **overrides):
    columns = {
        "op": [int(OpClass.IALU)] * count,
        "dest": [1] * count,
        "src1": [NO_REG] * count,
        "src2": [NO_REG] * count,
        "addr": [0] * count,
        "taken": [False] * count,
        "pc": list(range(0x1000, 0x1000 + 4 * count, 4)),
    }
    columns.update(overrides)
    return columns


class TestTraceConstruction:
    def test_length(self):
        trace = Trace("t", _columns(7))
        assert len(trace) == 7

    def test_missing_column_rejected(self):
        columns = _columns()
        del columns["addr"]
        with pytest.raises(TraceError):
            Trace("t", columns)

    def test_ragged_columns_rejected(self):
        columns = _columns()
        columns["addr"] = [0] * 3
        with pytest.raises(TraceError):
            Trace("t", columns)

    def test_columns_are_read_only(self):
        trace = Trace("t", _columns())
        with pytest.raises(TypeError):
            trace.op[0] = 5

    def test_data_region_recorded(self):
        trace = Trace("t", _columns(), data_region_bytes=12345)
        assert trace.data_region_bytes == 12345


class TestTraceValidation:
    def test_valid_trace_passes(self):
        Trace("t", _columns()).validate()

    def test_bad_opcode_rejected(self):
        columns = _columns(op=[99] * 4)
        with pytest.raises(TraceError):
            Trace("t", columns).validate()

    def test_out_of_range_register_rejected(self):
        columns = _columns(dest=[64] * 4)
        with pytest.raises(TraceError):
            Trace("t", columns).validate()

    def test_out_of_range_register_names_its_row(self):
        columns = _columns(src1=[NO_REG, 3, 64, NO_REG])
        with pytest.raises(TraceError, match="src1 out of range at index 2"):
            Trace("t", columns).validate()

    def test_negative_register_other_than_no_reg_rejected(self):
        columns = _columns(src2=[NO_REG, NO_REG, NO_REG, NO_REG - 1])
        with pytest.raises(TraceError, match="src2 out of range at index 3"):
            Trace("t", columns).validate()

    def test_negative_address_on_non_memory_row_passes(self):
        # Only memory rows carry a data address.
        Trace("t", _columns(addr=[0, -8, 0, 0])).validate()

    def test_negative_address_rejected(self):
        columns = _columns(op=[int(OpClass.LOAD)] * 4, addr=[-8] * 4)
        with pytest.raises(TraceError):
            Trace("t", columns).validate()

    def test_repeated_pc_rejected(self):
        columns = _columns(pc=[0x1000] * 4)
        with pytest.raises(TraceError):
            Trace("t", columns).validate()


class TestTraceAccessors:
    def test_instruction_row_view(self):
        trace = Trace("t", _columns())
        inst = trace.instruction(2)
        assert isinstance(inst, TraceInstruction)
        assert inst.index == 2
        assert inst.op is OpClass.IALU
        assert inst.pc == 0x1008

    def test_negative_index(self):
        trace = Trace("t", _columns(5))
        assert trace.instruction(-1).index == 4

    def test_out_of_range_index(self):
        trace = Trace("t", _columns(5))
        with pytest.raises(IndexError):
            trace.instruction(5)

    def test_iteration_yields_all(self):
        trace = Trace("t", _columns(6))
        assert [inst.index for inst in trace] == list(range(6))

    def test_mix_pure_alu(self):
        mix = Trace("t", _columns()).mix()
        assert mix["other"] == 1.0
        assert mix["load"] == 0.0

    def test_mix_with_loads(self):
        ops = [int(OpClass.LOAD), int(OpClass.STORE),
               int(OpClass.BRANCH), int(OpClass.FADD)]
        mix = Trace("t", _columns(op=ops)).mix()
        assert mix["load"] == pytest.approx(0.25)
        assert mix["store"] == pytest.approx(0.25)
        assert mix["branch"] == pytest.approx(0.25)
        assert mix["fp"] == pytest.approx(0.25)


class TestTraceInstruction:
    def test_memory_flags(self):
        inst = TraceInstruction(0, 0x100, OpClass.FLOAD, dest=33, addr=64)
        assert inst.is_memory and inst.is_load and not inst.is_store

    def test_branch_flags(self):
        inst = TraceInstruction(0, 0x100, OpClass.BRANCH, taken=True)
        assert inst.is_branch and not inst.is_memory

    def test_frozen(self):
        inst = TraceInstruction(0, 0x100, OpClass.IALU, dest=3)
        with pytest.raises(Exception):
            inst.dest = 4
