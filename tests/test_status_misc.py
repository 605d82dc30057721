"""Small corners: run results, physical register file, micro-op basics."""

import pytest

from repro.errors import SimAssertion
from repro.isa.encoding import decode, encode
from repro.isa.opcodes import Op
from repro.kernel.status import RunResult, RunStatus
from repro.mem.physmem import PhysicalMemory
from repro.cpu.regfile import PhysRegFile
from repro.cpu.uop import WAITING, MicroOp


def test_run_result_ipc():
    result = RunResult(RunStatus.FINISHED, cycles=200, instructions=100)
    assert result.ipc == pytest.approx(0.5)
    assert result.finished_ok
    empty = RunResult(RunStatus.FINISHED, cycles=0, instructions=0)
    assert empty.ipc == 0.0


def test_run_result_crash_flags():
    result = RunResult(RunStatus.CRASH_PROCESS, cycles=10, instructions=5)
    assert not result.finished_ok


def test_phys_regfile_geometry_and_flips():
    prf = PhysRegFile(56, 10)
    assert prf.inject_rows == 66
    assert prf.inject_cols == 32
    assert prf.inject_name == "regfile"
    prf.values[7] = 0b1010
    prf.flip_bit(7, 0)
    assert prf.values[7] == 0b1011
    assert prf.read_bit(7, 0) == 1
    prf.flip_bit(7, 0)
    assert prf.values[7] == 0b1010


def test_phys_regfile_misc_registers():
    prf = PhysRegFile(56, 10)
    prf.write_misc(0, 0x1_2345_6789)  # wraps to 32 bits
    assert prf.read_misc(0) == 0x2345_6789
    assert prf.values[56] == 0x2345_6789


def test_microop_metadata():
    inst = decode(encode(Op.LDR, rd=3, rs1=4, imm=8))
    uop = MicroOp(seq=7, pc=0x1000, inst=inst)
    assert uop.seq == 7
    assert uop.state == WAITING
    assert uop.mem_size == 4
    assert not uop.squashed
    assert "LDR" in repr(uop)


def test_physical_memory_bounds():
    mem = PhysicalMemory(8192)
    mem.write(100, b"\x01\x02")
    assert mem.read(100, 2) == b"\x01\x02"
    with pytest.raises(SimAssertion, match="memory map"):
        mem.read(8191, 2)
    with pytest.raises(SimAssertion):
        mem.fetch_line(8192, 32)
    with pytest.raises(ValueError):
        PhysicalMemory(1000)  # not page aligned


def test_physical_memory_map_message_names_the_size_in_kib():
    mem = PhysicalMemory()  # the default 256 KiB platform
    with pytest.raises(SimAssertion, match="outside the 256 KiB platform "
                                           "memory map"):
        mem.read(mem.size, 1)


def test_physical_memory_line_interface():
    mem = PhysicalMemory(8192, latency=7)
    assert mem.writeback_line(64, b"\xAA" * 32) == 7
    line, latency = mem.fetch_line(64, 32)
    assert bytes(line) == b"\xAA" * 32
    assert latency == 7
