"""Kernel layer: syscalls, loader, memory layout."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.isa.assembler import assemble
from repro.kernel.layout import MemoryLayout
from repro.kernel.loader import load_program
from repro.kernel.status import CrashReason
from repro.kernel.syscalls import (
    SYSCALL_ARG_COUNTS,
    Kernel,
    Syscall,
    syscall_arg_count,
)
from repro.mem.paging import PAGE_SIZE, PageTable
from repro.mem.physmem import PhysicalMemory


def test_syscall_putw_format():
    kernel = Kernel()
    kernel.do_syscall(Syscall.PUTW, 0xDEADBEEF, 0, 0)
    assert kernel.output == b"deadbeef\n"


def test_syscall_putd_signed():
    kernel = Kernel()
    kernel.do_syscall(Syscall.PUTD, 0xFFFFFFFF, 0, 0)
    assert kernel.output == b"-1\n"


def test_syscall_putc_raw_byte():
    kernel = Kernel()
    kernel.do_syscall(Syscall.PUTC, 0x141, 0, 0)  # truncates to 0x41
    assert kernel.output == b"A"


def test_syscall_exit_sets_code():
    kernel = Kernel()
    _, exited, crash = kernel.do_syscall(Syscall.EXIT, 42, 0, 0)
    assert exited and crash is None
    assert kernel.exit_code == 42


def test_unknown_syscall_is_a_crash():
    kernel = Kernel()
    _, exited, crash = kernel.do_syscall(999, 0, 0, 0)
    assert not exited
    assert crash is CrashReason.BAD_SYSCALL


def test_output_limit_caps_livelocked_writers():
    kernel = Kernel(output_limit=4)
    for _ in range(10):
        kernel.do_syscall(Syscall.PUTC, ord("x"), 0, 0)
    assert len(kernel.output) <= 5


# -- which argument registers each syscall reads -------------------------------


class _StubSMP:
    """An SMP machine whose SPAWN result depends on both of its arguments."""

    ncores = 4

    def start_core(self, entry: int, arg: int) -> int:
        return (entry * 0x9E3779B1 ^ arg) & 0xFFFFFFFF


def _observe(number: int, args, smp=None):
    kernel = Kernel()
    kernel.smp = smp
    ret, exited, crash = kernel.do_syscall(number, *args, core=1)
    return ret, exited, crash, bytes(kernel.output), kernel.exit_code


_WORDS = st.tuples(*[st.integers(0, 0xFFFFFFFF)] * 3)


@given(
    number=st.one_of(st.sampled_from(list(Syscall)), st.integers(0, 0xFFFF)),
    args=_WORDS,
    others=_WORDS,
    smp=st.sampled_from([None, _StubSMP()]),
)
def test_arguments_past_the_table_count_change_nothing(
    number, args, others, smp
):
    # Liveness pruning treats the argument registers past a syscall's
    # count as never consumed; Kernel.do_syscall must agree.
    used = syscall_arg_count(number)
    mixed = args[:used] + others[used:]
    assert _observe(number, mixed, smp) == _observe(number, args, smp)


def test_table_covers_every_syscall_and_unknown_numbers_read_all():
    assert set(SYSCALL_ARG_COUNTS) == set(Syscall)
    assert syscall_arg_count(max(Syscall) + 1) == 3


@pytest.mark.parametrize(
    "number", [Syscall.EXIT, Syscall.PUTW, Syscall.PUTC, Syscall.PUTD]
)
def test_r0_matters_to_single_argument_syscalls(number):
    assert syscall_arg_count(number) == 1
    assert _observe(number, (1, 0, 0)) != _observe(number, (2, 0, 0))


def test_spawn_reads_r0_and_r1():
    smp = _StubSMP()
    assert syscall_arg_count(Syscall.SPAWN) == 2
    base = _observe(Syscall.SPAWN, (8, 1, 0), smp)
    assert _observe(Syscall.SPAWN, (4, 1, 0), smp) != base
    assert _observe(Syscall.SPAWN, (8, 2, 0), smp) != base


def make_loaded(source="_start:\n HALT\n"):
    layout = MemoryLayout()
    mem = PhysicalMemory(layout.phys_size)
    table = PageTable()
    program = assemble(source)
    proc = load_program(program, mem, table, layout)
    return proc, mem, table, layout, program


def test_loader_maps_text_data_stack():
    proc, mem, table, layout, program = make_loaded("""
    _start:
        HALT
    .data
    arr: .word 1, 2, 3
    """)
    assert proc.entry_pc == layout.text_base
    assert proc.initial_sp == layout.initial_sp
    assert proc.text_pages >= 1 and proc.data_pages >= 1
    assert proc.stack_pages == layout.stack_pages
    # Text copied into the frame the page table names.
    entry = table.lookup(layout.text_base >> (PAGE_SIZE - 1).bit_length())
    assert entry is not None
    ppn, writable, executable, kernel = entry
    assert executable and not writable and not kernel
    assert mem.read(ppn * PAGE_SIZE, 4) == program.text[:4]


def test_loader_text_readonly_data_writable():
    _, _, table, layout, _ = make_loaded("""
    _start:
        HALT
    .data
    x: .word 9
    """)
    shift = (PAGE_SIZE - 1).bit_length()
    data_entry = table.lookup(layout.data_base >> shift)
    assert data_entry is not None and data_entry[1]  # writable
    stack_entry = table.lookup(layout.stack_base >> shift)
    assert stack_entry is not None and stack_entry[1]


def test_loader_rejects_mismatched_bases():
    layout = MemoryLayout()
    mem = PhysicalMemory(layout.phys_size)
    program = assemble("_start:\n HALT\n", text_base=0x2000, data_base=0x3000)
    with pytest.raises(ConfigError, match="text base"):
        load_program(program, mem, PageTable(), layout)


def test_loader_rejects_empty_text():
    layout = MemoryLayout()
    mem = PhysicalMemory(layout.phys_size)
    program = assemble(".data\nx: .word 1\n")
    with pytest.raises(ConfigError, match="empty"):
        load_program(program, mem, PageTable(), layout)


def test_layout_invariants():
    layout = MemoryLayout()
    layout.validate()
    assert layout.stack_base < layout.stack_top
    assert layout.initial_sp % 8 == 0
    assert layout.first_user_frame * PAGE_SIZE == layout.kernel_reserved
    assert layout.text_base < layout.data_base < layout.stack_base


def test_layout_rejects_unaligned_bases():
    with pytest.raises(ValueError, match="page aligned"):
        MemoryLayout(text_base=0x10001).validate()


def test_layout_rejects_overlapping_sections():
    with pytest.raises(ValueError, match="overlap"):
        MemoryLayout(data_base=0x1_0000, text_base=0x4_0000).validate()
