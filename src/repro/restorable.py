"""Restore simulator objects from snapshots without slowing them down.

``copy`` and ``pickle`` rebuild an instance as ``obj.__dict__.update(state)``.
On CPython 3.11 touching ``__dict__`` turns the instance's inline attribute
values into a real dict for the rest of its life, which takes every
attribute read off the interpreter's specialised fast path: a machine
restored that way simulates 25–46% slower than a freshly built one.

:class:`Restorable` re-sets each saved attribute with
``object.__setattr__`` instead, in the saved order, so a restored object
keeps the layout of a fresh one.  Every class a ``System`` or
``SMPSystem`` reaches carries it (``tests/test_checkpointing.py`` walks
the object graph to check).
"""

from __future__ import annotations


class Restorable:
    """Mixin: rebuild from ``copy``/``pickle`` state at fresh-object speed."""

    __slots__ = ()

    def __setstate__(self, state: dict) -> None:
        setattr_ = object.__setattr__
        for name, value in state.items():
            setattr_(self, name, value)
