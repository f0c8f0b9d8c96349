"""Scoped runtime lifecycle: enter once, finalize on every exit path.

The context is meant to be held in a ``with`` block (or torn down by
``spmd_exit`` in a ``finally``), which guarantees the transport is finalized
exactly once even when the scope unwinds through an exception::

    with spmd_enter() as ctx:
        work(ctx.myid, ctx.nprocs)
    # finalized here, error or not

Entering at import time of a library module is rejected: module-level state
outlives the main control flow, and teardown ordering after the interpreter
starts dying is exactly the mess scope binding exists to avoid.  Programs
that want a global handle should declare a module-level name and assign it
inside their main function.

The one escape hatch is :meth:`SpmdContext.abort`, which kills the process
immediately; by design nothing is flushed or finalized on that path.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Optional

from . import transport
from ._slots import current_slot
from .transport import TransportContext, WorldConfig


class SpmdError(Exception):
    pass


class AlreadyActive(SpmdError):
    def __init__(self):
        super().__init__("a runtime scope is already active in this process "
                         "(one world per process lifetime)")


class GlobalScopeError(SpmdError):
    def __init__(self, module: str):
        super().__init__(
            f"spmd_enter called at import time of module {module!r}; "
            "enter the runtime from your main control flow instead")
        self.module = module


def _importing_module() -> Optional[str]:
    """Name of the non-main module whose import triggered this call, if any."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name == "<module>":
            name = frame.f_globals.get("__name__", "?")
            if name != "__main__":
                return name
        frame = frame.f_back
    return None


class SpmdContext:
    """A live world membership: rank identity plus guaranteed teardown."""

    def __init__(self, ctx: TransportContext):
        self.transport = ctx
        self.myid = ctx.rank
        self.nprocs = ctx.nprocs
        self.active = True
        self._at_exit: list[Callable[[], None]] = []

    def at_exit(self, fn: Callable[[], None]) -> None:
        """Register a callback to run at scope exit, before finalize (LIFO)."""
        self._at_exit.append(fn)

    def abort(self, code: int = 1) -> None:
        """Kill the process immediately. No callbacks, no finalize, no flush."""
        os._exit(code)

    def __enter__(self) -> "SpmdContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        spmd_exit(self)
        return False

    def __repr__(self) -> str:
        state = "active" if self.active else "exited"
        return f"SpmdContext(myid={self.myid}, nprocs={self.nprocs}, {state})"


def spmd_enter(config: Optional[WorldConfig] = None) -> SpmdContext:
    """Join the world and return the scope handle. Once per process lifetime."""
    module = _importing_module()
    if module is not None:
        raise GlobalScopeError(module)
    slot = current_slot()
    if slot.spmd_ever_entered:
        raise AlreadyActive()
    ctx = transport.init(config)
    slot.spmd_ever_entered = True
    return SpmdContext(ctx)


def spmd_exit(sctx: SpmdContext) -> None:
    """Run exit callbacks and finalize the transport. Idempotent.

    Callbacks run newest-first; a failing callback does not stop the others
    and cannot prevent finalize.  The first callback error is re-raised after
    the transport is down.
    """
    if not sctx.active:
        return
    sctx.active = False
    first_error: Optional[BaseException] = None
    for fn in reversed(sctx._at_exit):
        try:
            fn()
        except BaseException as exc:
            if first_error is None:
                first_error = exc
    sctx._at_exit.clear()
    sctx.transport.finalize()
    if first_error is not None:
        raise first_error
