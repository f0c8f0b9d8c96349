"""Per-logical-process runtime state.

A slot carries everything that must exist exactly once per rank: the
once-only initialization flag, the staged transport, and the scoped-runtime
bookkeeping.  In the normal case (one OS process per rank) there is a single
process-wide slot.  The in-process thread launcher instead installs a fresh
slot on each worker thread, so that several logical processes can share one
interpreter without seeing each other's state.
"""

from __future__ import annotations

import threading
from typing import Optional


class Slot:
    __slots__ = ("transport_initialized", "staged_transport", "spmd_ever_entered")

    def __init__(self):
        self.transport_initialized = False
        self.staged_transport = None  # set by the thread launcher before the program runs
        self.spmd_ever_entered = False


_process_slot = Slot()
_tls = threading.local()


def current_slot() -> Slot:
    slot = getattr(_tls, "slot", None)
    return slot if slot is not None else _process_slot


def install_slot(slot: Optional[Slot]) -> None:
    """Bind a slot to the calling thread (None restores the process slot)."""
    _tls.slot = slot
