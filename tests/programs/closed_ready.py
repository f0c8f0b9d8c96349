"""Closes its ready pipe without writing its byte, then keeps running.

The launcher reads the end of the pipe while the rank is still alive, so
the rank neither joined nor exited: the launch must fail when its window
passes, with every rank killed.
"""

import os
import time

os.close(int(os.environ["PACKRUN_READY_FD"]))
time.sleep(600.0)
