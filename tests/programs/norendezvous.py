"""Never joins the mesh; just sleeps.

Exists to force a rendezvous timeout and prove the launcher reaps
the stragglers it started.
"""

import time

time.sleep(600.0)
