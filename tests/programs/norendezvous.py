"""Never joins the mesh (never calls init, so never writes its ready byte); just sleeps.

Exists to let the launcher's window pass (RendezvousTimeout) and prove the
launcher reaps the stragglers it started.
"""

import time

time.sleep(600.0)
