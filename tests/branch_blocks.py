"""A locked branch's characteristic blocks written in the delay: a test reference.

The package reads a locked branch only in its phase phi = Omega_hat tau
(``relative_hopf_scan``).  These blocks instead solve Omega_hat(tau) on the
branch at every read, an independent statement of the modal gain and its
rate for the tests that check the phase scan against a scan in the delay.
"""

import numpy as np

from pllbif import BlockSet, blocks_from_gain, normalize


def branch_blocks(params, branch) -> BlockSet:
    """Blocks at modal gain a(tau) = K mu cos(Omega_hat(tau) tau) along ``branch``."""
    p = normalize(params)
    k, mu = p.coupling, p.filter_gain

    def gain(tau):
        t = np.asarray(tau, dtype=float)
        return k * mu * np.cos(branch.omega_hat(t) * t)

    def dgain(tau):
        # d/dtau [cos(Omega_hat tau)] with Omega_hat' from the locked frequency
        # relation: Omega_hat + tau Omega_hat' = Omega_hat/(1 + tau K cos)
        t = np.asarray(tau, dtype=float)
        oh = branch.omega_hat(t)
        arg = oh * t
        return -k * mu * np.sin(arg) * oh / (1.0 + t * k * np.cos(arg))

    return blocks_from_gain(p, gain, dgain)
