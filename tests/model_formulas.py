"""Per-theta formulas of a pure family's state, projector and projector derivative, and of
a qubit mixture's canonical psi2, written out with numpy from the family's callables.

The tests use them as independent references for what the models' input stages hold:
they read ``psi`` and ``dpsi`` directly, and difference with the step they are given.
"""

import numpy as np


def state_formula(family, theta):
    return np.asarray(family.psi(theta), dtype=complex).reshape(-1)


def projector_formula(family, theta):
    v = state_formula(family, theta)
    return np.outer(v, v.conj())


def dprojector_formula(family, theta, h):
    if family.dpsi is not None:
        v = state_formula(family, theta)
        dv = np.asarray(family.dpsi(theta), dtype=complex).reshape(-1)
        d = np.outer(dv, v.conj()) + np.outer(v, dv.conj())
    else:
        d = (projector_formula(family, theta + h) - projector_formula(family, theta - h)) / (2.0 * h)
    return (d + d.conj().T) / 2.0


def psi2_formula(family, theta, h):
    """dP1 psi1 with its psi1 component projected out, normalized."""
    psi = state_formula(family, theta)
    v = dprojector_formula(family, theta, h) @ psi
    v = v - np.vdot(psi, v) * psi
    return v / np.linalg.norm(v)
