"""Shared helpers for the test suite.

Small-bin measures keep hypothesis runs fast; the acceptance tests use
the full production sizes.
"""

import gc
import sys

import numpy as np

from hyperlab import CircleMeasure, fourier_band


def coeff_row(mu: CircleMeasure, band: int) -> np.ndarray:
    """Fourier coefficients of mu for n = -band..band as one array."""
    return fourier_band(mu, band)


def measures_close(mu: CircleMeasure, nu: CircleMeasure, tol: float) -> bool:
    if mu.bins != nu.bins:
        return False
    if np.max(np.abs(mu.density - nu.density)) > tol:
        return False
    a, b = mu.atoms(), nu.atoms()
    if len(a) != len(b):
        return False
    for (x, mx), (y, my) in zip(a, b):
        if abs(x - y) > 1e-9 or abs(mx - my) > tol:
            return False
    return True


def line_events(call) -> int:
    """The line events sys.settrace sees while call() runs, in every
    Python frame it enters: a size-independent count means no Python
    loop over the size.  The cyclic collector is off meanwhile, so no
    finalizer of another test's garbage runs inside the count."""
    events, before, collecting = 0, sys.gettrace(), gc.isenabled()

    def tracer(frame, event, arg):
        nonlocal events
        events += event == "line"
        return tracer

    gc.disable()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(before)
        if collecting:
            gc.enable()
    return events


# -- the definition T = M - J, an oracle independent of hyperlab.kalish ------

def apply_M(X) -> np.ndarray:
    """The multiplier: row j of X, an (M,) or (M, k) array, times e^{i t_j}
    with t_j = 2pi j/M."""
    X = np.asarray(X, dtype=complex)
    M = X.shape[0]
    phases = np.exp(1j * (2.0 * np.pi * np.arange(M) / M))
    return phases.reshape((M,) + (1,) * (X.ndim - 1)) * X


def apply_J(X) -> np.ndarray:
    """The quadrature: row k is i (2pi/M) sum_{j<k} e^{i t_j} x_j, the
    left-endpoint rule for the line integral from angle 0, as one cumsum."""
    M = np.shape(X)[0]
    terms = (1j * 2.0 * np.pi / M) * apply_M(X)
    out = np.zeros_like(terms)
    out[1:] = np.cumsum(terms, axis=0)[:-1]
    return out
