"""Central finite-difference check of the model's hand-derived gradients, for the tests."""

import numpy as np


def finite_diff_check(f, params, analytic, h=1e-5, max_coords=16, rng=None):
    """Max relative error between analytic gradients and central differences.

    ``f`` is a scalar function of ``params``.  ``analytic`` maps each
    tensor name of ``params`` to its gradient array, as
    ``forward_backward`` returns them.  Up to ``max_coords`` coordinates
    are sampled per tensor.  The relative error denominator is floored
    at 1e-3 so that coordinates with (near-)zero true gradient compare
    absolutely.

    Meaningful in 64-bit mode only; float32 round-off swamps h = 1e-5.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, value in params.values.items():
        grad = analytic[name]
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = f(params)
            flat[idx] = orig - h
            f_minus = f(params)
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-3)
            worst = max(worst, err)
    return worst
