"""Training objective: mean squared error between log target and log
predicted magnitudes.

Both sides are the mask applied to the degraded magnitudes, floored at
`LOSS_EPS` before the log. The floor makes the loss flat (zero
gradient) wherever the predicted product sits below epsilon, which the
gradient mirrors exactly.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError

LOSS_EPS = 1e-12


def logmag_mse(
    pred_mask: np.ndarray,
    target_mask: np.ndarray,
    coded_mags: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Loss and its gradient with respect to the predicted mask."""
    pred_prod = pred_mask * coded_mags
    p = np.maximum(pred_prod, LOSS_EPS)
    t = np.maximum(target_mask * coded_mags, LOSS_EPS)
    diff = np.log(p) - np.log(t)
    loss = float(np.mean(diff**2))
    if not np.isfinite(loss):
        raise NumericError("loss diverged to a non-finite value")
    grad = (2.0 / diff.size) * diff * np.where(
        pred_prod > LOSS_EPS, coded_mags / p, 0.0)
    return loss, grad
