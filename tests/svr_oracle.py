"""Reference SVR fitter for the equivalence tests: masked minibatch steps.

Each step fancy-indexes its batch, keeps the rows outside the epsilon tube
with a boolean mask and sums ``row * w * sign(resid)`` over those rows only,
skipping the update when none is outside. This is the subgradient step the
single-gather step in ``proxyrank.outcomes._fit_svr`` must reproduce
exactly (same ``theta`` bytes, outcome scale and step count), kept here (not in the
package) purely as a test oracle.
"""
from __future__ import annotations

import math

import numpy as np

from proxyrank.rng import substream


def fit_svr(D, y, w, epsilon=0.1, C=1.0, lr0=0.1, epochs=30, batch_size=64,
            grad_clip=1.0, seed=0):
    """Primal epsilon-insensitive subgradient descent (last iterate).

    The outcome is standardized internally so the default step sizes are
    scale-free in y; the design is consumed raw.
    """
    y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
    yn = (y - y_mean) / y_scale
    wn = w / w.mean()
    n, p = D.shape
    lam = 1.0 / (C * n)
    theta = np.zeros(p)
    rng = substream(seed, "svr")
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, batch_size):
            b = order[s:s + batch_size]
            Db, yb, wb = D[b], yn[b], wn[b]
            t += 1
            lr = lr0 / math.sqrt(t)
            resid = yb - Db @ theta
            outside = np.abs(resid) > epsilon
            grad = lam * theta
            grad[0] = 0.0  # intercept unpenalized
            if outside.any():
                grad -= (Db[outside] *
                         (wb[outside] * np.sign(resid[outside]))[:, None]).sum(axis=0) / len(b)
            if grad_clip is not None:
                norm = math.sqrt(grad @ grad)
                if norm > grad_clip:
                    grad *= grad_clip / norm
            theta = theta - lr * grad
    return theta, y_mean, y_scale, t
