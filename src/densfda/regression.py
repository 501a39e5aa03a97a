"""Scalar-on-density linear regression via FPC scores.

A scalar response is regressed on the leading principal-component scores
of the densities, either taken directly in density space or after the
log-quantile-density transform (:func:`score_rows`), by ``fpca.fit`` and
``fpca.scores``.  Cross-validated prediction error recomputes the score
basis on every training fold, so held-out subjects never influence the
basis they are projected onto; the transform maps each density on its
own, so it is applied once per sample and kept in the sample's cache.
Densities come in as one :class:`DensitySample`; folds index its rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fpca
from .density import DensitySample, Grid
from .errors import RankDeficientWarning
from .transforms import LQD, forward_rows

SCORE_METHODS = ("fpca", "lqd")


@dataclass
class FlrModel:
    """Fitted linear model on K scores, with in-sample goodness of fit."""

    intercept: float
    coefficients: np.ndarray
    r_squared: float

    @property
    def k(self) -> int:
        return len(self.coefficients)


def fit_flr(scores: np.ndarray, y: np.ndarray) -> FlrModel:
    """Ordinary least squares of y on the score columns plus an intercept.

    A singular design triggers a ``RankDeficientWarning`` and trailing
    score columns are dropped until the fit is full rank.
    """
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, k = scores.shape
    if n <= k + 1:
        raise ValueError(f"need n > K + 1 subjects, got n={n}, K={k}")
    while True:
        design = np.column_stack([np.ones(n), scores[:, : k]])
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank == k + 1 or k == 0:
            break
        k -= 1
        warnings.warn(
            f"score matrix is rank deficient; dropping trailing component (K -> {k})",
            RankDeficientWarning,
            stacklevel=2,
        )
    residuals = y - design @ beta
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((residuals**2).sum()) / tss if tss > 0 else 0.0
    return FlrModel(float(beta[0]), beta[1:], r2)


def predict(model: FlrModel, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    return model.intercept + scores[:, : model.k] @ model.coefficients


def score_rows(sample: DensitySample, method: str) -> tuple[np.ndarray, Grid]:
    """The densities, or each one's LQD transform, as a read-only
    ``(n, m)`` array and its grid: the rows that ``fpca.fit`` and
    ``fpca.scores`` score.  The transform is kept in the sample's cache."""
    if method not in SCORE_METHODS:
        raise ValueError(f"method must be one of {SCORE_METHODS}, got {method!r}")
    if method == "fpca":
        return sample.values, sample.grid
    tgrid, xs = sample.cached(("score_rows", method), lambda: forward_rows(sample.values, sample.grid, LQD))
    xs.flags.writeable = False
    return xs, tgrid


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------


def cv_mse(
    densities: DensitySample,
    y,
    method: str,
    k: int,
    folds: int = 10,
    repeats: int = 50,
    seed: int = 0,
) -> float:
    """Repeated K-fold cross-validated mean squared prediction error.

    Every fold refits the score basis on its training subjects only,
    regresses on that fit's scores and projects the held-out densities
    onto the basis.  Fold assignment is a seeded shuffle with one child
    stream per repeat.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = len(densities)
    if n != y.size:
        raise ValueError("densities and responses differ in length")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    # each density is transformed on its own, once; folds index the rows
    rows, grid = score_rows(densities, method)
    children = np.random.SeedSequence(seed).spawn(repeats)
    total_sse = 0.0
    for child in children:
        perm = np.random.default_rng(child).permutation(n)
        for test_idx in np.array_split(perm, folds):
            train_idx = np.setdiff1d(perm, test_idx)
            system = fpca.fit(rows[train_idx], grid, k=k)
            # the fit's own scores are the training rows' projections
            model = fit_flr(system.scores, y[train_idx])
            pred = predict(model, fpca.scores(rows[test_idx], system.mean, system.eigenfunctions, grid))
            total_sse += float(((y[test_idx] - pred) ** 2).sum())
    return total_sse / (n * repeats)
