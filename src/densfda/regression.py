"""Scalar-on-density linear regression via FPC scores.

A scalar response is regressed on the leading principal-component scores
of the densities, taken directly or after the log-quantile-density
transform: the :func:`frechet.embedding` of ordinary FPCA or of LQD,
scored by ``fpca.fit`` and ``fpca.scores``.  Cross-validated prediction
error recomputes the score basis on every training fold, so held-out
subjects never influence the basis they are projected onto; both maps
take each density on its own, so the embedding is computed once per
sample and kept.  Densities come in as one :class:`DensitySample`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fpca
from .density import DensitySample
from .errors import BadArgumentError, NonFiniteError, RankDeficientWarning
from .frechet import embedding, method_named

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
    score columns are dropped until the fit is full rank.  A NaN or
    infinite response or score raises ``NonFiniteError``.
    """
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if not (np.isfinite(y).all() and np.isfinite(scores).all()):
        raise NonFiniteError("responses and scores must be finite")
    n, k = scores.shape
    if n <= k + 1:
        raise BadArgumentError(f"need n > K + 1 subjects, got n={n}, K={k}")
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

    ``method`` is ``"fpca"`` or ``"lqd"`` (``BadArgumentError`` otherwise:
    the Hilbert-sphere embedding depends on the whole sample's Karcher mean).
    Every fold refits the score basis on its training subjects only,
    regresses on that fit's scores and projects the held-out densities
    onto the basis.  Fold assignment is a seeded shuffle with one child
    stream per repeat; with ``folds == n`` every repeat would make the
    same leave-one-out fits, so one is made.  Raises ``BadArgumentError``
    unless 2 <= folds <= n.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = len(densities)
    if n != y.size:
        raise BadArgumentError("densities and responses differ in length")
    if folds < 2:
        raise BadArgumentError("folds must be >= 2")
    if repeats < 1:
        raise BadArgumentError("repeats must be >= 1")
    if method not in SCORE_METHODS:
        raise BadArgumentError(f"method must be one of {SCORE_METHODS}, got {method!r}")
    # each density is embedded on its own, once; folds index the rows
    rows, grid = embedding(densities, method_named(method))
    if folds > n:  # a fold beyond n subjects would be empty
        raise BadArgumentError(f"folds must be <= n = {n} subjects, got {folds}")
    # leave-one-out folds do not depend on the shuffle: one repeat gives them all
    repeats = 1 if folds == n else repeats
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
