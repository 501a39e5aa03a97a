"""Scalar-on-density linear regression via FPC scores.

A scalar response is regressed on the leading principal-component scores
of the densities, either taken directly in density space or after the
log-quantile-density transform.  Cross-validated prediction error
recomputes the score basis on every training fold, so held-out subjects
never influence the basis they are projected onto; the transform maps
each density on its own, so it is applied once per subject.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fpca
from .density import Grid
from .errors import RankDeficientWarning
from .transforms import LQD, forward_rows

SCORE_METHODS = ("fpca", "lqd")


@dataclass
class FlrModel:
    """Fitted linear model on K scores, with in-sample goodness of fit."""

    intercept: float
    coefficients: np.ndarray
    r_squared: float
    basis: "ScoreBasis | fpca.EigenSystem | None" = None

    @property
    def k(self) -> int:
        return len(self.coefficients)


def fit_flr(scores: np.ndarray, y: np.ndarray, basis=None) -> FlrModel:
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
    return FlrModel(float(beta[0]), beta[1:], r2, basis)


def predict(model: FlrModel, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    return model.intercept + scores[:, : model.k] @ model.coefficients


# ---------------------------------------------------------------------------
# Score bases
# ---------------------------------------------------------------------------


@dataclass
class ScoreBasis:
    """The score method and the eigensystem (at most K components) of
    the scored rows; new densities are scored in its mean and
    eigenfunctions."""

    method: str
    system: fpca.EigenSystem

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.system.mean).tobytes())
        h.update(np.ascontiguousarray(self.system.eigenfunctions).tobytes())
        return h.hexdigest()


def score_basis(densities, method: str, k: int) -> ScoreBasis:
    """Fit the score basis (mean + leading eigenfunctions) on a sample."""
    rows, grid = _score_rows(densities, method)
    return ScoreBasis(method, fpca.fit(rows, grid, k=k))


def project_scores(densities, basis: ScoreBasis) -> np.ndarray:
    """Scores of (possibly unseen) densities in a previously fitted basis."""
    rows, _ = _score_rows(densities, basis.method)
    system = basis.system
    return fpca.scores(rows, system.mean, system.eigenfunctions, system.grid)


def _score_rows(densities, method: str) -> tuple[np.ndarray, Grid]:
    """The densities, or each one's LQD transform, as an ``(n, m)`` array."""
    if method not in SCORE_METHODS:
        raise ValueError(f"method must be one of {SCORE_METHODS}, got {method!r}")
    values, grid = fpca.stack(densities)
    if method == "fpca":
        return values, grid
    tgrid, xs = forward_rows(values, grid, LQD)
    return xs, tgrid


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------


@dataclass
class CvDetails:
    mse: float
    fold_records: list = field(default_factory=list)  # (repeat, fold, test_idx, digest)


def cv_mse(
    densities,
    y,
    method: str,
    k: int,
    folds: int = 10,
    repeats: int = 50,
    seed: int = 0,
    return_details: bool = False,
):
    """Repeated K-fold cross-validated mean squared prediction error.

    Every fold refits the score basis on its training subjects only,
    regresses on that fit's scores and projects the held-out densities
    onto the basis.  Fold assignment is a seeded shuffle with one child
    stream per repeat.
    """
    densities = list(densities)
    y = np.asarray(y, dtype=float).ravel()
    n = len(densities)
    if n != y.size:
        raise ValueError("densities and responses differ in length")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    # each density is transformed on its own, once; folds index the rows
    rows, grid = _score_rows(densities, method)
    children = np.random.SeedSequence(seed).spawn(repeats)
    total_sse = 0.0
    records = []
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        perm = rng.permutation(n)
        for j, test_idx in enumerate(np.array_split(perm, folds)):
            train_idx = np.setdiff1d(perm, test_idx)
            system = fpca.fit(rows[train_idx], grid, k=k)
            # the fit's own scores are the training rows' projections
            model = fit_flr(system.scores, y[train_idx], ScoreBasis(method, system))
            pred = predict(model, fpca.scores(rows[test_idx], system.mean, system.eigenfunctions, grid))
            total_sse += float(((y[test_idx] - pred) ** 2).sum())
            if return_details:
                records.append((r, j, test_idx.copy(), model.basis.digest()))
    mse = total_sse / (n * repeats)
    if return_details:
        return CvDetails(mse, records)
    return mse
