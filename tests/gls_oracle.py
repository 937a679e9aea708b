"""The dense GLS oracle shared by the model and acceptance tests.

Explicit n-by-n matrices built from the poster and judge dummy columns
of a score table: the reference that nbibd's spectral fits must match in
the estimates, their standard errors and the restricted likelihood.
"""

import math
from typing import NamedTuple

import numpy as np


def dummies(table):
    """The reviewed posters, the n-by-p dummy matrix of their columns and the n-by-b judge dummy matrix."""
    n = table.n
    reviewed = np.unique(table.posters)
    x = np.zeros((n, reviewed.size))
    x[np.arange(n), np.searchsorted(reviewed, table.posters)] = 1.0
    z = np.zeros((n, table.b))
    z[np.arange(n), table.judges] = 1.0
    return reviewed, x, z


class DenseGLS(NamedTuple):
    reviewed: np.ndarray
    beta: np.ndarray
    se: np.ndarray
    reml_neg2: float


def dense_gls(table, theta):
    """GLS of the scores on the reviewed posters, with covariance sigma^2 H and H = I + theta Z Z'.

    Returns the reviewed posters, their estimates beta and standard
    errors, and the restricted -2 log likelihood profiled over sigma^2.
    """
    reviewed, x, z = dummies(table)
    n = table.n
    h = np.eye(n) + theta * (z @ z.T)
    h_inv = np.linalg.inv(h)
    information = x.T @ h_inv @ x
    beta = np.linalg.solve(information, x.T @ h_inv @ table.scores)
    residuals = table.scores - x @ beta
    dof = n - reviewed.size
    sigma2 = float(residuals @ h_inv @ residuals) / dof
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(information)))
    _, logdet_h = np.linalg.slogdet(h)
    _, logdet_i = np.linalg.slogdet(information)
    reml_neg2 = dof * (math.log(2.0 * math.pi) + 1.0) + dof * math.log(sigma2) + logdet_h + logdet_i
    return DenseGLS(reviewed, beta, se, reml_neg2)
