"""Exact law of Gaussian sample covariances, for tests of the sampler's moments."""

import numpy as np


def sample_covariances(sigma, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` sample covariances S of ``n`` Gaussian draws with covariance ``sigma``.

    (n - 1) S ~ Wishart(n - 1, sigma), drawn by Bartlett's decomposition
    (Bartlett 1933; Odell and Feiveson, JASA 61, 199, 1966): S = L A A^T L^T / (n - 1),
    with L the Cholesky factor of sigma and A lower triangular, A_ii^2 ~ chi^2(n - 1 - i)
    and each A_ij below the diagonal standard normal.  Returns a (count, p, p) array.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = len(sigma)
    diag = np.arange(p)
    below = np.tril_indices(p, -1)
    a = np.zeros((count, p, p))
    a[:, diag, diag] = np.sqrt(rng.chisquare(n - 1 - diag, size=(count, p)))
    a[:, below[0], below[1]] = rng.standard_normal((count, len(below[0])))
    la = np.linalg.cholesky(sigma) @ a
    return la @ la.transpose(0, 2, 1) / (n - 1)
