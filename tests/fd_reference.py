"""The finite-difference Stokes oracle, kept as a test-side reference.

A second-order staggered-grid discretization of each wavenumber, split
into a pressure-free tangential block (symmetric tridiagonal once its wall
rows are eliminated) and a real pressure-coupled block (sparse
shift-invert Arnoldi from a seeded start vector).  It shares no code with
the package's spectral oracle or its root solver, so the tests use it to
cross-check both.
"""

from __future__ import annotations

import math

import numpy as np

from slipchan.core import Friction, _number
from slipchan.errors import InvalidCase, NonConvergence
from slipchan.verify import _filter_real, check_oracle_grid


def _coupled_block(m: int, n: int, friction: Friction, grid_n: int):
    """The pressure-coupled block of wavenumber (m, n) != (0, 0).

    Rotating (U, V) to U_par = (mU+nV)/mu leaves U_par, W and Q coupled.
    The unknowns X = i*U_par and W sit at the grid_n+1 nodes of z in
    [-1,1] and Q at the grid_n cell midpoints, and every entry is real:
    second-order staggered stencils with -mu (Q_{i-1}+Q_i)/2 in the X
    momentum rows and mu (X_j+X_{j+1})/2 in the divergence rows.
    Momentum rows carry the identity on the right-hand side; wall and
    divergence rows are pure constraints (zero rows of B).  Each stencil
    band is laid down as (row, column, value) index arrays and the matrix
    is converted to CSC once, so assembly costs a few vector operations
    rather than one Python step per nonzero.
    """
    import scipy.sparse

    mu2 = float(m * m + n * n)
    mu = math.sqrt(mu2)
    h = 2.0 / grid_n
    inv_h2 = 1.0 / (h * h)
    x_at = np.arange(grid_n + 1)
    w_at = x_at + (grid_n + 1)
    q_at = x_at[:-1] + 2 * (grid_n + 1)
    size = 3 * grid_n + 2
    bands = []
    for row in (x_at[1:-1], w_at[1:-1]):
        bands += [(row, row - 1, -inv_h2), (row, row, 2.0 * inv_h2 + mu2),
                  (row, row + 1, -inv_h2)]
    bands += [(x_at[1:-1], q_at[:-1], -0.5 * mu), (x_at[1:-1], q_at[1:], -0.5 * mu),
              (w_at[1:-1], q_at[1:], 1.0 / h), (w_at[1:-1], q_at[:-1], -1.0 / h)]
    ends = x_at[[0, grid_n]]
    if friction.is_dirichlet:
        bands.append((ends, ends, 1.0))
    else:
        # -X'(-1) + beta X(-1) = 0 and X'(1) + beta X(1) = 0, one-sided
        bands += [(ends, ends, 3.0 / (2.0 * h) + friction.beta),
                  (ends, x_at[[1, grid_n - 1]], -4.0 / (2.0 * h)),
                  (ends, x_at[[2, grid_n - 2]], 1.0 / (2.0 * h))]
    bands.append((w_at[[0, grid_n]], w_at[[0, grid_n]], 1.0))
    # divergence rows, one per cell
    bands += [(q_at, x_at[:-1], 0.5 * mu), (q_at, x_at[1:], 0.5 * mu),
              (q_at, w_at[:-1], -1.0 / h), (q_at, w_at[1:], 1.0 / h)]
    values = np.concatenate([np.full(row.shape, value) for row, _, value in bands])
    rows, cols, _ = zip(*bands)
    a = scipy.sparse.coo_matrix(
        (values, (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    ).tocsc()
    b_diag = np.zeros(size)
    b_diag[x_at[1:-1]] = b_diag[w_at[1:-1]] = 1.0
    return a, scipy.sparse.diags(b_diag).tocsc()


def _scalar_block(m: int, n: int, friction: Friction, grid_n: int):
    """Symmetric tridiagonal form of the pressure-free tangential block.

    U_perp = (-nU+mV)/mu (or U and V themselves at mu = 0) obeys the same
    stencil and wall rows with no pressure coupling.  Each one-sided wall
    row gives X_0 = c (4 X_1 - X_2) with c = 1/(3 + 2 h beta), which is 0
    on the no-slip wall (beta = inf); substituting it into the first
    interior row leaves a tridiagonal block on the interior nodes whose
    corner off-diagonal product (1-c)/h^4 is positive, so a diagonal
    similarity makes it symmetric.  Returns its diagonal and off-diagonal.
    """
    h = 2.0 / grid_n
    inv_h2 = 1.0 / (h * h)
    c = 1.0 / (3.0 + 2.0 * h * friction.beta)
    diagonal = np.full(grid_n - 1, 2.0 * inv_h2 + float(m * m + n * n))
    diagonal[[0, -1]] -= 4.0 * c * inv_h2
    off = np.full(grid_n - 2, -inv_h2)
    off[[0, -1]] = -math.sqrt(1.0 - c) * inv_h2
    return diagonal, off


def _block_eigs(
    m: int, n: int, friction: Friction, grid_n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unfiltered low eigenvalues of the (scalar, coupled) blocks; the
    scalar ones are repeated at mu = 0, where U and V each obey them."""
    import scipy.linalg
    import scipy.sparse.linalg

    diagonal, off = _scalar_block(m, n, friction, grid_n)
    # the block holds grid_n - 1 values; callers filter to `count` anyway
    top = min(max(count, 1), diagonal.size) - 1
    try:
        scalar = scipy.linalg.eigh_tridiagonal(
            diagonal, off, eigvals_only=True, select="i", select_range=(0, top)
        )
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergence(f"tridiagonal oracle solve failed: {exc}") from exc
    if m == 0 and n == 0:
        return np.repeat(scalar, 2), np.empty(0)

    a, b = _coupled_block(m, n, friction, grid_n)
    # a seeded start vector instead of ARPACK's random one, so that
    # reruns are bitwise identical; k stays below ARPACK's limit of the
    # block size minus one, so an oversized count ends in NonConvergence
    start = np.random.default_rng(0).standard_normal(a.shape[0])
    try:
        coupled = scipy.sparse.linalg.eigs(
            a, k=min(max(count, 1), a.shape[0] - 2), M=b, sigma=-1.0, which="LM",
            v0=start, return_eigenvectors=False,
        )
    except (
        scipy.sparse.linalg.ArpackNoConvergence,
        scipy.sparse.linalg.ArpackError,
        RuntimeError,
    ) as exc:
        raise NonConvergence(f"shift-invert oracle solve failed: {exc}") from exc
    return scalar, coupled


def fd_oracle_eigs(
    m: int,
    n: int,
    friction: Friction,
    grid_n: int,
    count: int = 10,
) -> list[float]:
    """Lowest `count` real eigenvalues of the discretized per-wavenumber system.

    The system splits into two decoupled blocks.  The pressure-free
    tangential block (`_scalar_block`, counted twice at mu = 0, where U
    and V each obey it) is solved by bisection on its symmetric
    tridiagonal form.  The real pressure-coupled block (`_coupled_block`,
    absent at mu = 0, where it has no finite eigenvalue) is solved by
    shift-invert Arnoldi around sigma = -1 from a fixed seeded start
    vector, so reruns are bitwise identical.  Raises NonConvergence when
    either solve fails or fewer than `count` real values come back, and
    InvalidCase for a grid or a count that is not a usable integer.
    """
    check_oracle_grid(grid_n)
    if _number("oracle count", count, integer=True) < 0:
        raise InvalidCase(f"oracle count must be non-negative, got {count!r}")
    raw = np.concatenate(_block_eigs(m, n, friction, grid_n, count))
    values = _filter_real(raw, count)
    if len(values) < count:
        raise NonConvergence(
            f"oracle found only {len(values)} real eigenvalues of {count} requested"
        )
    return values
