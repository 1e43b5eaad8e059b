"""Disc (Zernike) polynomials on the closed unit disk and Jacobi machinery.

The two-index disc polynomial of degrees (m, n) in (z, conj z) at parameter
alpha > -1 is

    R_{m,n}^alpha(z) = z^(m-n) * R_k^(alpha,|m-n|)(2|z|^2 - 1),  k = min(m, n),

where a negative power of z means that power of conj(z), and R_k^(a,b) is the
Jacobi polynomial normalized to 1 at t = 1.  Writing the angular factor as
z^(m-n) instead of r^|m-n| e^(i(m-n)theta) makes the formula exact at z = 0:
for m = n it reduces to the Jacobi value at t = -1, i.e.
R_{n,n}^alpha(0) = (-1)^n n! / (alpha+1)_n, and it vanishes for m != n.

These polynomials form a complete orthogonal system on the disk for the
probability measure dnu_alpha(z) = ((alpha+1)/pi) (1 - |z|^2)^alpha dx dy,
with squared norms 1 / h_{m,n}^alpha (see :func:`disc_norm_h`).

All functions accept scalar or ndarray evaluation points and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: slack on |z| <= 1 and |t| <= 1 to absorb polar/Cartesian rounding
BOUNDARY_EPS = 1e-12


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError(f"pochhammer order must be nonnegative, got {n}")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def _require_index(m: int, n: int, alpha: float) -> None:
    if m < 0 or n < 0:
        raise DomainError(f"disc index must be nonnegative, got (m, n) = ({m}, {n})")
    if not alpha > -1.0:
        raise DomainError(f"disc parameter must exceed -1, got alpha = {alpha}")


def ensure_in_disk(z, eps: float = BOUNDARY_EPS) -> np.ndarray:
    """Return ``z`` as a complex array, rejecting points outside the closed disk."""
    arr = np.asarray(z, dtype=complex)
    # written so that a NaN modulus fails the test too
    if arr.size and not (radius := float(np.max(np.abs(arr)))) <= 1.0 + eps:
        raise DomainError(f"evaluation point outside closed unit disk: max |z| = {radius!r}")
    return arr


def _step_coefficients(j, alpha: float, beta):
    """c1..c4 of step j: c1 P_j = (c2 + c3 t) P_{j-1} - c4 P_{j-2}; j and beta
    may be arrays that broadcast."""
    ab = alpha + beta
    c1 = 2.0 * j * (j + ab) * (2.0 * j + ab - 2.0)
    c2 = (2.0 * j + ab - 1.0) * (alpha * alpha - beta * beta)
    c3 = (2.0 * j + ab - 2.0) * (2.0 * j + ab - 1.0) * (2.0 * j + ab)
    c4 = 2.0 * (j + alpha - 1.0) * (j + beta - 1.0) * (2.0 * j + ab)
    return c1, c2, c3, c4


def _block_plan(live: list[int], row_bytes: int, block_bytes) -> list[tuple[int, int]]:
    """Degree ranges [j0, j1) of the blocks: one block when ``block_bytes`` is
    None, else as many rows as fit in ``block_bytes`` together with the two
    carried rows, at the width live[j0], and never fewer than two rows.  One
    row would reach numpy's matmul as a vector, which BLAS sums in another
    order than a matrix product, so a last single row joins the block before it."""
    end = len(live)
    if block_bytes is None:
        return [(0, end)]
    plan, j0 = [], 0
    while j0 < end:
        j1 = min(end, j0 + max(2, block_bytes // max(1, live[j0] * row_bytes) - 2))
        if j1 == end - 1:
            j1 = end
        plan.append((j0, j1))
        j0 = j1
    return plan


def _jacobi_blocks(kmax: int, alpha: float, beta, t: np.ndarray, top, block_bytes):
    """The ascending three-term recurrence of ``jacobi_R_blocks``, on checked
    arguments.

    One work buffer holds a block's rows, behind the two unnormalized rows the
    block's first steps read when there is more than one block.  Before a
    block is normalized and yielded, its last two rows, unnormalized, are
    copied to the front of the buffer for the next block, which then
    overwrites the rest.
    """
    array_beta = np.ndim(beta) > 0
    if array_beta:
        beta = np.asarray(beta, dtype=float)[:, None]
    width = np.broadcast_shapes(np.shape(beta), t.shape)
    # live[j]: step j writes the prefix [:live[j]] of its row; without top
    # that is the whole row (a scalar beta slices the t axis)
    live = [width[0]] * (kmax + 1)
    if top is not None:
        live = np.sum(top >= np.arange(kmax + 1)[:, None], axis=1).tolist()
    steps = range(2, kmax + 1)
    if array_beta:
        c = _step_coefficients(np.arange(2.0, kmax + 1)[:, None, None], alpha, beta)
        coefs = [[ci[j - 2, : live[j]] for ci in c] for j in steps]
    else:
        coefs = [_step_coefficients(j, alpha, beta) for j in steps]
    # P_j(1) = (alpha+1)_j / j!, accumulated incrementally
    norms = [1.0]
    for j in range(1, kmax + 1):
        norms.append(norms[-1] * ((alpha + j) / j))
    norms = np.reshape(norms, (-1,) + (1,) * len(width))
    cell = math.prod(width[1:])  # values per beta in a row
    plan = _block_plan(live, 8 * cell, block_bytes)
    carry = 2 if len(plan) > 1 else 0
    flat = np.empty(max((j1 - j0 + carry) * live[j0] for j0, j1 in plan) * cell)
    u_buf, v_buf = np.empty(width), np.empty(width)
    for j0, j1 in plan:
        size = live[j0]
        work = flat[: (j1 - j0 + carry) * size * cell].reshape((j1 - j0 + carry, size) + width[1:])
        for i, j in enumerate(range(j0, j1), start=carry):
            n, row = live[j], work[i]
            if j == 0:
                row[:] = 1.0
            elif j == 1:
                b = beta[:n] if array_beta else beta
                row[:n] = 0.5 * ((alpha + b + 2.0) * t + (alpha - b))
            else:
                # ((c2 + c3 t) P_{j-1} - c4 P_{j-2}) / c1 in two work buffers: the
                # same operations in the same order as the one-expression form
                c1, c2, c3, c4 = coefs[j - 2]
                u, v = u_buf[:n], v_buf[:n]
                np.multiply(c3, t, out=u)
                np.add(c2, u, out=u)
                np.multiply(u, work[i - 1, :n], out=u)
                np.multiply(c4, work[i - 2, :n], out=v)
                np.subtract(u, v, out=u)
                np.divide(u, c1, out=row[:n])
            if n < size:
                row[n:] = 0.0
        if j1 <= kmax:
            # the front of the buffer is free, and a block of two or more rows
            # lies wholly behind it
            n = live[j1]
            flat[: 2 * n * cell].reshape((2, n) + width[1:])[...] = work[-2:, :n]
        rows = work[carry:]
        rows /= norms[j0:j1]
        yield j0, rows


def jacobi_R_blocks(kmax: int, alpha: float, beta, t, top=None, block_bytes=None):
    """Normalized Jacobi values R_j(t) = P_j(t)/P_j(1), j = 0..kmax, in blocks
    of consecutive degrees, from one recurrence.

    Returns an iterator of ``(j0, rows)``, where ``rows[i]`` holds degree
    j0 + i.  ``t`` may be scalar or 1-d.  ``beta`` is a scalar (``rows`` of
    shape (n, len(t))) or a 1-d array (shape (n, live, len(t))), every beta
    run through the same step, elementwise with the scalar arithmetic.
    ``top`` (array beta only) gives a nonincreasing top degree per beta; a
    block then holds only the betas whose top reaches its first degree j0,
    a prefix, and its entries above a beta's top are zero.  ``block_bytes``
    None gives one block; otherwise each block holds as many rows as fit in
    about that many bytes, and at least two.  Every block is a view of one
    work buffer that the next block overwrites, so use each before asking
    for the next.  Stable on [-1, 1] over the range tests/test_special.py
    checks: k and beta up to 64, alpha in {0, 1, 2}, error below 1e-13 of
    each row's maximum.
    """
    if kmax < 0:
        raise DomainError(f"degree must be nonnegative, got {kmax}")
    if not (alpha > -1.0 and np.all(np.greater(beta, -1.0))):
        raise DomainError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    if top is not None:
        top = np.asarray(top)
        if not (np.ndim(beta) == 1 and top.shape == np.shape(beta)
                and np.all(np.diff(top) <= 0) and np.all(top >= 0)):
            raise DomainError("top degrees must be nonnegative, nonincreasing and one per beta")
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.size and not (high := float(np.max(np.abs(arr)))) <= 1.0 + BOUNDARY_EPS:
        raise DomainError(f"Jacobi argument outside [-1, 1]: {high!r}")
    return _jacobi_blocks(kmax, alpha, beta, np.clip(arr, -1.0, 1.0), top, block_bytes)


def jacobi_R_all(kmax: int, alpha: float, beta, t, top=None) -> np.ndarray:
    """Normalized Jacobi values R_j(t) = P_j(t)/P_j(1) for all j = 0..kmax.

    ``t`` may be scalar or 1-d; the result has shape (kmax+1, len(t)).  An
    array of ``beta`` runs all of them in one recurrence and gives shape
    (kmax+1, len(beta), len(t)), bit-equal to one call per beta.  With an
    array ``beta``, ``top`` may give a nonincreasing top degree per beta:
    rows up to it are bit-equal to the full pass, and rows above it are zero.
    This is the single block of :func:`jacobi_R_blocks`.
    """
    ((_, rows),) = jacobi_R_blocks(kmax, alpha, beta, t, top)
    return rows


def disc_poly(m: int, n: int, alpha: float, z):
    """Disc polynomial R_{m,n}^alpha at z (scalar or array) in the closed disk."""
    _require_index(m, n, alpha)
    scalar = np.ndim(z) == 0
    arr = ensure_in_disk(z)
    d = m - n
    t = np.clip(2.0 * np.abs(arr) ** 2 - 1.0, -1.0, 1.0)
    radial = jacobi_R_all(min(m, n), alpha, abs(d), t.ravel())[-1].reshape(arr.shape)
    # on the raveled array, so that a scalar z takes the same ufunc path as an array element
    ang = (arr.ravel() ** d if d >= 0 else np.conj(arr.ravel()) ** -d).reshape(arr.shape)
    out = ang * radial
    return complex(out.ravel()[0]) if scalar else out


def disc_poly_at_zero(m: int, n: int, alpha: float) -> float:
    """Exact value of R_{m,n}^alpha at the origin.

    Zero off the diagonal; (-1)^n n! / (alpha+1)_n on it.
    """
    _require_index(m, n, alpha)
    if m != n:
        return 0.0
    return (-1.0) ** n * math.factorial(n) / pochhammer(alpha + 1.0, n)


def libm_each(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.log``) applied to every element of ``x``.

    numpy's exp and log need not round as the C library's do; tables built
    from per-index arrays take them from ``math`` so that every entry equals
    its scalar formula bit for bit.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def _norm_h(m, n, alpha: float, lg_a: float, lg_am, lg_m, lg_an, lg_n):
    # lg_a = lgamma(alpha+1), lg_ak = lgamma(alpha+k+1), lg_k = lgamma(k+1);
    # scalars give a float, index arrays (broadcast together) give an array
    log_binoms = lg_am - lg_a - lg_m + lg_an - lg_a - lg_n
    if isinstance(log_binoms, np.ndarray):
        return (m + n + alpha + 1.0) / (alpha + 1.0) * libm_each(math.exp, log_binoms)
    return (m + n + alpha + 1.0) / (alpha + 1.0) * math.exp(log_binoms)


def disc_norm_h(m: int, n: int, alpha: float) -> float:
    """Orthogonality constant h_{m,n}^alpha.

    h = (m+n+alpha+1)/(alpha+1) * C(alpha+m, alpha) * C(alpha+n, alpha), with the
    generalized binomials C(alpha+k, alpha) = Gamma(alpha+k+1)/(Gamma(alpha+1) k!)
    so non-integer alpha works uniformly.  The squared L^2(dnu_alpha) norm of
    R_{m,n}^alpha is 1/h.
    """
    _require_index(m, n, alpha)
    lg = math.lgamma
    return _norm_h(
        m, n, alpha, lg(alpha + 1.0), lg(alpha + m + 1.0), lg(m + 1.0), lg(alpha + n + 1.0), lg(n + 1.0)
    )


def disc_norm_h_rows(m_max: int, n_max: int, alpha: float) -> np.ndarray:
    """All h_{m,n}^alpha with m <= m_max, n <= n_max as an array ``h[m, n]``.

    Each value equals ``disc_norm_h(m, n, alpha)`` bit for bit; the lgamma
    values are computed once per index and combined over index arrays.
    """
    _require_index(m_max, n_max, alpha)
    lg = math.lgamma
    ks = range(max(m_max, n_max) + 1)
    lg_ak = np.array([lg(alpha + k + 1.0) for k in ks])
    lg_k = np.array([lg(k + 1.0) for k in ks])
    m = np.arange(m_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    return _norm_h(m, n, alpha, lg(alpha + 1.0), lg_ak[m], lg_k[m], lg_ak[n], lg_k[n])


def c_denominator(alpha: float) -> float:
    """The denominator alpha + 1 of c_alpha, after checking alpha > -1."""
    if not alpha > -1.0:
        raise DomainError(f"parameter must exceed -1, got alpha = {alpha}")
    return alpha + 1.0
