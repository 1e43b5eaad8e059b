"""Quadrature on the unit disk for dnu_alpha, and coefficient extraction.

The measure dnu_alpha = ((alpha+1)/pi) (1-|z|^2)^alpha dx dy factorizes in
polar coordinates.  Substituting u = 2r^2 - 1 maps the radial integral

    int_0^1 g(r) (1-r^2)^alpha r dr  =  2^(-alpha-2) int_{-1}^{1} g(r(u)) (1-u)^alpha du,

a pure Gauss-Jacobi integral with weight (1-u)^alpha, which also matches the
Jacobi argument 2r^2-1 inside the disc polynomials and avoids endpoint
singularity handling for -1 < alpha < 0.  Angular nodes are equispaced with
equal weights (exact for trigonometric polynomials of degree < angular_order),
so the angular sums of :func:`expand` are one FFT per radial node.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError, DiscWalkError, DomainError
from .special import disc_norm_h_rows, ensure_in_disk, jacobi_R_all, jacobi_R_blocks
from .tables import CoefficientTable


@dataclass
class DiskRule:
    """Tensor quadrature rule for dnu_alpha; immutable after construction.

    Combined weights are normalized so they sum to one (the measure is a
    probability measure); all nodes are strictly inside the open disk.  The
    radial weights are read-only: every rule of one radial order and alpha
    built in a process shares them (see ``_gauss_jacobi``).
    """

    alpha: float
    radial_order: int
    angular_order: int
    radial_nodes: np.ndarray    # r_i in (0, 1)
    radial_weights: np.ndarray  # sums to ~1; angular weights are uniform 1/K
    angular_nodes: np.ndarray   # theta_k = 2 pi k / K

    @property
    def nodes(self) -> np.ndarray:
        """All nodes r_i * exp(i theta_k), flattened row-major (radial outer)."""
        return self.grid().ravel()

    @property
    def weights(self) -> np.ndarray:
        w = np.outer(self.radial_weights, np.full(self.angular_order, 1.0 / self.angular_order))
        return w.ravel()

    def grid(self) -> np.ndarray:
        return self.radial_nodes[:, None] * np.exp(1j * self.angular_nodes)[None, :]


#: largest radial order whose dense n x n Jacobi matrix is built: at the
#: budget, the matrix and eigvalsh's copy of it take about 65 MB and 1.3 s
_RADIAL_BUDGET = 2048

#: most nodes (radial x angular) in one rule: the largest default rule,
#: 2048 x 4088, fits; at the budget the node grid and the kernel's values on
#: it take about 134 MB each
_NODE_BUDGET = 1 << 23

#: bytes of Jacobi rows one block of ``expand``'s radial sums holds: at
#: D <= 32 the whole table is one block
_BLOCK_BYTES = 1 << 20

#: radial rules kept per process: at most _RADIAL_BUDGET nodes and weights
#: each, so at most 32 KB per rule and 2 MB in all
_RULE_CACHE = 64


def _memo_by_bits(fn):
    """``fn(n, alpha)`` under an LRU cache keyed on alpha's bits, so -0.0 and
    0.0 stay apart (``lru_cache`` alone would give both one entry).  A refusal
    is raised anew on every call."""

    @functools.lru_cache(maxsize=_RULE_CACHE)
    def by_bits(n: int, bits: str):
        return fn(n, float.fromhex(bits))

    @functools.wraps(fn)
    def memo(n: int, alpha: float):
        return by_bits(n, alpha.hex())

    memo.cache_info = by_bits.cache_info
    memo.cache_clear = by_bits.cache_clear
    return memo


@_memo_by_bits
def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and unit-mass weights of the n-point Gauss rule for
    the weight (1-u)^alpha on [-1, 1] (Golub-Welsch, polished).

    The nodes are the eigenvalues of the Jacobi matrix of P_k^(alpha,0),
    refined by one Newton step on P_n.  P_n / P_{n-1} comes from one pass of
    the matrix's own (monic) three-term recurrence, carried as a ratio
    rescaled to y_{k+1} = e_k - 1/y_k, so no value over- or underflows, and

        (2n+alpha)(1-u^2) P_n' = n(alpha - (2n+alpha)u) P_n + 2n(n+alpha) P_{n-1}.

    The weights are proportional to 1 / ((1-u_i^2) prod_{j != i} (u_i-u_j)^2),
    which needs only the nodes; the products are summed as logs.

    Both arrays are read-only, because the memo hands them to every caller.
    """
    # at huge alpha the nodes crowd at -1 and coincide in floating point;
    # such a rule is refused below, so its warnings are not printed
    with np.errstate(all="ignore"):
        k = np.arange(1.0, n)
        s = 2.0 * k + alpha
        off2 = 4.0 * (k * (k + alpha) / s) ** 2 / ((s - 1.0) * (s + 1.0))
        diag = np.concatenate(([-alpha / (alpha + 2.0)], -alpha * alpha / (s * (s + 2.0))))
        buf = np.zeros((n, n))  # the Jacobi matrix (lower half), then work space
        flat = buf.ravel()
        flat[:: n + 1] = diag
        flat[n :: n + 1] = np.sqrt(off2)
        try:
            u = np.linalg.eigvalsh(buf)
        except np.linalg.LinAlgError:  # the matrix overflowed: refused below
            u = np.full(n, np.nan)

        # pi_{k+1} = (u - diag_k) pi_k - off2_k pi_{k-1}; with lam_1 = 1 and
        # lam_{k+1} = off2_k / lam_k, y_k = pi_k / (lam_k pi_{k-1}) has unit off2_k
        lam = [1.0]
        for b2 in off2:  # numpy scalars: an off2 that underflowed gives inf, refused below
            lam.append(b2 / lam[-1])
        inv = 1.0 / np.array(lam[1:])
        e = np.multiply.outer(inv, u, out=buf[1:])
        e -= (diag[1:] * inv)[:, None]
        y = u - diag[0]
        for row in e:  # y = 0 passes through 1/y = inf exactly
            np.reciprocal(y, out=y)
            np.subtract(row, y, out=y)
        m = 2.0 * n + alpha
        ratio = m * (m - 1.0) / (2.0 * n * (n + alpha)) * lam[-1] * y  # P_n / P_{n-1}
        u -= m * (1.0 - u) * (1.0 + u) * ratio / (n * (alpha - m * u) * ratio + 2.0 * n * (n + alpha))

        d = np.subtract.outer(u, u, out=buf)
        np.fill_diagonal(d, 1.0)
        width = n
        for _ in range(3):  # products of up to 8 differences: one log per 8
            half = width // 2
            np.multiply(d[:, :half], d[:, width - half : width], out=d[:, :half])
            width -= half
        log_w = -np.log((1.0 - u) * (1.0 + u)) - 2.0 * np.log(np.abs(d[:, :width])).sum(axis=1)
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
    if not (-1.0 < u[0] and u[-1] < 1.0 and np.all(np.diff(u) > 0) and np.all(np.isfinite(w) & (w >= 0))):
        raise DomainError(
            f"no radial rule of order {n} at alpha = {alpha!r}: its nodes or weights "
            "degenerate in floating point"
        )
    u.flags.writeable = w.flags.writeable = False
    return u, w


def build_rule(alpha: float, radial_order: int, angular_order: int) -> DiskRule:
    """Gauss-Jacobi (radial) x equispaced-trapezoid (angular) rule for dnu_alpha.

    A radial order over ``_RADIAL_BUDGET``, or more than ``_NODE_BUDGET``
    nodes, raises ``CapacityError`` before anything is allocated.
    """
    if not alpha > -1.0:
        raise DomainError(f"measure parameter must exceed -1, got alpha = {alpha}")
    if any(isinstance(o, bool) or not isinstance(o, numbers.Integral) for o in (radial_order, angular_order)):
        raise DomainError(f"quadrature orders must be integers, got {radial_order!r} and {angular_order!r}")
    if radial_order < 1 or angular_order < 1:
        raise DomainError("quadrature orders must be at least 1")
    if radial_order > _RADIAL_BUDGET:
        raise CapacityError(f"radial order {radial_order} exceeds the Jacobi matrix budget of {_RADIAL_BUDGET}")
    if int(radial_order) * int(angular_order) > _NODE_BUDGET:  # Python ints: numpy ones could wrap
        raise CapacityError(
            f"rule of {radial_order} x {angular_order} nodes exceeds the node budget of {_NODE_BUDGET}"
        )
    u, radial_w = _gauss_jacobi(int(radial_order), float(alpha))
    return DiskRule(
        alpha=float(alpha),
        radial_order=int(radial_order),
        angular_order=int(angular_order),
        radial_nodes=np.sqrt((1.0 + u) / 2.0),
        radial_weights=radial_w,
        angular_nodes=2.0 * np.pi * np.arange(angular_order) / angular_order,
    )


def default_rule(alpha: float, m_max: int, n_max: int,
                 radial_order: int | None = None, angular_order: int | None = None) -> DiskRule:
    """Rule sized for exact extraction up to (m_max, n_max), with a safety margin;
    an order given explicitly replaces its default."""
    deg = m_max + n_max
    radial = deg + 8 if radial_order is None else radial_order
    angular = 2 * deg + 8 if angular_order is None else angular_order
    return build_rule(alpha, radial, angular)


def _values_on(f, z: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of points in one call.

    ``f`` must accept an ndarray of points and return values of the same
    shape; a scalar result (a constant kernel) is broadcast into a new array.
    A complex array of the right shape is returned as it is, not copied, so
    callers only read it.  A :class:`DiscWalkError` raised by ``f``
    propagates unchanged; any other failure to evaluate on an array is a
    :class:`DomainError`.
    """
    try:
        out = f(z)
    except DiscWalkError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"kernel callable must accept an ndarray of points: {exc}") from exc
    try:
        vals = np.asarray(out, dtype=complex)
        return vals if vals.shape == z.shape else np.array(np.broadcast_to(vals, z.shape))
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"kernel callable returned shape {np.shape(out)} for {z.shape} points"
        ) from exc


def _check_capacity(rule: DiskRule, m_max: int, n_max: int) -> None:
    deg = m_max + n_max
    if rule.radial_order < deg + 2 or rule.angular_order < 2 * deg + 1:
        raise CapacityError(
            f"rule (radial {rule.radial_order}, angular {rule.angular_order}) cannot "
            f"extract up to (m_max, n_max) = ({m_max}, {n_max}); need radial >= {deg + 2} "
            f"and angular >= {2 * deg + 1}"
        )


def _fourier_stack(f, rule: DiskRule, high: int) -> np.ndarray:
    """The angular phase of :func:`expand`: the Fourier sums of frequencies
    +|d| and -|d|, |d| <= high, each scaled by r^|d| and the radial weights,
    as a real (|d|, R, 4) stack of (Re +|d|, Im +|d|, Re -|d|, Im -|d|).
    The kernel values and their FFT are freed on return, before the radial
    sums."""
    # sum_k f(r, theta_k) e^{-i d theta_k} / K is FFT bin d mod K; the capacity
    # check makes K > 2 high, so the bins of +-|d| are distinct
    K = rule.angular_order
    fourier = np.fft.fft(_values_on(f, rule.grid()), axis=1)  # (R, K)
    betas = np.arange(high + 1)
    scale = rule.radial_nodes ** betas[:, None] * (rule.radial_weights / K)
    # the complex products of +|d| and -|d| side by side are the stack's 4 reals
    both = np.empty((high + 1, rule.radial_order, 2), dtype=complex)
    np.multiply(fourier[:, : high + 1].T, scale, out=both[..., 0])
    np.multiply(fourier[:, -betas % K].T, scale, out=both[..., 1])
    return both.view(float)


def expand(f, alpha: float, m_max: int, n_max: int, rule: DiskRule | None = None) -> CoefficientTable:
    """Extract all coefficients with m <= m_max, n <= n_max of f at parameter alpha.

    ``f`` is called once, on the (radial, angular) node grid, and must accept
    ndarray input.  Equivalent to one Gauss sum per index (``expand_loop`` in
    tests/helpers.py), but exploits the tensor structure of the rule: one FFT
    over the angular nodes gives every Fourier sum (frequency d = m - n in bin
    d mod K), and r^|d| and the radial weights scale the columns of +-|d|.
    One Jacobi recurrence then runs for every |d| at once, each |d| only up
    to the degree it reads, and yields its rows in blocks of consecutive
    degrees (``jacobi_R_blocks``); each block, as soon as it is built, goes
    through one batched product with the scaled columns of the |d| it holds,
    which gives those degrees' radial Gauss sums.  Memory is O(D^2) for
    D = max(m_max, n_max): the kernel values on the grid, and one block of
    about ``_BLOCK_BYTES`` (at least two degrees).  Every block has two or
    more rows, so the sums are bit-equal to one product of the whole Jacobi
    table (``expand_one_block`` in tests/helpers.py).  They round
    differently from the per-entry ones, within a few eps times
    h_{m,n} sum_i |w_i f(z_i)|.

    The capacity check guarantees exactness for polynomial f up to the table
    degrees; for non-polynomial f the rule must also resolve f's own spectrum
    (angular modes beyond angular_order alias into the table), so slowly
    decaying kernels need larger orders than the default.
    """
    if m_max < 0 or n_max < 0:
        raise DomainError("expansion bounds must be nonnegative")
    if rule is None:
        rule = default_rule(alpha, m_max, n_max)
    if abs(rule.alpha - alpha) > 1e-12:
        raise DomainError(f"rule has alpha = {rule.alpha}, requested {alpha}")
    _check_capacity(rule, m_max, n_max)

    high, kmax = max(m_max, n_max), min(m_max, n_max)
    stack = _fourier_stack(f, rule, high)
    # frequency d reads rows k < k_d only, so |d| needs degrees up to
    # min(high - |d|, kmax); sums[|d|, k] above that stays unread
    betas = np.arange(high + 1)
    t = np.clip(2.0 * rule.radial_nodes**2 - 1.0, -1.0, 1.0)
    sums = np.zeros((high + 1, kmax + 1, 4))
    for j0, rows in jacobi_R_blocks(kmax, alpha, betas, t, np.minimum(high - betas, kmax), _BLOCK_BYTES):
        live = rows.shape[1]  # rows is (k, |d|, R), holding the |d| that read degree j0
        np.matmul(rows.transpose(1, 0, 2), stack[:live], out=sums[:live, j0 : j0 + len(rows)])
    acc = np.stack([sums[..., 0] + 1j * sums[..., 1], sums[..., 2] + 1j * sums[..., 3]])

    m = np.arange(m_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    # acc[sign of d, |d|, k] holds the sum of every (m, n) with m - n = d, min(m, n) = k
    values = disc_norm_h_rows(m_max, n_max, alpha) * acc[(m < n).astype(int), np.abs(m - n), np.minimum(m, n)]
    entries = dict(zip(product(range(m_max + 1), range(n_max + 1)), values.ravel().tolist()))
    return CoefficientTable._of_clean(float(alpha), entries, "extracted")


def synthesize(table: CoefficientTable, z):
    """Finite sum  sum a_{m,n} R_{m,n}^alpha(z)  of a coefficient table.

    Accepts scalar or array z.  Entries are grouped by angular frequency
    d = m - n, and d and -d share one Jacobi recurrence (beta = |d|) up to the
    larger degree either reads: rows up to k do not depend on the top degree.
    The radial sum of -d waits, one value per point, until its turn, so the
    frequencies are added in table order, bit for bit as with one recurrence
    per d.
    """
    scalar = np.ndim(z) == 0
    arr = ensure_in_disk(z)
    out = np.zeros(arr.shape, dtype=complex)
    if table.entries:
        t = np.clip(2.0 * np.abs(arr.ravel()) ** 2 - 1.0, -1.0, 1.0)
        by_freq: dict[int, list[tuple[int, complex]]] = {}
        for (m, n), v in table.entries.items():
            by_freq.setdefault(m - n, []).append((min(m, n), v))
        flat = np.zeros(arr.size, dtype=complex)
        a_flat = arr.ravel()
        radials: dict[int, np.ndarray] = {}
        for d in by_freq:
            if d not in radials:
                pair = {d, -d} & by_freq.keys()
                kmax = max(k for e in pair for k, _ in by_freq[e])
                rows = jacobi_R_all(kmax, table.alpha, abs(d), t)
                for e in pair:
                    radials[e] = radial = np.zeros(arr.size, dtype=complex)
                    for k, v in by_freq[e]:
                        radial += v * rows[k]
            ang = a_flat**d if d >= 0 else np.conj(a_flat) ** (-d)
            flat += ang * radials.pop(d)
        out = flat.reshape(arr.shape)
    return complex(out.ravel()[0]) if scalar else out


def require_bound(name: str, value: float) -> None:
    """Refuse a tolerance or threshold that is negative, infinite or NaN."""
    if not 0.0 <= value < np.inf:  # a NaN fails both comparisons
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")


def nonnegativity_gate(table: CoefficientTable, tol: float) -> tuple[np.ndarray, list]:
    """The entries as one array, and those with |Im| > tol, Re < -tol or a NaN:
    one numpy pass, then the sorted per-entry scan only if that pass fails."""
    require_bound("tolerance", tol)
    vals = np.fromiter(table.entries.values(), dtype=complex, count=len(table.entries))
    if ((np.abs(vals.imag) <= tol) & (vals.real >= -tol)).all():
        return vals, []
    return vals, table.nonnegativity_violations(tol)


def coefficient_sum(table: CoefficientTable, tol: float = 1e-10) -> float:
    """Sum of the (real, nonnegative) coefficients of a table.

    For expansions with nonnegative coefficients the full sum equals the
    synthesized value at z = 1, which makes partial sums a convergence
    diagnostic for truncations.  Entries with imaginary part beyond ``tol`` or
    real part below ``-tol``, and NaN entries, are rejected, and so is a
    negative, infinite or NaN ``tol``.
    """
    vals, bad = nonnegativity_gate(table, tol)
    if bad:
        head = ", ".join(f"({m},{n})={v}" for m, n, v in bad[:4])
        raise DomainError(f"coefficient_sum requires real nonnegative entries; offending: {head}")
    # Python's sum of the list, so the total keeps the bits of a sum in table order
    return float(sum(vals.real.tolist()))
