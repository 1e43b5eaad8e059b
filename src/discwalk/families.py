"""Parametric families of positive definite kernels on complex spheres.

Six families with closed forms on the disk and exact disc-polynomial
expansions, used as ground-truth fixtures everywhere else:

* ``product``:     z^m conj(z)^n = sum_{j <= min(m,n)} c_j R_{m-j,n-j} (Rodrigues, DLMF 18.18):
                   c_j = h_{m-j,n-j} Gamma(alpha+2) m! n! / (j! Gamma(m+n-j+alpha+2)) > 0.
* ``poisson``:     (1/sigma_2q) (1-r^2)^q / |1 - r z|^(2q), coefficients positive for r > 0:
                   a_{m,n} = (h_{m,n}/sigma_2q) r^(m+n) 2F1(m, n; m+n+q; r^2) Gamma(m+q) Gamma(n+q)
                   / (Gamma(q) Gamma(m+n+q)): the geometric series of |1 - r z|^(-2q) in the product
                   coefficients, Euler's transformation (DLMF 15.8.1), Gauss's sum (DLMF 15.4.20).
* ``exponential``: e^(z + conj z); every coefficient strictly positive:
                   a_{m,n} = h_{m,n}^{q-2} (q-1)! * sum_j 1/(j! (m+n+q-1+j)!)
                   = (q-1)_m (q-1)_n / ((q-1)_{m+n} m! n!) * S(m+n+q-1),
                   S(nu) = sum_j nu!/(j! (nu+j)!) = nu! I_nu(2) (DLMF 10.25.2).
* ``aktas``:       generating-function kernel with coefficients
                   (q-1)_n t^(m+n)/(m! n!) at table key (m+n, n), 0 < t < 1.
* ``horn``:        double hypergeometric (H4-type) kernel, coefficients
                   (q+n-1)_m (b)_n t^n s^m/(m! n!) at key (m, m+n).
* ``lauricella``:  triple hypergeometric (F14-type) kernel, coefficients
                   (q-1)_n (b)_m t^m s^n/(m! n!) at key (m+n, n).

Each family is one class (see ``FamilySpec``); the module functions dispatch to it.
Both hypergeometric kernels are evaluated in closed form.  Lauricella's F14
series sums to an elementary kernel (Euler's and Pfaff's transformations, the
Jacobi generating function, the binomial series):
D^-1 ((1+s+D)/(1+s-2s|z|^2+D))^(q-2) (1 - 2tz/(1+s+D))^-b, D = sqrt((1+s)^2 - 4s|z|^2).
Horn's H4 kernel at b = q - 1 is S^-1 ((v+S)/2)^(2-q), v = 1 - s - t conj(z),
S^2 = v^2 + 4s(1 - |z|^2); for b < q - 1 it is a Beta mean of that form, which an
exact Gauss rule sums, and for b > q - 1 a Taylor coefficient of a generating
function in b that is that form again, summed from binomial series.
Closed-form coefficient tables take their factorial and Pochhammer ratios in
log space, so large tables underflow to zero instead of overflowing; the product
table takes them as exact integer ratios, each entry correctly rounded.  The
Exponential, Aktas, Horn and Lauricella tables are built from per-index arrays:
each lgamma value and Exponential's inner series once per index, then one array
expression per table in the operand order of the per-entry formula, and one
``math.exp`` per entry.  Every entry equals that formula's value bit for bit (the
test suite keeps the per-entry loop as its reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .errors import CapacityError, ConvergenceError, DomainError
from .positivity import IndexSet
from .quadrature import _RADIAL_BUDGET, _gauss_jacobi
from .special import disc_norm_h_rows, ensure_in_disk, libm_each
from .tables import CoefficientTable, read_index

#: largest q of sigma_2q: (q - 1)! is a finite float up to q = 171
_SIGMA_Q_MAX = 171
#: the difference set of a table with every coefficient positive: all of Z
_ALL_OF_Z = IndexSet.of(progressions=[(0, 1), (0, -1)])


def sigma_2q(q: int) -> float:
    """Total surface measure of the unit sphere of C^q (= S^{2q-1} in R^{2q})."""
    if q < 1:
        raise DomainError(f"sphere parameter must be >= 1, got q = {q}")
    if q > _SIGMA_Q_MAX:
        raise DomainError(f"sphere measure sigma_2q needs q <= {_SIGMA_Q_MAX}, got q = {q}")
    return 2.0 * math.pi**q / math.factorial(q - 1)


#: family name -> class, filled in as each family class is defined
_FAMILIES: dict[str, type[FamilySpec]] = {}


class FamilySpec:
    """A kernel family: a frozen dataclass of ``int``/``float`` fields with ``q: int``, found
    by its class attribute ``name``.  It gives its closed form ``evaluate(z)`` at points in the
    disk, its exact ``coefficients(m_max, n_max)`` as (m, n) -> complex, and ``pattern``, the
    difference set of its untruncated support; ``_check()`` refuses parameters off its domain."""

    name = ""

    def __init_subclass__(cls) -> None:
        if "name" in vars(cls):  # a subclass that keeps its parent's name does not replace it
            _FAMILIES[cls.name] = cls

    def __post_init__(self) -> None:
        q = self.q
        if q != int(q) or q < 2:
            raise DomainError(f"family requires an integer q >= 2, got {q!r}")
        try:
            float(q - 2)  # family_alpha
        except OverflowError:
            raise DomainError(
                f"family requires q - 2 within the float range, got a {q.bit_length()}-bit q"
            ) from None
        self._check()

    def _check(self) -> None:
        pass


@dataclass(frozen=True)
class ProductKernel(FamilySpec):
    name = "product"
    m: int
    n: int
    q: int

    def _check(self) -> None:
        if self.m < 0 or self.n < 0:
            raise DomainError(f"monomial powers must be nonnegative, got ({self.m}, {self.n})")

    def evaluate(self, z):
        return z**self.m * np.conj(z) ** self.n

    def coefficients(self, m_max: int, n_max: int) -> dict:
        # c_j = h_{m-j,n-j} m! n! / (j! (alpha+2)_{m+n-j}) with h = (mu+nu+alpha+1)/(alpha+1)
        # C(alpha+mu, alpha) C(alpha+nu, alpha): a ratio of exact integers, as alpha = q - 2 is one
        m, n, a, entries = self.m, self.n, self.q - 2, {}
        for j in range(min(m, n), max(0, m - m_max, n - n_max) - 1, -1):
            mu, nu = m - j, n - j
            h = (mu + nu + a + 1) * math.comb(a + mu, a) * math.comb(a + nu, a)
            den = (a + 1) * math.factorial(j) * math.prod(range(a + 2, a + 2 + m + n - j))
            entries[(mu, nu)] = complex(h * math.factorial(m) * math.factorial(n) / den)
        return entries

    @property
    def pattern(self) -> IndexSet:
        return IndexSet.of(finite=[self.m - self.n])


@dataclass(frozen=True)
class PoissonSzego(FamilySpec):
    name = "poisson"
    r: float
    q: int

    def _check(self) -> None:
        sigma_2q(self.q)  # refuses a q whose sphere measure is not computed
        if not 0.0 <= self.r < 1.0:
            raise DomainError(f"radius must satisfy 0 <= r < 1, got r = {self.r}")

    def evaluate(self, z):
        q = self.q
        return ((1.0 - self.r**2) ** q / np.abs(1.0 - self.r * z) ** (2 * q) / sigma_2q(q)).astype(complex)

    def _profile(self, m_max: int, n_max: int) -> np.ndarray:
        """Radial profile S_{m,n}(r) = a_{m,n} sigma_2q / h_{m,n} as an array ``S[m, n]``:
        r^(m+n) 2F1(m, n; m+n+q; r^2) / 2F1(m, n; m+n+q; 1)."""
        m, n = np.arange(m_max + 1)[:, None], np.arange(n_max + 1)[None, :]
        lp = _log_poch(float(self.q), m_max + n_max)
        # 1/2F1(m, n; m+n+q; 1) = (q)_m (q)_n / (q)_{m+n}; its log is exactly 0 where m n = 0
        return self.r ** (m + n) * np.exp(lp[m] + lp[n] - lp[m + n] + _log_hyp(m, n, self.q, self.r**2))

    def coefficients(self, m_max: int, n_max: int) -> dict:
        if self.r == 0.0:  # the constant kernel 1/sigma_2q
            m_max = n_max = 0
        h = disc_norm_h_rows(m_max, n_max, family_alpha(self))
        return _grid_entries((h / sigma_2q(self.q) * self._profile(m_max, n_max)).astype(complex))

    @property
    def pattern(self) -> IndexSet:
        return _ALL_OF_Z if self.r else IndexSet.of(finite=[0])


@dataclass(frozen=True)
class Exponential(FamilySpec):
    name = "exponential"
    pattern = _ALL_OF_Z
    q: int

    def evaluate(self, z):
        return np.exp(2.0 * np.real(z)).astype(complex)

    def coefficients(self, m_max: int, n_max: int) -> dict:
        # a_{m,n} = h_{m,n}^{q-2} (q-1)! sum_j 1/(j! (m+n+q-1+j)!)
        #         = h (q-1)!/nu! * sum_j nu!/(j! (nu+j)!),  nu = m+n+q-1, and
        # h (q-1)!/nu! = (q-1)_m (q-1)_n / ((q-1)_{m+n} m! n!): one exp per entry of
        # a log-space ratio, so that no factorial overflows
        q = self.q
        series = np.array([_exponential_series(nu) for nu in range(q - 1, m_max + n_max + q)])
        lp, lg = _log_poch(q - 1.0, m_max + n_max), _lgammas(1.0, max(m_max, n_max))
        m, n = np.arange(m_max + 1)[:, None], np.arange(n_max + 1)[None, :]
        log_scale = lp[m] - lg[m] + lp[n] - lg[n] - lp[m + n]
        return _grid_entries((libm_each(math.exp, log_scale) * series[m + n]).astype(complex))


@dataclass(frozen=True)
class Aktas(FamilySpec):
    name = "aktas"
    pattern = IndexSet.of(progressions=[(0, 1)])
    t: float
    q: int

    def _check(self) -> None:
        if not 0.0 < self.t < 1.0:
            raise DomainError(f"parameter must satisfy 0 < t < 1, got t = {self.t}")

    def evaluate(self, z):
        t = self.t
        big = np.sqrt(1.0 - 2.0 * (2.0 * np.abs(z) ** 2 - 1.0) * t + t * t)
        return (1.0 / big) * (2.0 / (1.0 - t + big)) ** (self.q - 2) * np.exp(2.0 * t * z / (1.0 + t + big))

    def coefficients(self, m_max: int, n_max: int) -> dict:
        key_n, key_m = _triangle(min(n_max, m_max), m_max)  # series index (m, n) at key (m+n, n)
        m, n = key_m - key_n, key_n
        lg_fact, lp_q = _lgammas(1.0, m_max), _log_poch(self.q - 1.0, m_max)
        return _exp_entries(key_m, key_n, lp_q[n] + key_m * math.log(self.t) - lg_fact[m] - lg_fact[n])


@dataclass(frozen=True)
class Horn(FamilySpec):
    name = "horn"
    pattern = IndexSet.of(progressions=[(0, -1)])
    t: float
    s: float
    b: int
    q: int

    def _check(self) -> None:
        if self.b < 1 or self.b != int(self.b):
            raise DomainError(f"parameter b must be a positive integer, got {self.b!r}")
        # every coefficient is positive and they sum to (1-s)^(1-q) (1 - t/(1-s))^-b
        if not (0.0 < self.s < 1.0 and 0.0 < self.t < 1.0 - self.s):
            raise DomainError(
                f"parameters must satisfy 0 < s < 1 and 0 < t < 1 - s, got t = {self.t}, s = {self.s}"
            )

    def evaluate(self, z):
        # (1-s)^(1-q) H4(s(|z|^2-1)/(1-s)^2, t conj(z)/(1-s)), taken homogeneous in c = 1 - s
        xs, ys = self.s * (np.abs(z) ** 2 - 1.0), self.t * np.conj(z)
        return _horn_h4(self.q - 1.0, float(self.b), xs, ys, 1.0 - self.s)

    def coefficients(self, m_max: int, n_max: int) -> dict:
        key_m, key_n = _triangle(min(m_max, n_max), n_max)  # series index (m, n) at key (m, m+n)
        m, n = key_m, key_n - key_m
        # (q+n-1)_m = Gamma(q-1+(m+n)) / Gamma(q-1+n): one lgamma per value of m+n
        lg_fact, lg_q = _lgammas(1.0, n_max), _lgammas(self.q - 1.0, n_max)
        lp_b = _log_poch(float(self.b), n_max)
        log_a = (
            (lg_q[key_n] - lg_q[n]) + lp_b[n] + n * math.log(self.t) + m * math.log(self.s)
            - lg_fact[m] - lg_fact[n]
        )
        return _exp_entries(key_m, key_n, log_a)


@dataclass(frozen=True)
class Lauricella(FamilySpec):
    name = "lauricella"
    pattern = IndexSet.of(progressions=[(0, 1)])
    t: float
    s: float
    b: int
    q: int

    def _check(self) -> None:
        if self.b < 1 or self.b != int(self.b):
            raise DomainError(f"parameter b must be a positive integer, got {self.b!r}")
        # every coefficient is positive and they sum to (1-s)^(1-q) (1-t)^-b
        if not (0.0 < self.s < 1.0 and 0.0 < self.t < 1.0):
            raise DomainError(
                f"parameters must satisfy 0 < s < 1 and 0 < t < 1, got t = {self.t}, s = {self.s}"
            )

    def evaluate(self, z):
        r2 = np.abs(z) ** 2
        return _lauricella_f14(self.q - 1.0, float(self.b), self.s * (r2 - 1.0), self.t * z, self.s * r2)

    def coefficients(self, m_max: int, n_max: int) -> dict:
        key_n, key_m = _triangle(min(n_max, m_max), m_max)  # series index (m, n) at key (m+n, n)
        m, n = key_m - key_n, key_n
        lg_fact, lp_q = _lgammas(1.0, m_max), _log_poch(self.q - 1.0, m_max)
        lp_b = _log_poch(float(self.b), m_max)
        log_a = (
            lp_q[n] + lp_b[m] + m * math.log(self.t) + n * math.log(self.s)
            - lg_fact[m] - lg_fact[n]
        )
        return _exp_entries(key_m, key_n, log_a)


def family_alpha(spec: FamilySpec) -> float:
    return float(spec.q - 2)


def _read_param(name: str, key: str, read, value):
    try:
        return read(value)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"bad parameter {key!r} for family {name!r}: {exc}") from exc


def make_family(name: str, q: int, params: dict | None = None) -> FamilySpec:
    """Family ``name``; ``q`` and every field are read as their declared type."""
    cls = _FAMILIES.get(name)
    if cls is None:
        raise DomainError(f"unknown family {name!r}")
    params = dict(params or {})
    try:
        for f in fields(cls):
            if f.name != "q":
                read = read_index if f.type == "int" else float
                params[f.name] = _read_param(name, f.name, read, params.pop(f.name))
        return cls(q=_read_param(name, "q", read_index, q), **params)
    except KeyError as exc:
        raise DomainError(f"family {name!r} is missing required parameter {exc}") from exc
    except TypeError as exc:
        raise DomainError(f"bad parameters for family {name!r}: {exc}") from exc


def family_to_dict(spec: FamilySpec) -> dict:
    params = {
        k: v for k, v in spec.__dict__.items() if k != "q"
    }
    return {"family": spec.name, "q": spec.q, "params": params}


def family_from_dict(doc: dict) -> FamilySpec:
    try:
        return make_family(str(doc["family"]), doc["q"], doc.get("params", {}))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"malformed family document: {exc}") from exc


# --------------------------------------------------------------------------
# closed-form evaluation


def _flat_broadcast(*args):
    """Broadcast arguments to flat float or complex arrays; also the output shape."""
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=np.result_type(a, float)) for a in args))
    return [a.ravel() for a in arrs], arrs[0].shape


#: most Taylor terms of one Horn evaluation at b >= q - 1: it costs O(terms^2) per point for
#: q > 2; at 1024 terms one point takes about 27 ms and a grid-41 plot (1257 points) 10 s
_HORN_TERMS = 1024
#: Taylor coefficients held at once (points x terms) by Horn's sum at b >= q - 1
_HORN_BLOCK = 2**16


def _beta_rule(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the Beta(b, a-b) law on [0, 1], exact up to degree a - 2: the larger
    exponent is the Jacobi weight, the smaller one (d) is folded into the weights."""
    p1, p2 = b - 1, a - b - 1
    d = min(p1, p2)
    u, w = _gauss_jacobi((a + d) // 2, float(max(p1, p2)))  # 2n - 1 >= (a - 2) + d
    near = (1.0 + u) / 2.0  # the variable whose exponent is d
    return (near if p1 <= p2 else 1.0 - near), math.comb(a - 1, d) * w * near**d


def _binomial_rows(p: float, a0, a1, terms: int):
    """Taylor coefficients of (a0 - a1 lam)^p up to lam^(terms-1), a row per point; principal a0^p."""
    n = np.arange(1.0, terms)
    return np.cumprod(np.hstack([a0[:, None] ** p, np.outer(-a1 / a0, (p + 1.0 - n) / n)]), axis=1)


def _coefficient(f, g, n: int):
    """lam^n coefficient of the products of the rows of Taylor coefficients f and g."""
    return (f[:, : n + 1] * g[:, n::-1]).sum(axis=1)


def _h4_above(a: float, k: int, x, y, c: float):
    """H4 at b = a + k, k >= 0, over 1-d arrays: the lam^k coefficient of G (see ``_horn_h4``)."""
    r2 = 2.0 * np.sqrt(x + 0j)
    ends = (c - y - r2, c - r2), (c - y + r2, c + r2)  # A- and A+ at lam = 0, and their slopes
    lo, hi = (_binomial_rows(-0.5, *e, k + 1) for e in ends)
    if a > 1:
        u = sum(_binomial_rows(0.5, *e, k + 1) for e in ends) / 2.0
        p, g = 2.0 - 2.0 * a, np.empty_like(u)
        g[:, 0] = u[:, 0] ** p
        for n in range(1, k + 1):  # J. C. P. Miller's recurrence for u^p
            du = ((p + 1.0) * np.arange(1, n + 1) - n) * u[:, 1 : n + 1]
            g[:, n] = _coefficient(du, g, n - 1) / (n * u[:, 0])
        lo_g, hi_g = (np.stack([_coefficient(f, g, n) for n in range(k + 1)], axis=1) for f in (lo, hi))
    else:
        lo_g, hi_g = lo, hi
    # (a)_k/k!, exact for the kernel's integer a
    ak = math.comb(int(a) + k - 1, k) if a == int(a) else math.prod((a + i) / (i + 1) for i in range(k))
    # conj(y) swaps A- and conj(A+): summed in both orders, conj(z) gives exactly conj(f(z)),
    # which keeps a Gram matrix exactly Hermitian
    return (_coefficient(lo, hi_g, k) + _coefficient(hi, lo_g, k)) / (2.0 * ak)


def _horn_h4(a: float, b: float, x, y, c: float = 1.0):
    """c^-a H4(x/c^2, y/c) of the H4-type double series, in closed form:
    H4(x, y) = sum_{m,n} (a)_{2m+n} (b)_n / ((a)_m (a)_n) x^m y^n / (m! n!).

    At b = a the n-sum is (1 - y)^-(a+2m) and the m-sum 2F1(a/2, (a+1)/2; a; 4x/(1-y)^2)
    (DLMF 15.4.18): F(w) = S^-1 nu^(1-a) at w = y, with v = c - w, S = sqrt(v^2 - 4x),
    nu = (v + S)/2; principal branches are right while Re v > 0 and x <= 0.
    * b < a, integers: (b)_n/(a)_n is a Beta(b, a-b) moment (DLMF 5.12.1), so H4 is the mean
      of F(y tau).  With zeta = 1/nu, F dw = zeta^(a-2) dzeta, and on the segment from zeta0
      (tau = 0) to zeta1 (tau = 1) the mean is delta E[A^(b-1) B^(a-b-1)], delta =
      (zeta1 - zeta0)/y, A and B linear in the Beta variable: ``_beta_rule`` sums it exactly.
    * b - a = k >= 0 an integer: sum_k (a)_k/k! lam^k H4_{a+k} = (1-lam)^-a F(y/(1-lam)) = G(lam),
      which is F at (c(1-lam), x(1-lam)^2) by homogeneity.  There S^2 = A- A+ with A-+ =
      (v -+ 2 sqrt x) - (c -+ 2 sqrt x) lam, nu = u^2 with u = (sqrt A- + sqrt A+)/2, and
      G = (A- A+)^-1/2 u^(2-2a): binomial series, Miller's recurrence and two products.  At x = 0
      H4 = c^k v^-b with no sum; unlike the Taylor coefficients of F at y, the terms do not
      cancel where Re y < 0.
    Every step is homogeneous in (c, c^2 x, c y), so no power of c is formed.  Arguments are
    scalars or arrays (broadcast together; a scalar call gives a complex); each point is
    computed on its own, so an array call returns bit for bit what one-point calls return.
    """
    size = round((a + min(b, a - b) - 1) // 2 if b < a else b - a + 1)  # Gauss nodes or Taylor terms
    budget = _RADIAL_BUDGET if b < a else _HORN_TERMS
    if size > budget:
        raise CapacityError(
            f"Horn's closed form at q = {a + 1:g}, b = {b:g} needs {size:g} "
            f"{'Gauss nodes' if b < a else 'Taylor terms'}, over the budget of {budget}"
        )
    (x, y), shape = _flat_broadcast(x, y)
    if b >= a:
        out, step = np.empty(len(x), complex), max(1, _HORN_BLOCK // size)
        for i in range(0, len(x), step):  # each point on its own row: blocks change no digit
            out[i : i + step] = _h4_above(a, size - 1, x[i : i + step], y[i : i + step], c)
    else:
        nodes, weights = _beta_rule(int(a), int(b))
        v = c - y
        s0, s1 = np.sqrt(c * c - 4.0 * x), np.sqrt(v * v - 4.0 * x)
        nu0, nu1 = (c + s0) * 0.5, (v + s1) * 0.5
        z0, z1 = 1.0 / nu0, 1.0 / nu1
        # nu0 - nu1 = y (1 + (2c - y)/(s0 + s1))/2, free of cancellation at small y
        delta = (1.0 + (2.0 * c - y) / (s0 + s1)) / (2.0 * nu0 * nu1)
        out = 0.0
        for node, w in zip(nodes, weights):  # no BLAS product: a point rounds alike in any array
            zeta = z0 + node * (z1 - z0)
            A, B = delta * (c - x * (zeta + z0)), delta * (v - x * (zeta + z1))
            out = out + w * (A ** (b - 1.0) * B ** (a - b - 1.0))
        out = delta * out
    return complex(out[0]) if shape == () else out.reshape(shape)


def _lauricella_f14(c: float, b: float, x1, x2, x3):
    """F14-type series of the Lauricella kernel, summed in closed form:
    sum_n sum_p sum_m (1)_{m+n+p} (c)_{m+p} (b)_n / ((c)_m (1)_{n+p}) x1^m x2^n x3^p / (m! n! p!)
    = (c+/c-)^(c-1) (1 - 2 x2/c+)^-b / R, c+- = 1 - x1 +- x3 + R, R^2 = (1 - x1 - x3)^2 - 4 x1 x3.

    Euler's (DLMF 15.8.1) and Pfaff's transformations turn the m-sum (c)_p 2F1(n+p+1, c+p; c; x1)
    into (1 - x1)^-(n+p+1) p! P_p^(c-1, n+1-c)((1 + x1)/(1 - x1)); the p-sum is the Jacobi
    generating function (DLMF 18.12.1) in w = x3/(1 - x1), the n-sum a binomial series.
    They converge where x1 is real, |x1| < 1, |w| < (1 - r)/(1 + r) with r = sqrt(max(x1, 0)),
    and |2 x2| < |c+|; elsewhere ``ConvergenceError`` is raised before any arithmetic that can
    warn.  Inside, each factor 1 - w e^(+-i phi) of (R/(1 - x1))^2 has a positive real part,
    so principal branches are the right ones.  Arguments are scalars or arrays (broadcast
    together), real ones stay real; scalar arguments give a complex.
    """
    (x1, x2, x3), shape = _flat_broadcast(x1, x2, x3)
    if np.iscomplexobj(x1) and x1.imag.any():
        raise DomainError("the F14 evaluator takes a real x1, as the kernel has")
    x1 = x1.real
    if not np.all(np.abs(x1) < 1.0):
        raise ConvergenceError("the F14 m-series needs |x1| < 1")
    r, neg = np.sqrt(np.maximum(x1, 0.0)), np.minimum(x1, 0.0)
    lo = (1.0 - r) ** 2 - neg  # (1 - x1) times the Jacobi radius
    if not np.all(np.abs(x3) < lo):
        raise ConvergenceError("the F14 p-series needs |x3|/(1 - x1) below the Jacobi radius")
    # R^2 in factors: for real x3 with |x3| < lo it rounds to > 0, so R is real and not 0
    big = np.sqrt((lo - x3) * ((1.0 + r) ** 2 - neg - x3) - 4.0 * neg * x3)
    c_minus = 1.0 - x1 - x3 + big
    c_plus = c_minus + 2.0 * x3
    if not np.all(np.abs(x2) < 0.5 * np.abs(c_plus)):
        raise ConvergenceError("the F14 n-series needs |2 x2| < |c+|")
    # c+/c- = 1 + 2 x3/c-: log1p keeps the digits that a power of the ratio loses
    out = np.exp((c - 1.0) * np.log1p(2.0 * x3 / c_minus)) * (1.0 - 2.0 * x2 / c_plus) ** -b / big
    return complex(out[0]) if shape == () else out.reshape(shape).astype(complex)


def eval_family(spec: FamilySpec, z):
    """Closed-form value of a family kernel at z (scalar or array) in the disk."""
    out = spec.evaluate(ensure_in_disk(z))
    return complex(np.ravel(out)[0]) if np.ndim(z) == 0 else np.asarray(out, dtype=complex)


# --------------------------------------------------------------------------
# expansion coefficients


def _exponential_series(nu: int) -> float:
    # sum_j nu!/(j! (nu+j)!), summed to a 1e-15 relative tail (terms decay factorially)
    term = 1.0
    total = 1.0
    j = 0
    while True:
        j += 1
        term /= j * (nu + j)
        total += term
        if term <= 1e-15 * total:
            return total


def _lgammas(a: float, k_max: int) -> np.ndarray:
    """lgamma(a + k) for k = 0..k_max."""
    return np.array([math.lgamma(a + k) for k in range(k_max + 1)])


def _log_poch(a: float, k_max: int) -> np.ndarray:
    """log of the rising factorials (a)_k, k = 0..k_max, for a > 0."""
    return _lgammas(a, k_max) - math.lgamma(a)


def _triangle(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of 0 <= i <= rows, i <= j <= cols, i outer and j inner."""
    return np.nonzero(np.arange(cols + 1)[None, :] >= np.arange(rows + 1)[:, None])


def _exp_entries(key_m: np.ndarray, key_n: np.ndarray, log_a: np.ndarray) -> dict:
    return dict(zip(zip(key_m.tolist(), key_n.tolist()), libm_each(math.exp, log_a).astype(complex).tolist()))


def _grid_entries(values: np.ndarray) -> dict:
    """The entries of an (m, n) array, keyed (m, n) in row-major order."""
    return dict(zip(product(*map(range, values.shape)), values.ravel().tolist()))


#: most terms of the Poisson table's 2F1 sum, counted before any is summed
_POISSON_TERMS = 2**16
#: a 2F1 sum above this (the sum is below 2^(m+n+2q)) is divided by it, an exact power of two
_HUGE = 2.0**512


def _log_hyp(m, n, q: int, x: float) -> np.ndarray:
    """log 2F1(m, n; m+n+q; x), 0 <= x < 1, over index arrays m and n (broadcast together).

    The terms are positive, with ratios rho_k = x (m+k)(n+k) / ((m+n+q+k)(k+1)) that fall and
    then rise towards x: no later ratio exceeds R = max(rho_k, x), so the tail after a term t is
    below t R/(1 - R), and the sum stops once that is below eps of it at every entry.  From
    k = 2x(M - 1)/(1 - x) on (M the largest index) every ratio is below (1 + x)/2, which bounds
    the number of terms.
    """
    eps, top = 2.0**-53, max(int(np.max(m)), int(np.max(n)), 1)
    terms = math.ceil(2.0 * x * (top - 1) / (1.0 - x)) + math.ceil(
        math.log(eps * (1.0 - x) / (1.0 + x)) / math.log((1.0 + x) / 2.0)
    )
    if terms > _POISSON_TERMS:
        raise CapacityError(f"the Poisson table at r^2 = {x} up to index {top} needs {terms} "
                            f"terms of its 2F1 sum, over the budget of {_POISSON_TERMS}")
    c = m + n + q
    term = total = np.ones(np.broadcast(m, n).shape)
    scale = np.zeros(total.shape)
    for k in range(terms):
        rho = (m + k) * (n + k) / (c + k) * (x / (k + 1.0))
        bound = np.maximum(rho, x)
        if np.all(term * bound <= eps * (1.0 - bound) * total):
            break
        term = term * rho
        total = total + term
        if total.max() > _HUGE:
            over = total > _HUGE
            term, total = np.where(over, term / _HUGE, term), np.where(over, total / _HUGE, total)
            scale += over
    return np.log(total) + scale * math.log(_HUGE)


def family_coefficients(spec: FamilySpec, m_max: int, n_max: int) -> CoefficientTable:
    """Exact coefficient table of a family up to (m_max, n_max), tagged ``source="exact"``."""
    if m_max < 0 or n_max < 0:
        raise DomainError("coefficient bounds must be nonnegative")
    return CoefficientTable._of_clean(family_alpha(spec), spec.coefficients(m_max, n_max), "exact")


def difference_pattern(spec: FamilySpec) -> IndexSet:
    """Exact symbolic difference set of the family's full (untruncated) support."""
    return spec.pattern
