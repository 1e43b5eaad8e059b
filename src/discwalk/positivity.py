"""Positive definiteness deciders for disc-polynomial expansions.

An isotropic kernel f(<xi, eta>) on the complex unit sphere of dimension 2q is
positive definite iff all expansion coefficients a_{m,n}^{q-2} are nonnegative
and summable, and strictly positive definite iff additionally the difference
set {m - n : a_{m,n} > 0} meets every arithmetic progression N Z + j.

Difference sets are represented exactly as a finite part F plus half-infinite
progressions P = {offset + step k : k >= 0}, so membership and intersection
with a residue class are integer-exact, and every verdict is exact:

* ``certified_exact`` -- a step-1 progression is cofinal in Z+ or -Z+, hence
  meets everything; or P alone passes the divisor-closure scan over
  N | lcm(|steps|), which decides all N because P's coverage mod N depends only
  on gcd(N, lcm).  F never matters: where P misses a class mod g it misses at
  least |F| + 1 classes mod g (|F| + 1), and F fills at most |F| of them.
* ``refuted_at`` -- the smallest N with a class N Z + j that S misses, and the
  smallest such j.

Empirical Gram-matrix checks on sampled sphere points are evidence for
positive definiteness, never a certificate of strictness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConvergenceError, DomainError, NotPositiveDefiniteError
from .quadrature import _values_on, nonnegativity_gate, require_bound
from .tables import CoefficientTable, read_index


# --------------------------------------------------------------------------
# exact integer sets: finite part + arithmetic progressions over k >= 0


@dataclass(frozen=True)
class Progression:
    offset: int
    step: int

    def __post_init__(self) -> None:
        if self.step == 0:
            raise DomainError("progression step must be nonzero")


@dataclass(frozen=True)
class IndexSet:
    finite: frozenset = frozenset()
    progressions: tuple = ()

    @classmethod
    def of(cls, finite=(), progressions=()) -> "IndexSet":
        """The set of the given elements and (offset, step) pairs, each an exact integer."""
        try:
            elements = frozenset(map(read_index, finite))
            progs = tuple(
                p if isinstance(p, Progression) else Progression(read_index(p[0]), read_index(p[1]))
                for p in progressions
            )
        except (TypeError, ValueError, OverflowError) as exc:
            # read_index's message as it is, so the JSON reader's message is unchanged
            raise DomainError(str(exc)) from exc
        return cls(finite=elements, progressions=progs)

    def is_empty(self) -> bool:
        return not self.finite and not self.progressions

    def contains(self, e: int) -> bool:
        if e in self.finite:
            return True
        for p in self.progressions:
            diff = e - p.offset
            if diff % p.step == 0 and diff // p.step >= 0:
                return True
        return False

    def elements_within(self, bound: int) -> np.ndarray:
        """All elements with |e| <= bound, sorted and deduplicated."""
        chunks = [np.array([e for e in self.finite if abs(e) <= bound], dtype=np.int64)]
        for p in self.progressions:
            a, d = p.offset, p.step
            # a + k d in [-bound, bound], k >= 0, with integer-exact ceil/floor
            if d > 0:
                kmin = -((bound + a) // d)
                kmax = (bound - a) // d
            else:
                kmin = -((bound - a) // (-d))
                kmax = (bound + a) // (-d)
            kmin = max(kmin, 0)
            if kmax >= kmin:
                chunks.append(a + d * np.arange(kmin, kmax + 1, dtype=np.int64))
        return np.unique(np.concatenate(chunks))

    def negated(self) -> "IndexSet":
        return IndexSet.of(
            finite=(-e for e in self.finite),
            progressions=((-p.offset, -p.step) for p in self.progressions),
        )

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet.of(
            finite=self.finite | other.finite,
            progressions=self.progressions + other.progressions,
        )

    def to_dict(self) -> dict:
        return {
            "finite": sorted(self.finite),
            "progressions": [
                {"offset": p.offset, "step": p.step} for p in self.progressions
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "IndexSet":
        if not isinstance(doc, dict):
            raise DomainError(f"index set document must be a JSON object, got {type(doc).__name__}")
        try:
            return cls.of(
                finite=doc.get("finite", ()),
                progressions=[(p["offset"], p["step"]) for p in doc.get("progressions", ())],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed index set document: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "IndexSet":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON for index set: {exc}") from exc


def intersects_progression(s: IndexSet, N: int, j: int) -> bool:
    """Exact test of S intersect (N Z + j) != empty set."""
    if N < 1:
        raise DomainError(f"modulus must be >= 1, got {N}")
    if not 0 <= j < N:
        raise DomainError(f"residue must satisfy 0 <= j < N, got j = {j}")
    for e in s.finite:
        if e % N == j:
            return True
    for p in s.progressions:
        # offset + step k = j (mod N) is solvable iff gcd(|step|, N) | (j - offset);
        # solutions recur with period N/gcd, so some k >= 0 always exists.
        g = math.gcd(abs(p.step), N)
        if (j - p.offset) % g == 0:
            return True
    return False


# --------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class SpdVerdict:
    kind: str                 # "refuted_at" | "certified_exact"
    N: int | None = None
    j: int | None = None
    reason: str | None = None

    @property
    def is_spd(self) -> bool:
        return self.kind != "refuted_at"

    @classmethod
    def refuted_at(cls, N: int, j: int) -> "SpdVerdict":
        return cls(kind="refuted_at", N=N, j=j)

    @classmethod
    def certified_exact(cls, reason: str) -> "SpdVerdict":
        return cls(kind="certified_exact", reason=reason)

    def to_dict(self) -> dict:
        if self.kind == "refuted_at":
            return {"kind": self.kind, "N": self.N, "j": self.j}
        return {"kind": self.kind, "reason": self.reason}

    @classmethod
    def from_dict(cls, doc: dict) -> "SpdVerdict":
        try:
            kind = doc.get("kind")
            if kind == "refuted_at":
                return cls.refuted_at(read_index(doc["N"]), read_index(doc["j"]))
            if kind == "certified_exact":
                return cls.certified_exact(str(doc["reason"]))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed verdict document: {exc}") from exc
        raise DomainError(f"unknown verdict kind {kind!r}")


def _divisors(n: int):
    cofactors = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            yield d
            cofactors.append(n // d)
    yield from (c for c in reversed(cofactors) if c * c != n)


#: largest modulus N whose one-byte-per-class residue table is allocated
_RESIDUE_BUDGET = 2**27


def _first_missed_residue(s: IndexSet, N: int) -> int:
    """Smallest j in [0, N) with S intersect (N Z + j) empty, or -1 if S meets every class.

    The residues S covers mod N are its finite elements mod N plus, for each
    progression, the class offset mod gcd(|step|, N) (the same rule as
    ``intersects_progression``).  A modulus over ``_RESIDUE_BUDGET`` raises
    ``CapacityError``.
    """
    if N > _RESIDUE_BUDGET:
        raise CapacityError(f"modulus {N} exceeds the residue table budget of {_RESIDUE_BUDGET}")
    covered = bytearray(N)
    for e in s.finite:
        covered[e % N] = 1
    for p in s.progressions:
        g = math.gcd(abs(p.step), N)
        r = p.offset % g
        covered[r::g] = b"\x01" * len(range(r, N, g))
    return covered.find(0)


def _longest_run(finite: frozenset) -> int:
    """Length of the longest run of consecutive integers in ``finite`` (0 if empty)."""
    longest = 0
    for e in finite:
        if e - 1 not in finite:  # e starts a run
            end = e + 1
            while end in finite:
                end += 1
            longest = max(longest, end - e)
    return longest


def spd_verdict(s: IndexSet) -> SpdVerdict:
    """Decide exactly whether S meets every residue class N Z + j (all N >= 1)."""
    if any(abs(p.step) == 1 for p in s.progressions):
        return SpdVerdict.certified_exact("step-1 progression")
    g = 1  # with no progression, P misses the one class mod 1
    if s.progressions:
        progressions = IndexSet(progressions=s.progressions)
        L = math.lcm(*(abs(p.step) for p in s.progressions))
        g = next((N for N in _divisors(L) if _first_missed_residue(progressions, N) >= 0), None)
        if g is None:
            return SpdVerdict.certified_exact("divisor closure")
    # P meets every class mod N < g (mod gcd(N, L) < g it does), and a run of r
    # consecutive elements of F meets every class mod N <= r, so S does too;
    # the scan stops by N = g (|F| + 1), where F cannot fill the classes P misses
    N = max(g, _longest_run(s.finite) + 1)
    while (j := _first_missed_residue(s, N)) < 0:
        N += 1
    return SpdVerdict.refuted_at(N, j)


# --------------------------------------------------------------------------
# table-level deciders


@dataclass
class PdReport:
    ok: bool
    violations: list = field(default_factory=list)


def is_pd(table: CoefficientTable, tol: float = 1e-10) -> PdReport:
    """Nonnegativity gate: every entry must have |Im| <= tol and Re >= -tol;
    ``tol`` itself must be finite and nonnegative."""
    _, violations = nonnegativity_gate(table, tol)
    return PdReport(ok=not violations, violations=violations)


def difference_set(table: CoefficientTable, threshold: float = 0.0) -> IndexSet:
    """Exact difference set {m - n : a_{m,n} > threshold}.

    The threshold defaults to 0 for exact tables and should be set explicitly
    (e.g. 1e-10) for quadrature-derived tables, where "zero" entries carry
    roundoff noise.  A negative, infinite or NaN threshold is refused.
    """
    require_bound("threshold", threshold)
    return IndexSet.of(finite={m - n for (m, n), v in table.entries.items() if v.real > threshold})


def is_spd(
    table: CoefficientTable,
    q: int,
    tol: float = 1e-10,
    threshold: float = 0.0,
    declared_set: IndexSet | None = None,
) -> SpdVerdict:
    """Strict positive definiteness verdict for a table describing a kernel on
    the 2q-sphere.

    Requires the nonnegativity gate first (raises NotPositiveDefiniteError with
    the violating entries otherwise).  ``declared_set`` substitutes the exact
    symbolic difference set of the untruncated function when the table is a
    finite truncation of a known family.
    """
    if q < 2 or q != int(q):
        raise DomainError(f"sphere parameter must be an integer >= 2, got q = {q}")
    if abs(table.alpha - (q - 2)) > 1e-9:
        raise DomainError(
            f"table parameter alpha = {table.alpha} does not match q - 2 = {q - 2}"
        )
    report = is_pd(table, tol=tol)
    if not report.ok:
        raise NotPositiveDefiniteError(report.violations)
    s = declared_set if declared_set is not None else difference_set(table, threshold)
    return spd_verdict(s)


# --------------------------------------------------------------------------
# empirical Gram validation


#: largest count * q of a sphere sample (64 MB of complex coordinates)
_SAMPLE_BUDGET = 2**22
#: largest count**2 of a Gram matrix (count <= 2048; 64 MB per complex copy)
_GRAM_BUDGET = 2**22


@dataclass
class SpherePointSet:
    q: int
    points: np.ndarray  # (count, q), unit rows
    seed: int


def sample_sphere(q: int, count: int, seed: int = 42) -> SpherePointSet:
    """Deterministic uniform sample on the complex unit sphere in C^q.

    Each point is a q-vector of iid standard complex Gaussians normalized to
    unit length.  The class of kernels on the 2-sphere (q = 1) is different
    and excluded throughout, hence q >= 2.  A sample over ``_SAMPLE_BUDGET``
    coordinates (count * q) raises :class:`CapacityError` before anything is
    allocated.
    """
    if q < 2:
        raise DomainError(f"sphere parameter must be >= 2, got q = {q}")
    if count < 1:
        raise DomainError(f"point count must be >= 1, got {count}")
    if count * q > _SAMPLE_BUDGET:
        raise CapacityError(
            f"{count} points in C^{q} exceed the sample budget of {_SAMPLE_BUDGET} coordinates"
        )
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, q)) + 1j * rng.standard_normal((count, q))
    pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return SpherePointSet(q=int(q), points=pts, seed=int(seed))


def gram_matrix(f, pts: SpherePointSet) -> np.ndarray:
    """Gram matrix G[u][v] = f(<xi_u, xi_v>) over a sphere point set.

    ``f`` is called once, on the whole matrix of inner products, and must
    accept ndarray input.  Positive definite f satisfies
    f(conj z) = conj(f(z)), which makes G Hermitian; a deviation beyond 1e-9
    is a :class:`DomainError`, so G can go to the eigensolver unchecked.  A
    point set over ``_GRAM_BUDGET`` entries (count**2) raises
    :class:`CapacityError` before anything is allocated.
    """
    count = len(pts.points)
    if count * count > _GRAM_BUDGET:
        raise CapacityError(
            f"{count} points exceed the Gram matrix budget of {_GRAM_BUDGET} entries"
        )
    inner = pts.points @ pts.points.conj().T
    g = _values_on(f, inner)
    # |G - G^H|; a real G (imaginary part exactly zero) needs only its real part
    diff = g - g.conj().T if g.imag.any() else g.real - g.real.T
    dev = float(np.max(np.abs(diff)))
    if dev > 1e-9:
        raise DomainError(
            f"Gram matrix deviates from Hermitian by {dev:.3e}; "
            "the kernel function violates f(conj z) = conj f(z)"
        )
    return g


def _eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix, checked by the caller.

    A matrix whose imaginary part is exactly zero goes to the real symmetric
    solver, which does about a quarter of the complex one's work; its
    eigenvalues agree to rounding.
    """
    try:
        if not h.imag.any():
            return np.linalg.eigvalsh(h.real)
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolve failed: {exc}") from exc


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in ascending order, from one eigensolve.

    The matrix must be Hermitian within 1e-9 (else :class:`DomainError`);
    a real one goes to the real symmetric solver.
    """
    h = np.asarray(h, dtype=complex)
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > 1e-9:
        raise DomainError(f"matrix is not Hermitian within 1e-9 (deviation {dev:.3e})")
    return _eigenvalues(h)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(h)[0])


# --------------------------------------------------------------------------
# counterexample fixtures: kernels supported on the two coefficient axes
#
# Case "i":  support {(m, 0) : m in Z+}, so the difference set is Z+; the
#            z-derivative keeps it while the conj(z)-derivative kills it.
# Case "ii": the mirror image supported on {(0, n)}.
# Case "iii": axis supports patterned mod 5 so that the function itself meets
#            every residue class, while each derivative misses 5 Z.

_AXES: dict[str, tuple[IndexSet, IndexSet]] = {
    "i": (IndexSet.of(progressions=[(0, 1)]), IndexSet.of()),
    "ii": (IndexSet.of(), IndexSet.of(progressions=[(0, 1)])),
    "iii": (
        IndexSet.of(progressions=[(5, 5), (2, 5), (3, 5), (4, 5)]),
        IndexSet.of(progressions=[(4, 5)]),
    ),
}

#: expected outcomes per case: which of f and its derivatives stay strictly PD
COUNTEREXAMPLE_EXPECTED: dict[str, dict[str, bool]] = {
    "i": {"f": True, "dz": True, "dzbar": False, "dx": True},
    "ii": {"f": True, "dz": False, "dzbar": True, "dx": True},
    "iii": {"f": True, "dz": False, "dzbar": False, "dx": False},
}


def _axis_shift_down(s: IndexSet) -> IndexSet:
    """Image of a nonnegative axis support under index lowering e -> e - 1 (e >= 1)."""
    finite = {e - 1 for e in s.finite if e >= 1}
    progs = []
    for p in s.progressions:
        if p.offset >= 1:
            progs.append((p.offset - 1, p.step))
        else:
            # drops the k = 0 element; the rest starts at step
            progs.append((p.step - 1, p.step))
    return IndexSet.of(finite=finite, progressions=progs)


def _axis_difference(m_axis: IndexSet, n_axis: IndexSet) -> IndexSet:
    return m_axis.union(n_axis.negated())


def counterexample_sets(case: str) -> dict[str, IndexSet]:
    """Exact symbolic difference sets of a case function and its derivatives."""
    if case not in _AXES:
        raise DomainError(f"unknown counterexample case {case!r}; expected i, ii or iii")
    m_axis, n_axis = _AXES[case]
    m_down = _axis_shift_down(m_axis)
    n_down = _axis_shift_down(n_axis)
    return {
        "f": _axis_difference(m_axis, n_axis),
        "dz": _axis_difference(m_down, IndexSet.of()),
        "dzbar": _axis_difference(IndexSet.of(), n_down),
        "dx": _axis_difference(m_down, n_down),
    }


#: largest truncation of a counterexample table (its indices run up to it)
_TRUNCATION_BUDGET = 2**16


def counterexample_table(case: str, q: int, truncation: int) -> tuple[CoefficientTable, IndexSet]:
    """Truncated coefficient table of a counterexample case plus the exact
    (untruncated) symbolic difference set.

    The magnitudes 2^-(m+n) are a summability choice; only the support pattern
    carries the phenomenon.  A truncation over ``_TRUNCATION_BUDGET`` raises
    ``CapacityError`` before any index is listed.
    """
    if case not in _AXES:
        raise DomainError(f"unknown counterexample case {case!r}; expected i, ii or iii")
    if q < 2 or q != int(q):
        raise DomainError(f"sphere parameter must be an integer >= 2, got q = {q}")
    if truncation < 0:
        raise DomainError(f"truncation must be nonnegative, got {truncation}")
    if truncation > _TRUNCATION_BUDGET:
        raise CapacityError(f"truncation {truncation} exceeds the counterexample budget of {_TRUNCATION_BUDGET}")
    m_axis, n_axis = _AXES[case]
    entries = {(m, 0): complex(2.0**-m) for m in m_axis.elements_within(truncation).tolist()}
    for n in n_axis.elements_within(truncation).tolist():
        entries[(0, n)] = complex(2.0**-n)
    table = CoefficientTable._of_clean(float(q - 2), entries, "exact")
    return table, _axis_difference(m_axis, n_axis)
