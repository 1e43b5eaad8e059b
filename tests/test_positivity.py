"""Index sets, PD/SPD verdicts, Gram validation, counterexample fixtures."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discwalk.positivity as positivity
from discwalk import (
    COUNTEREXAMPLE_EXPECTED,
    CapacityError,
    CoefficientTable,
    DomainError,
    Exponential,
    IndexSet,
    NotPositiveDefiniteError,
    Progression,
    SpdVerdict,
    counterexample_sets,
    counterexample_table,
    descente_x,
    descente_z,
    descente_zbar,
    difference_pattern,
    difference_set,
    eval_family,
    family_coefficients,
    gram_matrix,
    hermitian_eigenvalues,
    intersects_progression,
    is_pd,
    is_spd,
    make_family,
    min_eigenvalue,
    sample_sphere,
    spd_verdict,
    synthesize,
)
from helpers import jacobi_rotation_min_eig, random_table

# ---------------------------------------------------------------------- sets


def brute_intersects(s: IndexSet, N: int, j: int, bound: int) -> bool:
    els = s.elements_within(bound)
    return bool(els.size) and bool(np.any(np.mod(els, N) == j))


def test_progression_requires_nonzero_step():
    with pytest.raises(DomainError):
        Progression(0, 0)


def test_index_set_membership_and_enumeration():
    s = IndexSet.of(finite=[7, -2], progressions=[(4, 5), (-3, -5)])
    assert s.contains(7) and s.contains(-2)
    assert s.contains(4) and s.contains(19) and not s.contains(3)
    assert s.contains(-3) and s.contains(-13) and not s.contains(-4)
    els = set(s.elements_within(20).tolist())
    want = {7, -2} | {4 + 5 * k for k in range(4)} | {-3 - 5 * k for k in range(4)}
    assert els == want


def test_index_set_negation_union_json():
    s = IndexSet.of(finite=[1], progressions=[(2, 5)])
    neg = s.negated()
    assert neg.contains(-1) and neg.contains(-7) and not neg.contains(7)
    u = s.union(neg)
    assert u.contains(7) and u.contains(-7)
    back = IndexSet.loads(s.dumps())
    assert back == s
    with pytest.raises(DomainError):
        IndexSet.loads("{nope")


def test_intersects_progression_examples():
    s = IndexSet.of(progressions=[(4, 5)])
    assert intersects_progression(s, 3, 0)  # 4 + 5 = 9
    s_skip = IndexSet.of(progressions=[(1, 5), (2, 5), (3, 5), (4, 5)])
    assert not intersects_progression(s_skip, 5, 0)
    z_plus = IndexSet.of(progressions=[(0, 1)])
    for N in (1, 2, 5, 9):
        for j in range(N):
            assert intersects_progression(z_plus, N, j)
    with pytest.raises(DomainError):
        intersects_progression(s, 0, 0)
    with pytest.raises(DomainError):
        intersects_progression(s, 3, 3)


def test_intersects_progression_against_enumeration_randomized():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n_prog = int(rng.integers(0, 4))
        progs = []
        for _ in range(n_prog):
            step = int(rng.integers(1, 7)) * (1 if rng.random() < 0.5 else -1)
            progs.append((int(rng.integers(-30, 31)), step))
        finite = [int(e) for e in rng.integers(-30, 31, size=int(rng.integers(0, 4)))]
        s = IndexSet.of(finite=finite, progressions=progs)
        N = int(rng.integers(1, 65))
        j = int(rng.integers(0, N))
        L = math.lcm(*[abs(p[1]) for p in progs]) if progs else 1
        bound = 10 * N * L + 31
        assert intersects_progression(s, N, j) == brute_intersects(s, N, j, bound)


@settings(max_examples=80)
@given(
    st.integers(-40, 40),
    st.integers(1, 8),
    st.booleans(),
    st.integers(1, 30),
)
def test_single_progression_intersection_property(offset, step_mag, neg, N):
    step = -step_mag if neg else step_mag
    s = IndexSet.of(progressions=[(offset, step)])
    for j in range(N):
        assert intersects_progression(s, N, j) == brute_intersects(s, N, j, 20 * N * step_mag + abs(offset))


# ------------------------------------------------------------------ verdicts


def test_verdict_step_one_progressions():
    assert spd_verdict(IndexSet.of(progressions=[(0, 1)])).kind == "certified_exact"
    assert spd_verdict(IndexSet.of(progressions=[(3, -1)])).reason == "step-1 progression"


def test_verdict_empty_set_refuted_immediately():
    v = spd_verdict(IndexSet.of())
    assert (v.kind, v.N, v.j) == ("refuted_at", 1, 0)
    assert not v.is_spd


def test_verdict_divisor_closure_certifies_mod5_cover():
    s = IndexSet.of(progressions=[(2, 5), (3, 5), (4, 5), (5, 5), (-4, -5)])
    v = spd_verdict(s)
    assert v.kind == "certified_exact" and v.reason == "divisor closure"


def test_verdict_refutes_single_residue_progression():
    v = spd_verdict(IndexSet.of(progressions=[(-3, -5)]))
    assert (v.N, v.j) == (5, 0)


def test_verdict_mixed_sets_bounded():
    s = IndexSet.of(finite=[0, 1], progressions=[(0, 2)])
    v = spd_verdict(s)
    # evens from the progression plus the finite 1 cover residues only up to N = 2;
    # N = 4 misses j = 3 (odd numbers beyond 1 are absent)
    assert v.kind == "refuted_at" and (v.N, v.j) == (4, 3)
    # the progression first misses a class at g = 2, so the scan stops by g (|F| + 1) = 6
    assert v.N <= 2 * (2 + 1)
    full = IndexSet.of(finite=[3], progressions=[(0, 2), (1, 4), (7, 4)])
    assert spd_verdict(full) == SpdVerdict.certified_exact("divisor closure")


def test_verdict_scans_divisors_lazily_from_the_smallest():
    # L = 10**13 has divisors up to 10**13; the progression misses a class at 2 already
    start = time.perf_counter()
    v = spd_verdict(IndexSet.of(finite=[0], progressions=[(0, 10**13)]))
    elapsed = time.perf_counter() - start
    assert v == SpdVerdict.refuted_at(2, 1)
    assert elapsed < 0.05


@pytest.mark.parametrize("finite, verdict, scanned", [
    (range(-64, 65), SpdVerdict.refuted_at(130, 65), [130]),  # a run of 129 meets every class mod N <= 129
    ([0, 1, 2, 7], SpdVerdict.refuted_at(5, 3), [4, 5]),  # run of 3: 7 fills class 3 mod 4, not mod 5
    ([], SpdVerdict.refuted_at(1, 0), [1]),
])
def test_verdict_scan_starts_past_the_longest_run_of_the_finite_part(finite, verdict, scanned, monkeypatch):
    counted = []
    first_missed_residue = positivity._first_missed_residue

    def counting(s, N):
        counted.append(N)
        return first_missed_residue(s, N)

    monkeypatch.setattr(positivity, "_first_missed_residue", counting)
    assert spd_verdict(IndexSet.of(finite=finite)) == verdict
    assert counted == scanned


def test_verdict_refutations_are_sound():
    rng = np.random.default_rng(7)
    for _ in range(200):
        progs = [
            (int(rng.integers(-20, 21)), int(rng.integers(2, 7)) * (1 if rng.random() < 0.5 else -1))
            for _ in range(int(rng.integers(0, 3)))
        ]
        s = IndexSet.of(progressions=progs)
        v = spd_verdict(s)
        if v.kind == "refuted_at":
            L = math.lcm(*[abs(p[1]) for p in progs]) if progs else 1
            assert not brute_intersects(s, v.N, v.j, 10 * v.N * L + 25)


def test_verdict_json_round_trip():
    for v in (
        SpdVerdict.refuted_at(5, 0),
        SpdVerdict.certified_exact("divisor closure"),
    ):
        assert SpdVerdict.from_dict(v.to_dict()) == v
    with pytest.raises(DomainError):
        SpdVerdict.from_dict({"kind": "certified_up_to", "n_max": 64})


@pytest.mark.parametrize("doc", [
    {"kind": "refuted_at"},
    {"kind": "refuted_at", "N": 5},
    {"kind": "certified_exact"},
    [{"kind": "refuted_at", "N": 5, "j": 0}],
    None,
    {"kind": "refuted_at", "N": 2.5, "j": 0},
    {"kind": "refuted_at", "N": 5, "j": True},
    {"kind": "refuted_at", "N": "x", "j": 0},
    {"kind": "refuted_at", "N": float("inf"), "j": 0},
])
def test_malformed_verdict_document_is_a_domain_error(doc):
    with pytest.raises(DomainError, match="malformed verdict document"):
        SpdVerdict.from_dict(doc)


def _first_missed_class_by_enumeration(s: IndexSet):
    """(N, j) of the first class N Z + j that S misses, N = 1 .. L (|F| + 1) with
    L the lcm of the steps, from the elements of S reduced mod N; None if none."""
    steps = [abs(p.step) for p in s.progressions]
    reach = max((abs(e) for e in s.finite), default=0) + max((abs(p.offset) for p in s.progressions), default=0)
    for N in range(1, math.lcm(*steps) * (len(s.finite) + 1) + 1):
        # a progression's residues mod N recur after N of its steps
        els = s.elements_within(reach + N * max(steps, default=0))
        missed = np.setdiff1d(np.arange(N), np.mod(els, N))
        if missed.size:
            return N, int(missed[0])
    return None


def test_verdict_matches_enumeration_on_finite_progression_and_mixed_sets():
    rng = np.random.default_rng(2017)
    seen = set()
    for i in range(1200):
        shape = ("finite", "progressions", "mixed")[i % 3]
        finite = [] if shape == "progressions" else rng.integers(-20, 21, int(rng.integers(1, 7))).tolist()
        progs = []
        for _ in range(0 if shape == "finite" else int(rng.integers(1, 4))):
            mag = 1 if rng.random() < 0.1 else int(rng.integers(2, 7))
            progs.append((int(rng.integers(-20, 21)), mag * (1 if rng.random() < 0.5 else -1)))
        s = IndexSet.of(finite=finite, progressions=progs)
        v = spd_verdict(s)
        brute = _first_missed_class_by_enumeration(s)
        if brute is None:
            assert v.kind == "certified_exact", (s, v)
        else:
            assert (v.kind, v.N, v.j) == ("refuted_at", *brute), (s, v)
        seen.add((shape, v.kind))
    assert seen == {("finite", "refuted_at")} | {
        (shape, kind) for shape in ("progressions", "mixed") for kind in ("refuted_at", "certified_exact")
    }


def test_truncated_exponential_table_is_refuted_past_64():
    # the 81 differences -40..40 meet every class mod N <= 81; mod 82 they miss 41
    table = family_coefficients(Exponential(q=2), 40, 40)
    assert is_spd(table, 2) == SpdVerdict.refuted_at(82, 41)
    pattern = difference_pattern(Exponential(q=2))
    assert is_spd(table, 2, declared_set=pattern).kind == "certified_exact"


# ------------------------------------------------------- table-level deciders


def test_is_pd_examples():
    good = CoefficientTable(alpha=0.0, entries={(0, 0): 1.0, (2, 1): 0.5})
    assert is_pd(good).ok
    bad = CoefficientTable(alpha=0.0, entries={(1, 0): -0.1})
    rep = is_pd(bad)
    assert not rep.ok and rep.violations[0][:2] == (1, 0)


def test_difference_set_examples():
    t = CoefficientTable(alpha=0.0, entries={(3, 1): 1.0, (0, 5): 1.0})
    assert difference_set(t, 0.0).finite == frozenset({2, -5})
    assert difference_set(CoefficientTable(alpha=0.0, entries={}), 0.0).is_empty()
    with pytest.raises(DomainError):
        difference_set(t, -1.0)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, -1e-300])
def test_a_nan_infinite_or_negative_tolerance_or_threshold_is_refused(bound):
    from discwalk import coefficient_sum

    t = CoefficientTable(alpha=0.0, entries={(0, 0): -5.0, (1, 0): 1.0})
    for call in (lambda: is_pd(t, tol=bound), lambda: coefficient_sum(t, tol=bound),
                 lambda: is_spd(t, q=2, tol=bound)):
        with pytest.raises(DomainError, match="tolerance must be finite and nonnegative"):
            call()
    with pytest.raises(DomainError, match="threshold must be finite and nonnegative"):
        difference_set(t, bound)


def test_is_spd_gates_and_declared_sets():
    t = CoefficientTable(alpha=0.0, entries={(m, 0): 2.0 ** (-m) for m in range(6)})
    # finite truncation alone cannot certify
    v = is_spd(t, q=2)
    assert v.kind == "refuted_at"
    # the declared full-support pattern can
    v2 = is_spd(t, q=2, declared_set=IndexSet.of(progressions=[(0, 1)]))
    assert v2.kind == "certified_exact"
    # the conj(z)-derivative of an axis table vanishes
    v3 = is_spd(descente_zbar(t), q=3)
    assert (v3.kind, v3.N, v3.j) == ("refuted_at", 1, 0)
    bad = CoefficientTable(alpha=0.0, entries={(1, 0): -0.5})
    with pytest.raises(NotPositiveDefiniteError) as err:
        is_spd(bad, q=2)
    assert err.value.violations[0][:2] == (1, 0)
    with pytest.raises(DomainError):
        is_spd(t, q=3)
    with pytest.raises(DomainError):
        is_spd(t, q=1)


# --------------------------------------------------------------- sphere/Gram


def test_sample_sphere_contracts():
    pts = sample_sphere(3, 25, seed=9)
    norms = np.linalg.norm(pts.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    again = sample_sphere(3, 25, seed=9)
    assert np.array_equal(pts.points, again.points)
    inner = pts.points @ pts.points.conj().T
    assert np.max(np.abs(inner)) <= 1.0 + 1e-12
    with pytest.raises(DomainError):
        sample_sphere(1, 5)
    with pytest.raises(DomainError):
        sample_sphere(2, 0)


def test_gram_constant_kernel_is_all_ones():
    pts = sample_sphere(2, 6, seed=1)
    g = gram_matrix(lambda z: np.ones_like(z), pts)
    assert np.allclose(g, np.ones((6, 6)))
    evals = np.linalg.eigvalsh(g)
    assert evals[-1] == pytest.approx(6.0, abs=1e-9)
    assert np.max(np.abs(evals[:-1])) < 1e-9


def test_gram_identity_kernel_on_orthonormal_points():
    from discwalk import SpherePointSet

    e = np.eye(2, dtype=complex)
    pts = SpherePointSet(q=2, points=e, seed=0)
    g = gram_matrix(lambda z: z, pts)
    assert np.allclose(g, np.eye(2))


def test_gram_warns_on_conjugation_violation():
    pts = sample_sphere(2, 5, seed=3)
    with pytest.raises(DomainError):
        gram_matrix(lambda z: 1j * z, pts)


def test_gram_refuses_a_real_matrix_that_is_not_symmetric():
    # real values, but f(conj z) = Re z - 2 Im z differs from f(z)
    pts = sample_sphere(2, 5, seed=3)
    with pytest.raises(DomainError, match="deviates from Hermitian"):
        gram_matrix(lambda z: (z.real + 2.0 * z.imag).astype(complex), pts)


@pytest.mark.parametrize("family", ["exponential", "poisson"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_real_gram_spectrum_matches_the_complex_solver(family, q, monkeypatch):
    spec = make_family(family, q, {"r": 0.5} if family == "poisson" else {})
    eigvalsh, solved = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solved.append(h.dtype) or eigvalsh(h))
    for n in (40, 200):
        g = gram_matrix(lambda z: eval_family(spec, z), sample_sphere(q, n, seed=q))
        want = eigvalsh(g)
        got = hermitian_eigenvalues(g)
        assert np.max(np.abs(got - want)) <= 8 * n * np.finfo(float).eps * np.max(np.abs(want))
    assert solved == [np.dtype(float)] * 2  # G's imaginary part is exactly zero


def test_sample_and_gram_budgets_refuse_before_allocating():
    with pytest.raises(CapacityError, match="sample budget"):
        sample_sphere(10**15, 2)
    with pytest.raises(CapacityError, match="Gram matrix budget"):
        gram_matrix(lambda z: z, sample_sphere(2, 2049))


def test_pd_tables_have_psd_gram_matrices():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        for seed in range(5):
            t = random_table(rng, float(q - 2), 4, 8)
            scale = sum(v.real for v in t.entries.values())
            t = CoefficientTable(alpha=t.alpha, entries={k: v / max(scale / 10.0, 1.0) for k, v in t.entries.items()})
            pts = sample_sphere(q, 30, seed=seed)
            g = gram_matrix(lambda z: synthesize(t, z), pts)
            assert min_eigenvalue(g) >= -1e-8


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(np.diag([1.0, 2.0, 3.0])) == pytest.approx(1.0, abs=1e-12)
    h = np.array([[2.0, 1j], [-1j, 2.0]])
    assert min_eigenvalue(h) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eigenvalue_against_rotation_oracle():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        assert min_eigenvalue(h) == pytest.approx(jacobi_rotation_min_eig(h), abs=1e-10)


def test_gram_eigenvalues_match_rotation_oracle_small():
    t = CoefficientTable(alpha=0.0, entries={(1, 0): 1.0, (0, 1): 1.0})
    pts = sample_sphere(2, 3, seed=11)
    g = gram_matrix(lambda z: synthesize(t, z), pts)
    assert min_eigenvalue(g) == pytest.approx(jacobi_rotation_min_eig(g), abs=1e-10)


# ------------------------------------------------------------ counterexamples


def test_counterexample_case_iii_support_pattern():
    table, s = counterexample_table("iii", q=2, truncation=30)
    for (m, n), v in table.entries.items():
        assert v.real == 2.0 ** (-(m + n)) and v.imag == 0.0
    n_support = sorted(n for (m, n) in table.entries if m == 0)
    assert n_support == [n for n in range(31) if n % 5 == 4]
    m_support = sorted(m for (m, n) in table.entries if n == 0)
    want_m = [m for m in range(31) if m % 5 in (2, 3, 4) or (m % 5 == 0 and m > 0)]
    assert m_support == want_m
    assert (0, 0) not in table.entries
    assert s == IndexSet.of(progressions=[(5, 5), (2, 5), (3, 5), (4, 5), (-4, -5)])


def test_counterexample_symbolic_sets_and_verdicts():
    for case, expected in COUNTEREXAMPLE_EXPECTED.items():
        sets = counterexample_sets(case)
        for op, want_spd in expected.items():
            v = spd_verdict(sets[op])
            assert v.is_spd == want_spd, (case, op, v)
    # precise witnesses
    iii = counterexample_sets("iii")
    for op in ("dz", "dzbar", "dx"):
        v = spd_verdict(iii[op])
        assert (v.N, v.j) == (5, 0)
    assert spd_verdict(counterexample_sets("i")["dzbar"]).N == 1
    assert spd_verdict(counterexample_sets("ii")["dz"]).N == 1


def test_counterexample_case_i_and_ii_sets():
    _, s1 = counterexample_table("i", q=2, truncation=10)
    assert s1 == IndexSet.of(progressions=[(0, 1)])
    _, s2 = counterexample_table("ii", q=3, truncation=10)
    assert s2 == IndexSet.of(progressions=[(0, -1)])


def test_counterexample_tables_walk_consistently_with_symbolic_sets():
    # within the truncation window, walked table supports match the symbolic sets
    for case in ("i", "ii", "iii"):
        table, _ = counterexample_table(case, q=2, truncation=25)
        sets = counterexample_sets(case)
        walked = {
            "dz": descente_z(table),
            "dzbar": descente_zbar(table),
            "dx": descente_x(table),
        }
        for op, wt in walked.items():
            got = {m - n for (m, n), v in wt.entries.items() if v.real > 0}
            sym = set(sets[op].elements_within(24).tolist())
            missing = got - sym
            assert not missing, (case, op, missing)
            # and every symbolic element within a safe window is realized
            window = {e for e in sym if abs(e) <= 18}
            assert window <= got, (case, op, window - got)


def test_counterexample_validation():
    with pytest.raises(DomainError):
        counterexample_table("iv", 2, 10)
    with pytest.raises(DomainError):
        counterexample_table("i", 1, 10)
    with pytest.raises(DomainError):
        counterexample_sets("v")
