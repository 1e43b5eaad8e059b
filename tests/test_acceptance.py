"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
with timings.  Criterion 7 carries one strict xfail: its stated leading-value
anchor contradicts the orthogonality relations (see the criterion-7 tests).
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from discwalk import (
    Aktas,
    CoefficientTable,
    Exponential,
    Horn,
    IndexSet,
    Lauricella,
    PoissonSzego,
    ProductKernel,
    build_rule,
    descente_x,
    descente_z,
    descente_zbar,
    disc_norm_h,
    disc_poly,
    eval_family,
    expand,
    family_coefficients,
    gram_matrix,
    min_eigenvalue,
    montee_z,
    montee_zbar,
    sample_sphere,
    sigma_2q,
    spd_verdict,
    synthesize,
)
from discwalk import cli
from helpers import (
    disc_poly_dz,
    disc_poly_dzbar,
    extract_coefficient,
    random_table,
    table_max_diff,
    uniform_disk_points,
)


@contextmanager
def criterion(num: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_orthogonality_suite():
    with criterion(1, "orthogonality suite"):
        t0 = time.perf_counter()
        idx = [(m, n) for m in range(9) for n in range(9 - m)]
        for alpha in (0.0, 1.0, 2.0, 2.5):
            rule = build_rule(alpha, 26, 40)
            basis = np.stack([disc_poly(m, n, alpha, rule.nodes) for m, n in idx])
            gram = (basis * rule.weights) @ basis.conj().T
            want = np.diag([1.0 / disc_norm_h(m, n, alpha) for m, n in idx])
            assert np.max(np.abs(gram - want)) < 1e-11
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_index_raise_recurrences():
    with criterion(2, "index-raising recurrences"):
        rng = np.random.default_rng(202)
        pts = uniform_disk_points(rng, 100, rmax=0.9995)
        one_minus = 1.0 - np.abs(pts) ** 2
        for alpha in (0.0, 1.0, 2.0):
            for m in range(7):
                for n in range(7):
                    lhs = (alpha + 1.0) * disc_poly(m, n + 1, alpha, pts)
                    rhs = (alpha + 1.0) * np.conj(pts) * disc_poly(m, n, alpha + 1.0, pts)
                    rhs -= one_minus * disc_poly_dz(m, n, alpha + 1.0, pts)
                    assert np.max(np.abs(lhs - rhs)) < 1e-12
                    lhs2 = (alpha + 1.0) * disc_poly(n + 1, m, alpha, pts)
                    rhs2 = (alpha + 1.0) * pts * disc_poly(n, m, alpha + 1.0, pts)
                    rhs2 -= one_minus * disc_poly_dzbar(n, m, alpha + 1.0, pts)
                    assert np.max(np.abs(lhs2 - rhs2)) < 1e-12


def test_criterion_03_descente_matches_numerical_derivatives():
    with criterion(3, "coefficient transform vs numerical derivative"):
        rng = np.random.default_rng(303)
        h = 1e-5
        for alpha in (0.0, 1.0):
            for _ in range(5):
                t = random_table(rng, alpha, 3, 6)
                f = lambda z: synthesize(t, z)
                fd_dz = lambda z: (f(z + h) - f(z - h) - 1j * (f(z + 1j * h) - f(z - 1j * h))) / (4 * h)
                fd_dzbar = lambda z: (f(z + h) - f(z - h) + 1j * (f(z + 1j * h) - f(z - 1j * h))) / (4 * h)
                pairs = (
                    (expand(fd_dz, alpha + 1.0, 3, 3), descente_z(t)),
                    (expand(fd_dzbar, alpha + 1.0, 3, 3), descente_zbar(t)),
                )
                for numeric, reference in pairs:
                    for m in range(4):
                        for n in range(4):
                            want = reference.get(m, n)
                            assert abs(numeric.get(m, n) - want) <= 1e-5 * max(1.0, abs(want))


def test_criterion_04_montee_round_trips_and_constant():
    with criterion(4, "montee round trips + |z|^2 constant"):
        rng = np.random.default_rng(404)
        for k in range(20):
            alpha = float(rng.choice([1.0, 2.5, 4.0]))
            t = random_table(rng, alpha, 6, 10, signed=True)
            assert table_max_diff(descente_z(montee_z(t).table), t) <= 1e-13
            assert table_max_diff(descente_zbar(montee_zbar(t).table), t) <= 1e-13
        for alpha in (0, 1, 2, 3):
            t = CoefficientTable(alpha=float(alpha + 1), entries={(0, 1): 1.0})
            res = montee_z(t)
            entry = Fraction(alpha + 1, alpha + 2)
            const = -entry * Fraction(-1, alpha + 1)  # -(entry * R_{1,1}(0))
            assert const == Fraction(1, alpha + 2)
            assert abs(res.constant - float(const)) < 1e-15
            assert abs(res.table.get(1, 1) - float(entry)) < 1e-15
            for z in uniform_disk_points(np.random.default_rng(alpha), 5):
                assert abs(res.constant + synthesize(res.table, z) - abs(z) ** 2) < 1e-14


def test_criterion_05_sign_preservation():
    with criterion(5, "walks preserve nonnegativity"):
        rng = np.random.default_rng(505)
        violations = 0
        for _ in range(100):
            alpha = float(rng.choice([1.0, 2.0]))
            t = random_table(rng, alpha, 6, 12)
            outputs = [descente_z(t), descente_zbar(t), descente_x(t)]
            outputs += [montee_z(t).table, montee_zbar(t).table]
            for out in outputs:
                if any(v.real < 0.0 or v.imag != 0.0 for v in out.entries.values()):
                    violations += 1
        assert violations == 0


def test_criterion_06_counterexample_reproduction(capsys):
    with criterion(6, "counterexample reproduction"):
        for q in (2, 3):
            for case in ("i", "ii", "iii"):
                rc = cli.main(["counterexample", "--case", case, "--q", str(q)])
                out = capsys.readouterr().out
                assert rc == 0, (case, q)
                doc = json.loads(out)
                assert doc["match"] is True
                if case == "iii":
                    for op in ("dz", "dzbar", "dx"):
                        assert doc["verdicts"][op] == {"kind": "refuted_at", "N": 5, "j": 0}
                vanished = {"i": "dzbar", "ii": "dz"}.get(case)
                if vanished:
                    assert doc["verdicts"][vanished] == {"kind": "refuted_at", "N": 1, "j": 0}


def test_criterion_07_exponential_extraction_matches_series():
    with criterion(7, "exponential family extraction vs series"):
        for q in (2, 3):
            alpha = float(q - 2)
            rule = build_rule(alpha, 26, 42)
            extracted = expand(lambda z: np.exp(2.0 * np.real(z)), alpha, 8, 8, rule)
            closed = family_coefficients(Exponential(q=q), 8, 8)
            for (m, n), v in closed.entries.items():
                if m + n <= 8:
                    assert abs(extracted.get(m, n).real - v.real) <= 1e-8 * abs(v.real), (q, m, n)
        # independent oracle for the leading coefficient at q = 2:
        # a_{0,0} = sum_j 1/(j! (j+1)!)
        want = sum(1.0 / (math.factorial(j) * math.factorial(j + 1)) for j in range(25))
        rule = build_rule(0.0, 26, 42)
        got = extract_coefficient(lambda z: np.exp(2.0 * np.real(z)), 0, 0, rule)
        assert got.real == pytest.approx(want, rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the stated anchor 2.2795853 is the value of a non-summable candidate series; "
    "orthogonality forces a_{0,0} = sum_j 1/(j!(j+1)!) = 1.5906369 at q = 2",
)
def test_criterion_07_spec_anchor_value():
    rule = build_rule(0.0, 26, 42)
    a00 = extract_coefficient(lambda z: np.exp(2.0 * np.real(z)), 0, 0, rule)
    assert a00.real == pytest.approx(2.2795853, rel=1e-6)


def test_criterion_08_series_closed_form_agreement():
    with criterion(8, "series vs closed forms at truncation 16"):
        rng = np.random.default_rng(808)
        pts = uniform_disk_points(rng, 50)
        specs = [
            Aktas(t=0.3, q=2),
            Horn(t=0.1, s=0.1, b=2, q=2),
            Lauricella(t=0.2, s=0.1, b=2, q=2),
        ]
        for spec in specs:
            tab = family_coefficients(spec, 16, 16)
            vals = eval_family(spec, pts)
            approx = synthesize(tab, pts)
            assert np.max(np.abs(vals - approx)) <= 1e-8, spec


def test_criterion_09_poisson_partial_sums():
    with criterion(9, "Poisson-Szego partial-sum convergence"):
        tab = family_coefficients(PoissonSzego(r=0.5, q=2), 30, 30)
        by_degree = np.zeros(31)
        for (m, n), v in tab.entries.items():
            if m + n <= 30:
                by_degree[m + n] += v.real
        partial = np.cumsum(by_degree)
        assert np.all(np.diff(partial) >= -1e-12)  # monotone upward
        target = 9.0 / (2.0 * math.pi**2)
        assert partial[-1] <= target + 1e-9
        assert (target - partial[-1]) / target < 1e-4


def test_criterion_10_gram_psd_families_and_walks():
    with criterion(10, "Gram PSD across families and walks"):
        t0 = time.perf_counter()
        for q in (2, 3):
            specs = [
                ProductKernel(m=2, n=1, q=q),
                PoissonSzego(r=0.5, q=q),
                Exponential(q=q),
                Aktas(t=0.3, q=q),
                Horn(t=0.1, s=0.1, b=2, q=q),
                Lauricella(t=0.2, s=0.1, b=2, q=q),
            ]
            for spec in specs:
                base = family_coefficients(spec, 6, 6)
                levels = [
                    (base, q),
                    (descente_z(base), q + 1),
                    (descente_zbar(base), q + 1),
                    (descente_x(base), q + 1),
                ]
                if base.alpha > 0:  # montee leaves sphere-land below q = 2
                    levels += [
                        (montee_z(base).table, q - 1),
                        (montee_zbar(base).table, q - 1),
                    ]
                for table, q_level in levels:
                    for seed in range(5):
                        pts = sample_sphere(q_level, 40, seed=seed)
                        g = gram_matrix(lambda z: synthesize(table, z), pts)
                        assert min_eigenvalue(g) >= -1e-8, (spec, q_level, seed)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_11_divisor_closure_vs_brute_force():
    with criterion(11, "divisor-closure decisions vs enumeration"):
        rng = np.random.default_rng(1111)
        disagreements = 0
        for _ in range(1000):
            progs = []
            for _ in range(int(rng.integers(1, 3))):
                mag = 1 if rng.random() < 0.15 else int(rng.integers(2, 6))
                step = mag * (1 if rng.random() < 0.5 else -1)
                progs.append((int(rng.integers(-20, 21)), step))
            s = IndexSet.of(progressions=progs)
            L = math.lcm(*[abs(p[1]) for p in progs])
            verdict = spd_verdict(s)
            brute = None
            for N in range(1, L + 1):
                els = s.elements_within(10 * N * L + 21)
                covered = np.unique(np.mod(els, N))
                if covered.size < N:
                    missing = sorted(set(range(N)) - set(covered.tolist()))
                    brute = (N, missing[0])
                    break
            if verdict.kind == "refuted_at":
                if brute != (verdict.N, verdict.j):
                    disagreements += 1
            else:
                assert verdict.kind == "certified_exact"
                if brute is not None:
                    disagreements += 1
        assert disagreements == 0


def test_acceptance_support_sigma_values():
    # shared constant used by criteria 9; pinned here once
    assert sigma_2q(2) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert sigma_2q(3) == pytest.approx(math.pi**3, rel=1e-15)
