"""Polynomial layer: values, symmetries, recurrences, derivative identities."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from discwalk import (
    DomainError,
    disc_norm_h,
    disc_poly,
    disc_poly_at_zero,
    jacobi_R_all,
    pochhammer,
)
from helpers import (
    c_factor,
    disc_poly_dz,
    disc_poly_dzbar,
    jacobi_R,
    uniform_disk_points,
    wirtinger_dz,
    wirtinger_dzbar,
)

ALPHAS = [0.0, 1.0, 2.0, 2.5]


def test_pochhammer_values():
    assert pochhammer(7.3, 0) == 1.0
    assert pochhammer(3, 2) == 12.0
    assert pochhammer(0.5, 3) == pytest.approx(1.875, abs=0)


@given(st.floats(-5, 5, allow_nan=False), st.integers(0, 12))
def test_pochhammer_matches_scipy(a, n):
    assert pochhammer(a, n) == pytest.approx(float(sp.poch(a, n)), rel=1e-12, abs=1e-12)


def test_pochhammer_negative_order_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 2.0), (2.5, 0.5), (-0.3, 1.7)])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 11, 20])
def test_jacobi_normalization_at_one(k, alpha, beta):
    assert jacobi_R(k, alpha, beta, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_jacobi_degree_zero_and_legendre_value():
    assert jacobi_R(0, 1.3, 0.2, -0.4) == 1.0
    # (0,0)-Jacobi is Legendre; P_1(t) = t
    assert jacobi_R(1, 0.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 3.0), (2.5, 1.0), (-0.4, 0.6)])
def test_jacobi_matches_scipy_recurrence_oracle(alpha, beta):
    t = np.linspace(-1.0, 1.0, 41)
    for k in range(0, 16):
        mine = jacobi_R(k, alpha, beta, t)
        ref = sp.eval_jacobi(k, alpha, beta, t) / sp.eval_jacobi(k, alpha, beta, 1.0)
        assert np.max(np.abs(mine - ref)) < 1e-12


def _jacobi_R_rows_mp(kmax, alpha, beta, ts):
    # R_j = P_j / P_j(1) for j = 0..kmax by the three-term recurrence in the
    # working precision of mpmath, rounded to floats row by row
    import mpmath as mp

    a, b = mp.mpf(alpha), mp.mpf(beta)
    ts = [mp.mpf(float(v)) for v in ts]
    p0, p1 = [mp.mpf(1)] * len(ts), [((a + b + 2) * v + (a - b)) / 2 for v in ts]
    out = [[1.0] * len(ts), [float(p / (a + 1)) for p in p1]]
    for j in range(2, kmax + 1):
        c1 = 2 * j * (j + a + b) * (2 * j + a + b - 2)
        c2 = (2 * j + a + b - 1) * (a * a - b * b) / c1
        c3 = (2 * j + a + b - 2) * (2 * j + a + b - 1) * (2 * j + a + b) / c1
        c4 = 2 * (j + a - 1) * (j + b - 1) * (2 * j + a + b) / c1
        p0, p1 = p1, [(c2 + c3 * v) * q1 - c4 * q0 for v, q1, q0 in zip(ts, p1, p0)]
        scale = mp.factorial(j) / mp.rf(a + 1, j)  # 1 / P_j(1)
        out.append([float(p * scale) for p in p1])
    return np.array(out)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_jacobi_R_all_to_degree_64_against_mpmath(alpha):
    # the degrees and betas expand reads for a 64 x 64 table, on the radial
    # nodes of its default rule; errors relative to each row's maximum
    import mpmath as mp

    from discwalk import default_rule

    t = np.clip(2.0 * default_rule(alpha, 64, 64).radial_nodes ** 2 - 1.0, -1.0, 1.0)
    betas = list(range(0, 65, 8))
    rows = jacobi_R_all(64, alpha, np.array(betas, dtype=float), t)
    with mp.workdps(30):
        for i, beta in enumerate(betas):
            ref = _jacobi_R_rows_mp(64, alpha, beta, t)
            # the oracle's top row against mpmath's hypergeometric Jacobi
            for node in (0, len(t) // 2, len(t) - 1):
                want = mp.jacobi(64, alpha, beta, t[node]) / mp.jacobi(64, alpha, beta, 1)
                assert ref[64, node] == pytest.approx(float(want), rel=1e-15)
            err = np.max(np.abs(rows[:, i] - ref), axis=1) / np.max(np.abs(ref), axis=1)
            assert np.max(err) <= 1e-13, (beta, np.argmax(err), np.max(err))


def test_jacobi_R_all_consistency():
    t = np.linspace(-1, 1, 7)
    rows = jacobi_R_all(6, 1.5, 2.0, t)
    for k in range(7):
        assert np.allclose(rows[k], jacobi_R(k, 1.5, 2.0, t), atol=1e-14)


def test_jacobi_domain_error():
    with pytest.raises(DomainError):
        jacobi_R(3, 0.0, 0.0, 1.0 + 1e-6)
    with pytest.raises(DomainError):
        jacobi_R(3, -1.0, 0.0, 0.5)


def test_disc_poly_at_one_is_one():
    for alpha in ALPHAS:
        for m, n in [(0, 0), (1, 0), (2, 2), (3, 1), (0, 4)]:
            assert disc_poly(m, n, alpha, 1.0 + 0j) == pytest.approx(1.0, rel=1e-12)


def test_disc_poly_degree_one_is_z():
    rng = np.random.default_rng(3)
    for z in uniform_disk_points(rng, 10):
        for alpha in ALPHAS:
            assert disc_poly(1, 0, alpha, z) == pytest.approx(z, abs=1e-15)
            assert disc_poly(0, 1, alpha, z) == pytest.approx(np.conj(z), abs=1e-15)


def test_disc_poly_value_at_origin():
    # diagonal: (-1)^n n! alpha! / (n+alpha)! for integer alpha; zero otherwise
    for alpha in [0, 1, 3]:
        for n in range(6):
            want = (-1) ** n * math.factorial(n) * math.factorial(alpha) / math.factorial(n + alpha)
            assert disc_poly(n, n, float(alpha), 0j) == pytest.approx(want, abs=1e-14)
            assert disc_poly_at_zero(n, n, float(alpha)) == pytest.approx(want, abs=1e-14)
    for m, n in [(1, 0), (0, 2), (3, 1), (5, 2)]:
        assert disc_poly(m, n, 1.5, 0j) == 0
        assert disc_poly_at_zero(m, n, 1.5) == 0.0


def test_disc_poly_1_1_closed_form():
    rng = np.random.default_rng(11)
    for alpha in [0.0, 1.0, 2.7]:
        for z in uniform_disk_points(rng, 8):
            want = ((alpha + 2.0) * abs(z) ** 2 - 1.0) / (alpha + 1.0)
            assert disc_poly(1, 1, alpha, z) == pytest.approx(want, abs=1e-14)


@settings(max_examples=60)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from(ALPHAS),
    st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False),
)
def test_disc_poly_conjugation_laws(m, n, alpha, z):
    v = disc_poly(m, n, alpha, z)
    assert abs(disc_poly(n, m, alpha, z) - np.conj(v)) < 1e-13
    assert abs(disc_poly(m, n, alpha, np.conj(z)) - np.conj(v)) < 1e-13


def test_disc_poly_bounded_on_grid():
    xs = np.linspace(-1.0, 1.0, 41)
    xx, yy = np.meshgrid(xs, xs)
    z = (xx + 1j * yy).ravel()
    z = z[np.abs(z) <= 1.0]
    for alpha in ALPHAS:
        for m in range(13):
            for n in range(13 - m):
                vals = disc_poly(m, n, alpha, z)
                assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_disc_poly_domain_error():
    with pytest.raises(DomainError):
        disc_poly(1, 1, 0.0, 1.01)
    with pytest.raises(DomainError):
        disc_poly(-1, 0, 0.0, 0.5)
    with pytest.raises(DomainError):
        disc_poly(1, 1, -1.0, 0.5)


def test_disc_norm_h_values():
    assert disc_norm_h(0, 0, 1.7) == pytest.approx(1.0, rel=1e-14)
    for alpha in ALPHAS:
        assert disc_norm_h(1, 0, alpha) == pytest.approx(alpha + 2.0, rel=1e-13)
    assert disc_norm_h(1, 1, 0.0) == pytest.approx(3.0, rel=1e-13)


def test_c_factor_values():
    assert c_factor(0, 7, 1.2) == 0.0
    assert c_factor(1, 0, 0.0) == 1.0
    assert c_factor(2, 3, 1.0) == pytest.approx(5.0, abs=0)


def test_derivative_identities_trivial_cases():
    z = 0.3 - 0.2j
    assert disc_poly_dz(0, 4, 1.0, z) == 0
    assert disc_poly_dzbar(4, 0, 1.0, z) == 0
    # d/dz of z is 1
    assert disc_poly_dz(1, 0, 0.7, z) == pytest.approx(1.0, abs=1e-15)


def test_wirtinger_derivatives_match_closed_form():
    rng = np.random.default_rng(5)
    pts = uniform_disk_points(rng, 6, rmax=0.9)
    for alpha in [0.0, 1.0, 2.0]:
        for m, n in [(1, 1), (2, 0), (3, 2), (0, 3), (4, 1)]:
            f = lambda w: disc_poly(m, n, alpha, w)
            for z in pts:
                ref_dz = disc_poly_dz(m, n, alpha, z)
                ref_dzb = disc_poly_dzbar(m, n, alpha, z)
                fd_dz = wirtinger_dz(f, z, 1e-5)
                fd_dzb = wirtinger_dzbar(f, z, 1e-5)
                assert abs(fd_dz - ref_dz) <= 1e-6 * max(1.0, abs(ref_dz))
                assert abs(fd_dzb - ref_dzb) <= 1e-6 * max(1.0, abs(ref_dzb))


def test_index_raise_recurrences_small():
    # (alpha+1) R_{m,n+1}^a = (alpha+1) conj(z) R_{m,n}^{a+1} - (1-|z|^2) D_z R_{m,n}^{a+1}
    rng = np.random.default_rng(17)
    pts = uniform_disk_points(rng, 20, rmax=0.999)
    for alpha in [0.0, 1.0, 2.0]:
        for m in range(4):
            for n in range(4):
                for z in pts:
                    lhs = (alpha + 1.0) * disc_poly(m, n + 1, alpha, z)
                    rhs = (alpha + 1.0) * np.conj(z) * disc_poly(m, n, alpha + 1.0, z) - (
                        1.0 - abs(z) ** 2
                    ) * disc_poly_dz(m, n, alpha + 1.0, z)
                    assert abs(lhs - rhs) < 1e-12
                    lhs2 = (alpha + 1.0) * disc_poly(n + 1, m, alpha, z)
                    rhs2 = (alpha + 1.0) * z * disc_poly(n, m, alpha + 1.0, z) - (
                        1.0 - abs(z) ** 2
                    ) * disc_poly_dzbar(n, m, alpha + 1.0, z)
                    assert abs(lhs2 - rhs2) < 1e-12


def test_vectorized_matches_scalar():
    z = np.array([0.1 + 0.2j, -0.5j, 0.9, 0.0])
    vals = disc_poly(3, 1, 1.5, z)
    for i, w in enumerate(z):
        assert vals[i] == pytest.approx(disc_poly(3, 1, 1.5, complex(w)), abs=1e-15)


def test_disc_poly_scalar_equals_array_element_bit_for_bit():
    z = uniform_disk_points(np.random.default_rng(3), 200)
    for m in range(6):
        for n in range(6):
            vals = disc_poly(m, n, 0.5, z)
            assert all(disc_poly(m, n, 0.5, complex(w)) == v for w, v in zip(z, vals.tolist())), (m, n)
