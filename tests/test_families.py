"""The six kernel families: validity domains, closed forms, expansions, patterns."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discwalk import (
    Aktas,
    DomainError,
    Exponential,
    Horn,
    IndexSet,
    Lauricella,
    PoissonSzego,
    ProductKernel,
    coefficient_sum,
    difference_pattern,
    eval_family,
    family_coefficients,
    family_from_dict,
    family_to_dict,
    gram_matrix,
    is_pd,
    make_family,
    min_eigenvalue,
    pochhammer,
    sample_sphere,
    sigma_2q,
    spd_verdict,
    synthesize,
)
from discwalk.families import _horn_h4, _lauricella_f14
from helpers import (
    horn_h4_oracle,
    lauricella_f14_n_outer_oracle,
    lauricella_f14_oracle,
    lauricella_f14_rows,
    poisson_szego_profile,
    product_coefficient_closed,
    uniform_disk_points,
)


def test_sigma_values():
    assert sigma_2q(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sigma_2q(2) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert sigma_2q(3) == pytest.approx(math.pi**3, rel=1e-15)
    with pytest.raises(DomainError):
        sigma_2q(0)


def test_sigma_against_gaussian_shell_monte_carlo():
    # For X ~ N(0, I_{2q}):  E |X|^(2-2q) = sigma_2q / (2 pi)^q
    rng = np.random.default_rng(12345)
    for q in (2, 3):
        x = rng.standard_normal((200_000, 2 * q))
        r2 = np.sum(x * x, axis=1)
        est = float(np.mean(r2 ** (1 - q))) * (2.0 * math.pi) ** q
        assert est == pytest.approx(sigma_2q(q), rel=5e-2)


def test_parameter_domain_validation():
    with pytest.raises(DomainError):
        Aktas(t=1.0, q=2)
    with pytest.raises(DomainError):
        Aktas(t=0.5, q=1)
    with pytest.raises(DomainError):
        PoissonSzego(r=1.0, q=2)
    with pytest.raises(DomainError):
        ProductKernel(m=-1, n=0, q=2)
    with pytest.raises(DomainError):
        Horn(t=0.1, s=0.1, b=0, q=2)
    with pytest.raises(DomainError):
        Horn(t=10.0, s=0.9999, b=2, q=2)


@pytest.mark.parametrize("cls, t, s", [
    (Horn, 0.9, 0.1),  # t = 1 - s: the coefficients sum to (1 - t/(1-s))^-b = inf
    (Horn, 0.25, 0.75),
    (Horn, 1e-3, 1.0),
    (Horn, 0.1, 0.0),
    (Horn, 0.0, 0.5),
    (Horn, float("nan"), 0.1),
    (Horn, 0.1, float("nan")),
    (Lauricella, 1.0, 0.1),  # the coefficients sum to (1-s)^(1-q) (1-t)^-b
    (Lauricella, 0.5, 1.0),
    (Lauricella, 0.0, 0.5),
    (Lauricella, float("nan"), 0.1),
    (Lauricella, 0.1, float("nan")),
], ids=repr)
def test_constructors_refuse_the_domain_edges_with_one_line(cls, t, s):
    with pytest.raises(DomainError, match="parameters must satisfy 0 < s < 1") as exc:
        cls(t=t, s=s, b=2, q=2)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("t, s", [(0.8999999999999999, 0.1), (0.999, 1e-4), (1e-3, 0.998), (0.4, 0.59)])
def test_horn_accepts_points_just_inside_its_domain(t, s):
    spec = Horn(t=t, s=s, b=1, q=3)
    assert np.all(np.isfinite(eval_family(spec, np.array([0j, 1.0, -1.0, 1j, 0.5]))))


def test_eval_special_points():
    assert eval_family(Exponential(q=2), 1j) == pytest.approx(1.0, abs=1e-15)
    assert eval_family(Exponential(q=3), 1.0) == pytest.approx(math.e**2, rel=1e-15)
    for q in (2, 3):
        spec = PoissonSzego(r=0.0, q=q)
        for z in (0j, 0.5 - 0.1j, 1.0 + 0j):
            assert eval_family(spec, z) == pytest.approx(1.0 / sigma_2q(q), rel=1e-15)
    # vanishing-parameter limits collapse the series to the constant term
    assert eval_family(Aktas(t=1e-9, q=3), 0.3 + 0.4j) == pytest.approx(1.0, abs=1e-6)
    assert _horn_h4(1.0, 2.0, 0j, 0j) == 1.0
    assert _lauricella_f14(1.0, 2.0, 0j, 0j, 0j) == 1.0


def test_poisson_value_at_one_closed_form():
    for q in (2, 3):
        for r in (0.25, 0.5):
            spec = PoissonSzego(r=r, q=q)
            want = ((1.0 + r) / (1.0 - r)) ** q / sigma_2q(q)
            assert eval_family(spec, 1.0 + 0j) == pytest.approx(want, rel=1e-14)


def test_product_kernel_eval():
    spec = ProductKernel(m=3, n=1, q=2)
    z = 0.3 - 0.6j
    assert eval_family(spec, z) == pytest.approx(z**3 * np.conj(z), abs=1e-15)


def test_conjugation_law_all_families():
    rng = np.random.default_rng(8)
    specs = [
        ProductKernel(m=2, n=1, q=2),
        PoissonSzego(r=0.5, q=2),
        Exponential(q=2),
        Aktas(t=0.3, q=3),
        Horn(t=0.1, s=0.1, b=2, q=2),
        Lauricella(t=0.2, s=0.1, b=2, q=3),
    ]
    for spec in specs:
        for z in uniform_disk_points(rng, 5):
            assert abs(eval_family(spec, np.conj(z)) - np.conj(eval_family(spec, z))) < 1e-12


def test_family_coefficient_hand_values():
    q = 3
    ak = family_coefficients(Aktas(t=0.25, q=q), 4, 4)
    assert ak.get(0, 0) == pytest.approx(1.0, abs=0)
    assert ak.get(1, 0) == pytest.approx(0.25, abs=1e-15)          # series (1,0) -> key (1,0)
    assert ak.get(1, 1) == pytest.approx((q - 1) * 0.25, abs=1e-15)  # series (0,1) -> key (1,1)
    assert ak.get(0, 1) == 0j  # key (0,1) unreachable: m+n >= n always
    ho = family_coefficients(Horn(t=0.1, s=0.2, b=3, q=q), 4, 4)
    assert ho.get(0, 0) == pytest.approx(1.0, abs=0)
    assert ho.get(1, 1) == pytest.approx(pochhammer(q - 1, 1) * 0.2, abs=1e-15)  # series (1,0)
    assert ho.get(0, 1) == pytest.approx(3 * 0.1, abs=1e-15)                      # series (0,1): (b)_1 t
    la = family_coefficients(Lauricella(t=0.2, s=0.1, b=2, q=q), 4, 4)
    assert la.get(1, 0) == pytest.approx(2 * 0.2, abs=1e-15)   # (b)_1 t
    assert la.get(1, 1) == pytest.approx((q - 1) * 0.1, abs=1e-15)  # (q-1)_1 s


def test_exponential_coefficients_match_bessel_series():
    # a_{m,n} = h (q-1)! sum_j 1/(j!(m+n+q-1+j)!), summed here independently
    for q in (2, 3):
        tab = family_coefficients(Exponential(q=q), 3, 3)
        from discwalk import disc_norm_h

        for (m, n), v in tab.entries.items():
            s = sum(
                1.0 / (math.factorial(j) * math.factorial(m + n + q - 1 + j))
                for j in range(30)
            )
            want = disc_norm_h(m, n, float(q - 2)) * math.factorial(q - 1) * s
            assert v.real == pytest.approx(want, rel=1e-14)


def _exponential_mp(q: int, m: int, n: int):
    """40-digit a_{m,n} = h_{m,n}^{q-2} (q-1)! I_nu(2), nu = m+n+q-1: the inner sum
    S(nu) = sum_j nu!/(j! (nu+j)!) is nu! I_nu(2) (DLMF 10.25.2)."""
    import mpmath as mp

    with mp.workdps(40):
        nu = m + n + q - 1
        h = mp.mpf(nu) / (q - 1) * mp.binomial(q - 2 + m, m) * mp.binomial(q - 2 + n, n)
        return h * mp.factorial(q - 1) * mp.besseli(nu, 2)


@pytest.mark.parametrize("q", [2, 3, 5, 8, 20])
def test_exponential_table_matches_40_digit_bessel_values(q):
    tab = family_coefficients(Exponential(q=q), 64, 64)
    rng = np.random.default_rng(q)
    seeded = [tuple(k) for k in rng.integers(0, 65, size=(100, 2)).tolist()]
    # the corners carry the largest logs (about 560 at q = 20, where one ulp is 1.1e-13)
    for keys, rel in ((seeded, 2e-13), ([(0, 0), (64, 0), (0, 64), (64, 64)], 5e-13)):
        for m, n in keys:
            want = _exponential_mp(q, m, n)
            assert tab.get(m, n).imag == 0.0
            assert abs(tab.get(m, n).real - want) <= rel * want, (m, n)


def test_exponential_table_takes_one_exp_per_entry_and_no_log(monkeypatch):
    import discwalk.families as families
    import discwalk.special as special

    calls, libm_each = {math.exp: 0, math.log: 0}, special.libm_each

    def counting(fn, x):
        calls[fn] += np.size(x)
        return libm_each(fn, x)

    monkeypatch.setattr(families, "libm_each", counting)
    monkeypatch.setattr(special, "libm_each", counting)
    assert len(family_coefficients(Exponential(q=3), 16, 9).entries) == 170
    assert calls == {math.exp: 170, math.log: 0}


def _aktas_mp(spec: Aktas, key_m: int, key_n: int):
    """40-digit Aktas entry (q-1)_n t^(m+n)/(m! n!) at key (m+n, n)."""
    import mpmath as mp

    with mp.workdps(40):
        m, n = key_m - key_n, key_n
        return mp.rf(spec.q - 1, n) * mp.mpf(spec.t) ** key_m / (mp.factorial(m) * mp.factorial(n))


@pytest.mark.xfail(strict=True, reason="_log_poch and _lgammas subtract lgamma values of size q log q: "
                   "at q = 1e9 the entries up to (6, 6) err by about 4e-6 relative")
@pytest.mark.parametrize("spec, reference", [
    (Exponential(q=10**9), lambda spec, m, n: _exponential_mp(spec.q, m, n)),
    (Aktas(t=0.3, q=10**9), _aktas_mp),
], ids=["exponential", "aktas"])
def test_exact_tables_keep_their_digits_at_large_q(spec, reference):
    tab = family_coefficients(spec, 6, 6)
    for (m, n), v in tab.entries.items():
        want = reference(spec, m, n)
        assert abs(v.real - want) <= 1e-12 * want, (m, n)


def test_product_table_matches_gamma_closed_form():
    for q in (2, 3):
        for (m, n) in ((1, 0), (2, 1), (3, 2)):
            tab = family_coefficients(ProductKernel(m=m, n=n, q=q), m, n)
            assert tab.source == "exact"
            for j in range(min(m, n) + 1):
                want = product_coefficient_closed(q, m, n, j)
                assert tab.get(m - j, n - j).real == pytest.approx(want, rel=1e-14)
            assert all(mm - nn == m - n and v.real > 0.0 and v.imag == 0.0 for (mm, nn), v in tab.entries.items())


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("m, n", [(0, 0), (5, 0), (0, 3), (4, 4), (9, 6), (6, 9), (30, 17)])
def test_product_table_holds_exactly_its_min_m_n_plus_one_keys(q, m, n):
    import mpmath as mp

    mp.mp.dps = 30
    tab = family_coefficients(ProductKernel(m=m, n=n, q=q), 40, 40)
    assert sorted(tab.entries) == [(m - j, n - j) for j in range(min(m, n), -1, -1)]
    alpha = q - 2
    for (mu, nu), v in tab.entries.items():
        j = m - mu
        h = mp.mpf(mu + nu + alpha + 1) / (alpha + 1) * mp.binomial(alpha + mu, alpha) * mp.binomial(alpha + nu, alpha)
        want = h * mp.factorial(alpha + 1) * mp.factorial(m) * mp.factorial(n) / (
            mp.factorial(j) * mp.factorial(m + n - j + alpha + 1)
        )
        assert v.imag == 0.0 and v.real > 0.0
        assert abs(v.real - want) <= 2.0**-53 * want  # one correctly rounded ratio of integers
    # z^m conj(z)^n is 1 at z = 1, where every R_{m,n} is 1
    assert sum(v.real for v in tab.entries.values()) == pytest.approx(1.0, rel=1e-14)
    # a window that cuts the sum keeps only the keys inside it
    small = family_coefficients(ProductKernel(m=m, n=n, q=q), 2, 2)
    assert small.entries == {k: v for k, v in tab.entries.items() if max(k) <= 2}


def test_product_trivial_case_is_single_entry():
    tab = family_coefficients(ProductKernel(m=1, n=0, q=2), 1, 1)
    assert tab.get(1, 0) == pytest.approx(1.0, abs=1e-11)
    for key, v in tab.entries.items():
        if key != (1, 0):
            assert abs(v) < 1e-11


def test_poisson_expansion_nonnegative_and_summable():
    tab = family_coefficients(PoissonSzego(r=0.5, q=2), 8, 8)
    assert is_pd(tab, tol=1e-10).ok
    partial = coefficient_sum(tab, tol=1e-10)
    target = 9.0 / (2.0 * math.pi**2)
    assert 0.0 < partial <= target + 1e-9


def test_series_matches_closed_form_on_disk():
    rng = np.random.default_rng(77)
    pts = uniform_disk_points(rng, 12)
    cases = [
        (Aktas(t=0.3, q=2), 14, 5e-8),
        (Horn(t=0.1, s=0.1, b=2, q=2), 14, 1e-10),
        (Lauricella(t=0.2, s=0.1, b=2, q=2), 14, 1e-9),
        (Exponential(q=2), 12, 1e-10),
        (Exponential(q=3), 12, 1e-10),
    ]
    for spec, trunc, tol in cases:
        tab = family_coefficients(spec, trunc, trunc)
        err = max(abs(eval_family(spec, z) - synthesize(tab, z)) for z in pts)
        assert err < tol, (spec, err)


def test_difference_patterns_and_verdicts():
    assert difference_pattern(Exponential(q=2)) == IndexSet.of(progressions=[(0, 1), (0, -1)])
    assert difference_pattern(Aktas(t=0.3, q=2)) == IndexSet.of(progressions=[(0, 1)])
    assert difference_pattern(Lauricella(t=0.2, s=0.1, b=2, q=2)) == IndexSet.of(progressions=[(0, 1)])
    assert difference_pattern(Horn(t=0.1, s=0.1, b=2, q=2)) == IndexSet.of(progressions=[(0, -1)])
    for spec in (Exponential(q=2), Aktas(t=0.3, q=2), Horn(t=0.1, s=0.1, b=2, q=2)):
        assert spd_verdict(difference_pattern(spec)).kind == "certified_exact"
    assert difference_pattern(ProductKernel(m=3, n=1, q=2)) == IndexSet.of(finite=[2])
    assert difference_pattern(PoissonSzego(r=0.5, q=2)) == IndexSet.of(progressions=[(0, 1), (0, -1)])


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("r", [0.01, 0.5, 0.9, 0.99])
def test_poisson_pattern_is_all_of_z_and_certified(q, r):
    # every coefficient is positive for 0 < r < 1; the thresholded 8 x 8 reading refuted r = 0.5
    assert spd_verdict(difference_pattern(PoissonSzego(r=r, q=q))).kind == "certified_exact"
    assert all(v.real > 0.0 for v in family_coefficients(PoissonSzego(r=r, q=q), 6, 6).entries.values())


@pytest.mark.parametrize("q", [2, 4])
def test_poisson_at_r_zero_is_the_constant(q):
    spec = PoissonSzego(r=0.0, q=q)
    assert difference_pattern(spec) == IndexSet.of(finite=[0])
    assert spd_verdict(difference_pattern(spec)).kind == "refuted_at"
    table = family_coefficients(spec, 5, 5)
    assert list(table.entries) == [(0, 0)]
    assert table.get(0, 0).real == pytest.approx(1.0 / sigma_2q(q), rel=1e-15)


def test_removed_knobs_are_refused():
    from discwalk import difference_set

    spec = PoissonSzego(r=0.5, q=2)
    with pytest.raises(TypeError):
        difference_pattern(spec, threshold=1e-10)
    with pytest.raises(TypeError):
        difference_pattern(spec, m_max=4, n_max=4)
    with pytest.raises(TypeError):
        family_coefficients(spec, 4, 4, rule=None)
    with pytest.raises(TypeError):
        poisson_szego_profile(spec, 4, 4, rule=None)
    with pytest.raises(TypeError):
        difference_set(family_coefficients(spec, 2, 2), 0.0, 0)


def test_every_family_table_is_exact():
    specs = [
        ProductKernel(m=2, n=1, q=2),
        PoissonSzego(r=0.5, q=3),
        Exponential(q=2),
        Aktas(t=0.3, q=3),
        Horn(t=0.1, s=0.1, b=2, q=2),
        Lauricella(t=0.2, s=0.1, b=2, q=3),
    ]
    for spec in specs:
        assert family_coefficients(spec, 4, 4).source == "exact"


def test_families_are_positive_definite_empirically():
    specs = [
        ProductKernel(m=2, n=1, q=2),
        PoissonSzego(r=0.5, q=2),
        Exponential(q=2),
        Aktas(t=0.3, q=3),
        Horn(t=0.1, s=0.1, b=2, q=3),
        Lauricella(t=0.2, s=0.1, b=2, q=2),
    ]
    for spec in specs:
        pts = sample_sphere(spec.q, 25, seed=4)
        g = gram_matrix(lambda z: eval_family(spec, z), pts)
        assert min_eigenvalue(g) >= -1e-8, spec


def test_horn_series_against_mpmath_hyper2d():
    import mpmath as mp

    mp.mp.dps = 25
    cases = [
        (1.0, 2.0, 0.08 + 0.02j, -0.1 + 0.15j),
        (2.0, 3.0, -0.05 + 0j, 0.2j),
        (1.5, 2.5, 0.02 - 0.03j, 0.1 + 0.1j),
    ]
    for a, b, x, y in cases:
        mine = _horn_h4(a, b, x, y)
        ref = complex(mp.hyper2d({"2m+n": [a], "n": [b]}, {"m": [a], "n": [a]}, x, y))
        assert mine == pytest.approx(ref, rel=1e-14)


def test_poisson_profile_closed_anchors():
    # For q = 2 the geometric expansion of |1-rz|^{-4} gives S_{0,0}(r) = 1 and
    # S_{1,0}(r) = r exactly, independent of r.
    for r in (0.3, 0.5):
        prof = poisson_szego_profile(PoissonSzego(r=r, q=2), 4, 4)
        assert list(prof) == [(m, n) for m in range(5) for n in range(5)]
        assert prof[(0, 0)] == 1.0
        assert prof[(1, 0)] == prof[(0, 1)] == r
        assert all(v > 0.0 for v in prof.values())
    lo = poisson_szego_profile(PoissonSzego(r=0.3, q=2), 3, 3)
    hi = poisson_szego_profile(PoissonSzego(r=0.6, q=2), 3, 3)
    for key in ((1, 1), (2, 1), (2, 2)):
        assert 0.0 <= lo[key] < hi[key] < 1.0 + 1e-9


def _mp_poisson(q: int, r: float, m: int, n: int):
    """a_{m,n} of the Poisson kernel from 30-digit mpmath hyp2f1 and Gamma values."""
    import mpmath as mp

    mp.mp.dps = 30
    alpha, r = q - 2, mp.mpf(r)
    h = mp.mpf(m + n + alpha + 1) / (alpha + 1) * mp.binomial(alpha + m, alpha) * mp.binomial(alpha + n, alpha)
    gauss = mp.gamma(m + q) * mp.gamma(n + q) / (mp.gamma(q) * mp.gamma(m + n + q))
    return h / (2 * mp.pi**q / mp.factorial(q - 1)) * r ** (m + n) * mp.hyp2f1(m, n, m + n + q, r * r) * gauss


def test_poisson_entry_at_r_09_against_mpmath():
    # the 32 x 56 rule that extracted this entry before aliased it 62 % off (5.11e-4)
    got = family_coefficients(PoissonSzego(r=0.9, q=2), 12, 12).get(12, 12)
    want = _mp_poisson(2, 0.9, 12, 12)
    assert float(want) == pytest.approx(3.1610621950739532e-4, rel=1e-15)
    assert got.imag == 0.0 and abs(got.real - float(want)) <= 1e-13 * float(want)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_poisson_entries_at_r_099_against_mpmath(q):
    # about 1,500 terms of each 2F1 sum, whose ratios approach r^2 = 0.98
    table = family_coefficients(PoissonSzego(r=0.99, q=q), 12, 12)
    for m, n in [(0, 0), (1, 0), (3, 7), (12, 0), (6, 6), (12, 11), (12, 12)]:
        want = float(_mp_poisson(q, 0.99, m, n))
        assert abs(table.get(m, n).real - want) <= 1e-13 * want, (m, n)


def test_poisson_table_past_the_term_budget_is_one_line_capacity_error():
    from discwalk import CapacityError

    with pytest.raises(CapacityError, match="over the budget of 65536") as exc:
        family_coefficients(PoissonSzego(r=0.9999, q=2), 8, 8)
    assert "\n" not in str(exc.value)
    with pytest.raises(CapacityError):
        family_coefficients(PoissonSzego(r=0.99, q=2), 1000, 1000)


def test_poisson_sum_past_the_float_range_is_rescaled_exactly():
    # 2F1(700, 700; 1402; 0.97) = e^744.68 is past the largest float, e^709.78; a table of
    # degree 1400 at r = 0.985 holds it, within the term budget
    import mpmath as mp

    from discwalk.families import _log_hyp

    mp.mp.dps = 30
    got = _log_hyp(np.array([[700]]), np.array([[700]]), 2, 0.97)[0, 0]
    assert got > math.log(np.finfo(float).max)
    assert got == pytest.approx(float(mp.log(mp.hyp2f1(700, 700, 1402, mp.mpf(0.97)))), rel=1e-15)


def test_poisson_profile_requires_poisson_spec():
    with pytest.raises(DomainError):
        poisson_szego_profile(Exponential(q=2), 3, 3)


def test_coefficient_mass_matches_value_at_one():
    # with R_{m,n}(1) = 1 the full coefficient sum is the kernel value at 1,
    # which each family gives in elementary closed form
    cases = [
        (Aktas(t=0.3, q=2), math.e**0.3 / (1.0 - 0.3)),
        (Aktas(t=0.3, q=3), math.e**0.3 / (1.0 - 0.3) ** 2),
        (Horn(t=0.1, s=0.1, b=2, q=2), (1.0 - 0.1) ** -1 * (1.0 - 0.1 / 0.9) ** -2),
        (Lauricella(t=0.2, s=0.1, b=2, q=3), (1.0 - 0.2) ** -2 * (1.0 - 0.1) ** -2),
    ]
    for spec, want in cases:
        assert complex(eval_family(spec, 1.0 + 0j)).real == pytest.approx(want, rel=1e-12)
        total = coefficient_sum(family_coefficients(spec, 20, 20), tol=1e-9)
        assert total == pytest.approx(want, rel=1e-9)


def test_disc_normalization_against_mpmath_oracle():
    # fully independent route: mpmath Jacobi polynomials + adaptive quadrature
    # confirm both the polynomial normalization and h_{m,n} for fractional alpha
    import mpmath as mp

    from discwalk import disc_norm_h, disc_poly

    mp.mp.dps = 30
    for alpha, m, n in ((2.5, 3, 2), (2.5, 1, 4), (0.5, 2, 2)):
        d, k = abs(m - n), min(m, n)

        def radial(r):
            t = 2 * r * r - 1
            rk = mp.jacobi(k, alpha, d, t) / mp.jacobi(k, alpha, d, 1)
            return (r**d * rk) ** 2 * (1 - r * r) ** alpha * r

        integral = 2 * (alpha + 1) * mp.quad(radial, [0, 1])
        assert disc_norm_h(m, n, alpha) == pytest.approx(float(1 / integral), rel=1e-10)
        # pointwise values against the mpmath Jacobi evaluation
        for z in (0.4 + 0.3j, -0.2 + 0.7j):
            t = 2 * abs(z) ** 2 - 1
            rk = float(mp.jacobi(k, alpha, d, t) / mp.jacobi(k, alpha, d, 1))
            want = z**d * rk if m >= n else np.conj(z) ** d * rk
            assert disc_poly(m, n, alpha, z) == pytest.approx(want, rel=1e-12)


def test_exponential_walk_keeps_all_positive_coefficients():
    from discwalk import descente_z

    table = family_coefficients(Exponential(q=2), 6, 6)
    assert all(v.real > 0.0 for v in table.entries.values())
    walked = descente_z(table)
    assert walked.entries and all(v.real > 0.0 for v in walked.entries.values())
    assert is_pd(walked).ok
    # full-grid support survives the walk, so differences still cover all of Z
    full_pattern = IndexSet.of(progressions=[(0, 1), (0, -1)])
    assert spd_verdict(full_pattern).kind == "certified_exact"


def test_family_json_round_trip_and_errors():
    specs = [
        ProductKernel(m=1, n=0, q=2),
        PoissonSzego(r=0.25, q=3),
        Exponential(q=2),
        Aktas(t=0.4, q=2),
        Horn(t=0.1, s=0.1, b=2, q=2),
        Lauricella(t=0.2, s=0.1, b=2, q=3),
    ]
    for spec in specs:
        doc = family_to_dict(spec)
        assert family_from_dict(doc) == spec
    assert make_family("exponential", 2) == Exponential(q=2)
    with pytest.raises(DomainError):
        make_family("nope", 2)
    with pytest.raises(DomainError):
        make_family("poisson", 2, {})
    with pytest.raises(DomainError):
        make_family("aktas", 2, {"t": 0.3, "bogus": 1.0})


# --------------------------------------------------------------------------
# array evaluation of the series kernels


_SERIES_SPECS = [Horn(t=0.1, s=0.1, b=2, q=q) for q in (2, 3, 4)] + [
    Lauricella(t=0.2, s=0.1, b=2, q=q) for q in (2, 3, 4)
]


def _series_points() -> np.ndarray:
    edge = [0j, 1 + 0j, -1j, np.exp(0.7j), -0.6 + 0.8j]
    return np.concatenate([edge, uniform_disk_points(np.random.default_rng(2024), 11)])


def _series_args(spec, z):
    """(array series, one-point oracle, constant arguments, point arguments) as in eval_family."""
    q, r2 = spec.q, np.abs(z) ** 2
    if isinstance(spec, Horn):
        xs = spec.s * (r2 - 1.0) / (1.0 - spec.s) ** 2
        ys = spec.t / (1.0 - spec.s) * np.conj(z)
        return _horn_h4, horn_h4_oracle, (q - 1.0, float(spec.b)), (xs, ys)
    consts = (q - 1.0, float(spec.b))
    return _lauricella_f14, lauricella_f14_oracle, consts, (spec.s * (r2 - 1.0), spec.t * z, spec.s * r2)


@pytest.mark.parametrize("spec", _SERIES_SPECS, ids=repr)
def test_series_array_matches_one_point_calls(spec):
    z = _series_points()
    got = eval_family(spec, z)
    want = np.array([eval_family(spec, complex(w)) for w in z])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("spec", _SERIES_SPECS, ids=repr)
def test_series_array_matches_one_term_loop(spec):
    series, loop, consts, points = _series_args(spec, _series_points())
    got = series(*consts, *points)
    want = np.array([loop(*consts, *map(complex, pt)) for pt in zip(*points)])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_series_scalar_arguments_give_a_complex():
    h = _horn_h4(2.0, 2.0, -0.05 + 0.01j, 0.1 - 0.02j)
    f = _lauricella_f14(2.0, 2.0, -0.05 + 0j, 0.1 + 0.1j, 0.05 + 0j)
    assert type(h) is complex and type(f) is complex
    assert h == pytest.approx(horn_h4_oracle(2.0, 2.0, -0.05 + 0.01j, 0.1 - 0.02j), rel=1e-14)
    assert f == pytest.approx(
        lauricella_f14_oracle(2.0, 2.0, -0.05 + 0j, 0.1 + 0.1j, 0.05 + 0j), rel=1e-14
    )


def _f14_far_points(count: int = 40) -> list[tuple]:
    """Seeded points past the reach of the p-outer F14 series: |x2| from 1 - x1 up to 0.4 |c+|,
    complex x3 up to 0.85 of the Jacobi radius, non-integer c and b."""
    rng = np.random.default_rng(37)
    points = []
    while len(points) < count:
        c, b, x1 = rng.uniform(0.2, 4.5), rng.uniform(0.5, 3.0), rng.uniform(-0.6, 0.0)
        x3 = rng.uniform(0.3, 0.85) * (1.0 - x1) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        c_plus = 1.0 - x1 + x3 + cmath.sqrt((1.0 - x1 - x3) ** 2 - 4.0 * x1 * x3)
        if 0.4 * abs(c_plus) > 1.0 - x1:
            x2 = rng.uniform(1.0 - x1, 0.4 * abs(c_plus)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            points.append((c, b, x1, x2, x3))
    return points


def test_f14_matches_its_n_outer_series_in_the_far_part_of_its_region():
    for c, b, x1, x2, x3 in _f14_far_points():
        want = lauricella_f14_n_outer_oracle(c, b, x1, x2, x3)
        assert abs(_lauricella_f14(c, b, x1, x2, x3) - want) <= 1e-14 * abs(want), (c, b, x1, x2, x3)


def test_f14_rows_equal_their_2f1_series_and_both_oracles_agree():
    import mpmath as mp

    # the p-series of 2F1 values at the two far points of least |x3|/(1 - x1), the fastest to sum
    for c, _b, x1, _x2, x3 in sorted(_f14_far_points(), key=lambda pt: abs(pt[4]) / (1.0 - pt[2]))[:2]:
        for n in (0, 3):
            with mp.workdps(25):
                c, total = mp.mpf(c), mp.mpc(0)
                for p in range(1000):
                    term = mp.rf(c, p) * mp.mpc(x3) ** p / mp.factorial(p) * mp.hyp2f1(n + p + 1, c + p, c, x1)
                    total += term
                    if abs(term) <= 1e-20 * abs(total):
                        break
                g0, ratio = lauricella_f14_rows(c, x1, x3)
                assert abs(g0 * ratio**n - total) <= 1e-18 * abs(total)
    near = (2.0, 2.0, -0.05, 0.1 + 0.1j, 0.05 + 0j)
    assert lauricella_f14_n_outer_oracle(*near) == pytest.approx(lauricella_f14_oracle(*near), rel=1e-15)


def test_series_array_with_one_diverging_point_raises():
    from discwalk import ConvergenceError

    with pytest.raises(ConvergenceError):
        _lauricella_f14(1.0, 2.0, np.zeros(3), np.zeros(3), np.array([0.1, 2.0, 0.2]))


def _plot_and_gram_points(q: int) -> list[np.ndarray]:
    """The in-disk points of a grid-15 ``plot-data`` and the inner products of a 16-point ``gram``."""
    axis = np.linspace(-1.0, 1.0, 15)
    z = np.repeat(axis, 15) + 1j * np.tile(axis, 15)
    pts = sample_sphere(q, 16, 7).points
    return [z[np.abs(z) <= 1.0], pts @ pts.conj().T]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_horn_array_call_equals_point_calls_bit_for_bit(q):
    spec = Horn(t=0.1, s=0.1, b=2, q=q)
    for z in _plot_and_gram_points(q):
        got = eval_family(spec, z)
        want = np.array([eval_family(spec, complex(w)) for w in z.ravel()]).reshape(z.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("z", [0j, 0.5 + 0j, 1 + 0j, -1 + 0j, 1j])
def test_horn_near_the_series_edge_matches_the_oracle(z):
    # 2 sqrt|x| + |y| is 0.91 at z = 0 and 0.97 at z = 0.5, where the oracle's rows decay slowest
    spec = Horn(t=0.3, s=0.15, b=3, q=2)
    got = eval_family(spec, z)
    x = spec.s * (abs(z) ** 2 - 1.0) / (1.0 - spec.s) ** 2
    want = horn_h4_oracle(1.0, 3.0, x, spec.t * z.conjugate() / (1.0 - spec.s)) / (1.0 - spec.s)
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("q", [6, 8])
@pytest.mark.parametrize("b", [1, 3, 5, 9])
def test_horn_matches_the_oracle_at_larger_q_and_b(q, b):
    # b < q - 1 is the exact Gauss rule, b >= q - 1 the Taylor sum
    spec = Horn(t=0.3, s=0.15, b=b, q=q)
    z = np.array([0.2 + 0j, 1 + 0j, 0.9 * np.exp(2.2j), -0.7j])
    got = eval_family(spec, z)
    xs = spec.s * (np.abs(z) ** 2 - 1.0) / (1.0 - spec.s) ** 2
    ys = spec.t * np.conj(z) / (1.0 - spec.s)
    for w, x, y in zip(got, xs, ys):
        want = horn_h4_oracle(q - 1.0, b, x, y) * (1.0 - spec.s) ** (1 - q)
        assert abs(w - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("q", [2, 3, 7, 12])
@pytest.mark.parametrize("b", [1, 2, 6, 11])
@pytest.mark.parametrize("t, s", [(0.1, 0.1), (0.6, 0.39), (0.94, 0.05), (0.099, 0.9)])
def test_horn_on_the_unit_circle_is_its_binomial_series(q, b, t, s):
    # at |z| = 1, x = 0 and H4 is the binomial series (1 - y)^-b, also next to the edge t = 1 - s;
    # these points have |z|^2 = 1 in floating point, so x is exactly 0
    z = np.array([1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 + 0.6j, -0.6 - 0.8j, 0.28 + 0.96j, (12 - 5j) / 13])
    got = eval_family(Horn(t=t, s=s, b=b, q=q), z)
    c, y = 1.0 - s, t * np.conj(z)
    want = c ** (b - q + 1) * (c - y) ** -b
    assert np.all(np.abs(got - want) <= 4e-15 * (q + b) * np.abs(want))


@pytest.mark.parametrize("b", [12, 30])
@pytest.mark.parametrize("z", [-1 + 0j, -0.9j, -0.9 + 0j, 0.9j])
def test_horn_far_above_b_equal_q_minus_1_matches_the_oracle(b, z):
    # b - q + 1 = 11 and 29 Taylor terms at Re y <= 0, where the Taylor coefficients of the
    # b = q - 1 form at y alternate; the oracle's m-series converges at these points
    spec = Horn(t=0.5, s=0.3, b=b, q=2)
    got = eval_family(spec, z)
    x = spec.s * (abs(z) ** 2 - 1.0) / (1.0 - spec.s) ** 2
    want = horn_h4_oracle(1.0, b, x, spec.t * z.conjugate() / (1.0 - spec.s)) / (1.0 - spec.s)
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("q", [2, 3, 4, 6])
@pytest.mark.parametrize("b", [1, 2, 3, 12, 40])
def test_horn_is_exactly_conjugate_symmetric(q, b):
    # f(conj z) = conj f(z) bit for bit keeps a Gram matrix exactly Hermitian, which its
    # absolute 1e-9 check needs where f(1) is as large as 1e22 (b = 40)
    spec = Horn(t=0.5, s=0.3, b=b, q=q)
    z = np.concatenate([uniform_disk_points(np.random.default_rng(5), 40), [-0.9, 0.3, 1.0, -1.0, 0.0]])
    got = eval_family(spec, z)
    assert np.array_equal(eval_family(spec, np.conj(z)), np.conj(got))
    assert np.all(got[-5:].imag == 0.0)


def test_horn_array_call_equals_point_calls_across_blocks():
    # 64 Taylor terms: the array call sums 1024 points per block
    spec = Horn(t=0.5, s=0.3, b=65, q=3)
    z = uniform_disk_points(np.random.default_rng(3), 1100)
    got = eval_family(spec, z)
    want = np.array([eval_family(spec, complex(w)) for w in z])
    assert got.tobytes() == want.tobytes() == eval_family(spec, z).tobytes()


def test_horn_refuses_a_rule_or_a_sum_over_its_budget():
    from discwalk import CapacityError

    with pytest.raises(CapacityError, match="needs 1026 Taylor terms, over the budget of 1024"):
        eval_family(Horn(t=0.1, s=0.1, b=1026, q=2), 0.5)
    with pytest.raises(CapacityError, match="needs 2049 Gauss nodes, over the budget of 2048"):
        eval_family(Horn(t=0.1, s=0.1, b=1, q=4100), 0.5)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lauricella_array_call_equals_point_calls_bit_for_bit(q):
    spec = Lauricella(t=0.2, s=0.1, b=2, q=q)
    for z in _plot_and_gram_points(q):
        got = eval_family(spec, z)
        want = np.array([eval_family(spec, complex(w)) for w in z.ravel()]).reshape(z.shape)
        assert got.tobytes() == want.tobytes()


def test_lauricella_matches_the_oracle_near_the_parameter_edge():
    # t = 0.45 and s = 0.24, where the oracle's series still converge, and slowly
    spec = Lauricella(t=0.45, s=0.24, b=3, q=4)
    z = uniform_disk_points(np.random.default_rng(11), 5)
    got = eval_family(spec, z)
    r2 = np.abs(z) ** 2
    for w, x1, x2, x3 in zip(got, spec.s * (r2 - 1.0), spec.t * z, spec.s * r2):
        assert abs(w - lauricella_f14_oracle(3.0, 3.0, x1, x2, x3)) <= 1e-14 * abs(w)


@pytest.mark.parametrize("t, b", [(0.83, 1), (0.8, 3)])
def test_lauricella_near_its_t_radius_matches_the_oracle(t, b):
    # |u| = t at |z| = 1 (x1 = 0), where the oracle's n-series decays slowest
    spec = Lauricella(t=t, s=0.05, b=b, q=2)
    angles = np.linspace(0.0, 2.0 * np.pi, 130, endpoint=False)
    z = np.concatenate([np.exp(1j * angles), 0.999 * np.exp(1j * (angles + 0.01))])  # more than one chunk
    got = eval_family(spec, z)
    assert got.tobytes() == np.array([eval_family(spec, complex(w)) for w in z]).tobytes()
    r2 = np.abs(z) ** 2
    for k in (0, 65, 259):
        want = lauricella_f14_oracle(1.0, b, spec.s * (r2[k] - 1.0), spec.t * z[k], spec.s * r2[k])
        assert abs(got[k] - want) <= 1e-14 * abs(want)


def test_lauricella_needs_a_real_x1_inside_the_unit_disk():
    from discwalk import ConvergenceError

    for x1 in (-1.0, 1.0, float("nan")):
        with pytest.raises(ConvergenceError):
            _lauricella_f14(2.0, 2.0, np.array([-0.1, x1]), 0.1, 0.05)
    with pytest.raises(DomainError):
        _lauricella_f14(2.0, 2.0, np.array([-0.1, -0.1 + 0.05j]), 0.1, 0.05)


@pytest.mark.parametrize(
    "x1, x2, x3",
    [
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (float("nan"), 0.0, 0.0),  # |x1| < 1
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1j),  # |x3| < 1 - x1 where x1 <= 0
        (0.25, 0.0, 0.3), (0.25, 0.0, 0.25),  # |x3| < (1 - sqrt(x1))^2 where x1 > 0
        (0.0, 0.0, float("nan")), (0.0, 0.0, float("inf")),
        (0.0, 1.0, 0.5), (0.0, 1j, 0.5), (-0.5, 2.0, 0.0),  # |2 x2| < |c+|
        (0.0, float("nan"), 0.5), (0.0, complex("inf"), 0.5),
        (-0.1 + 0.05j, 0.0, 0.0),  # x1 must be real
    ],
)
def test_lauricella_refuses_outside_the_series_region_before_any_arithmetic(x1, x2, x3):
    # the series diverges there; under errstate(all="raise") a sqrt of a negative
    # number, a division by zero or an inf - inf would surface as FloatingPointError
    from discwalk import ConvergenceError

    error = DomainError if isinstance(x1, complex) else ConvergenceError
    with np.errstate(all="raise"), pytest.raises(error):
        _lauricella_f14(2.0, 2.0, np.array([-0.1, x1]), np.array([0.1, x2]), np.array([0.05, x3]))


def test_lauricella_just_inside_the_p_series_radius_gives_finite_values():
    # a few ulps inside |x3| = (1 - sqrt x1)^2 a rounded R^2 must stay above 0
    x1 = np.linspace(0.01, 0.99, 99)
    x3 = (1.0 - np.sqrt(x1)) ** 2
    for _ in range(3):
        x3 = np.nextafter(x3, 0.0)
        with np.errstate(all="raise"):
            assert np.all(np.isfinite(_lauricella_f14(2.5, 2.0, x1, 0.0, x3)))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("D", [8, 16])
def test_lauricella_extraction_matches_the_exact_table(q, D):
    # the closed form through the whole quadrature path, against the coefficient formula
    from discwalk import expand
    from helpers import table_max_diff

    spec = Lauricella(t=0.2, s=0.1, b=2, q=q)
    extracted = expand(lambda z: eval_family(spec, z), q - 2, D, D)
    assert table_max_diff(extracted, family_coefficients(spec, D, D)) <= 1e-11


@pytest.mark.parametrize("q", [6, 8])
@pytest.mark.parametrize("b", [1, 5])
def test_lauricella_matches_the_oracle_at_larger_q_and_b(q, b):
    # t = 0.45 and s = 0.24, where the oracle's series still converge
    spec = Lauricella(t=0.45, s=0.24, b=b, q=q)
    z = np.array([0j, 1 + 0j, 0.9 * np.exp(2.2j)])
    got = eval_family(spec, z)
    r2 = np.abs(z) ** 2
    for w, x1, x2, x3 in zip(got, spec.s * (r2 - 1.0), spec.t * z, spec.s * r2):
        assert abs(w - lauricella_f14_oracle(q - 1.0, b, x1, x2, x3)) <= 1e-14 * abs(w)


# --------------------------------------------------------------------------
# the whole parameter domain of the hypergeometric kernels

_DISK_GRID = np.outer([0.0, 0.5, 0.9, 0.99, 1.0], np.exp(2j * np.pi * np.arange(7) / 7)).ravel()


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from([Horn, Lauricella]),
    s=st.floats(0.005, 0.995),
    share=st.floats(0.005, 0.995),
    b=st.integers(1, 5),
    q=st.integers(2, 5),
)
def test_every_accepted_spec_matches_its_exact_table_within_the_tail(family, s, share, b, q):
    # t = share (1 - s) covers Horn's 0 < t < 1 - s, t = share Lauricella's 0 < t < 1.
    # Every coefficient is positive and |R_{m,n}| <= 1 on the disk, so a truncated
    # table is within its tail f(1) - (table sum) of the kernel everywhere; a draw whose
    # 100 x 100 table leaves over 1e-3 f(1) is evaluated but not compared.
    t = share * (1.0 - s) if family is Horn else share
    spec = family(t=t, s=s, b=b, q=q)
    f1 = (1.0 - s) ** (1 - q) * (1.0 - (t / (1.0 - s) if family is Horn else t)) ** -b
    got = eval_family(spec, _DISK_GRID)
    assert np.all(np.isfinite(got))
    table = family_coefficients(spec, 100, 100)
    tail = f1 - coefficient_sum(table, tol=0.0)
    assert tail >= -1e-12 * f1
    assume(tail <= 1e-3 * f1)
    assert np.all(np.abs(got - synthesize(table, _DISK_GRID)) <= tail + 1e-12 * f1)


# --------------------------------------------------------------------------
# exact coefficient tables beyond the float range of the factorials


def _mp_coefficient(spec, key_m: int, key_n: int):
    import mpmath as mp

    q, f = spec.q, mp.factorial
    if isinstance(spec, Exponential):
        alpha, nu = q - 2, key_m + key_n + q - 1
        h = mp.mpf(key_m + key_n + alpha + 1) / (alpha + 1)
        h *= mp.binomial(alpha + key_m, alpha) * mp.binomial(alpha + key_n, alpha)
        return h * f(q - 1) * mp.fsum(1 / (f(j) * f(nu + j)) for j in range(30))
    if isinstance(spec, Aktas):
        m, n = key_m - key_n, key_n
        return mp.rf(q - 1, n) * mp.mpf(spec.t) ** (m + n) / (f(m) * f(n))
    if isinstance(spec, Horn):
        m, n = key_m, key_n - key_m
        return mp.rf(q + n - 1, m) * mp.rf(spec.b, n) * mp.mpf(spec.t) ** n * mp.mpf(spec.s) ** m / (f(m) * f(n))
    m, n = key_m - key_n, key_n
    return mp.rf(q - 1, n) * mp.rf(spec.b, m) * mp.mpf(spec.t) ** m * mp.mpf(spec.s) ** n / (f(m) * f(n))


@pytest.mark.parametrize(
    "spec",
    [Exponential(q=2), Aktas(t=0.3, q=3), Horn(t=0.1, s=0.1, b=2, q=4), Lauricella(t=0.2, s=0.1, b=2, q=2)],
    ids=repr,
)
def test_exact_coefficients_beyond_factorial_overflow(spec):
    import mpmath as mp

    mp.mp.dps = 30
    table = family_coefficients(spec, 200, 200)
    values = np.array([v.real for v in table.entries.values()])
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    assert all(v.imag == 0.0 for v in table.entries.values())
    keys = sorted(table.entries)
    sample = keys[::211] + [k for k in keys if max(k) <= 64][::53] + [keys[-1]]
    for key in sample:
        ref = _mp_coefficient(spec, *key)
        if ref < mp.mpf("1e-300"):
            continue
        rel = abs(mp.mpf(table.get(*key).real) - ref) / ref
        assert rel <= (1e-12 if max(key) <= 64 else 1e-10), (key, float(rel))
