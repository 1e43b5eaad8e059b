"""Descente/Montee coefficient transforms: formulas, round trips, positivity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discwalk import (
    CoefficientTable,
    DomainError,
    MonteeResult,
    descente_x,
    descente_z,
    descente_zbar,
    disc_poly_at_zero,
    eval_family,
    expand,
    make_family,
    montee_z,
    montee_zbar,
    synthesize,
)
from helpers import random_table, table_max_diff, uniform_disk_points, wirtinger_dz, wirtinger_dzbar


def test_descente_z_single_entry():
    t = CoefficientTable(alpha=0.0, entries={(1, 0): 2.0})
    out = descente_z(t)
    assert out.alpha == 1.0
    assert out.entries == {(0, 0): 2.0 + 0j}


def test_descente_z_suppresses_m0():
    t = CoefficientTable(alpha=1.0, entries={(0, 3): 5.0})
    assert descente_z(t).entries == {}


def test_descente_zbar_single_entry():
    t = CoefficientTable(alpha=0.0, entries={(0, 1): 2.0})
    out = descente_zbar(t)
    assert out.entries == {(0, 0): 2.0 + 0j}
    assert descente_zbar(CoefficientTable(alpha=0.5, entries={(3, 0): 5.0})).entries == {}


def test_descente_conjugation_duality():
    rng = np.random.default_rng(2)
    t = random_table(rng, 1.0, 5, 10, signed=True)
    swapped = CoefficientTable(alpha=1.0, entries={(n, m): v for (m, n), v in t.entries.items()})
    lhs = descente_zbar(t)
    rhs = descente_z(swapped)
    rhs_swapped = CoefficientTable(alpha=rhs.alpha, entries={(n, m): v for (m, n), v in rhs.entries.items()})
    assert table_max_diff(lhs, rhs_swapped) < 1e-15


def test_descente_x_is_sum_and_collapses_on_axis():
    t = CoefficientTable(alpha=0.0, entries={(1, 0): 1.0, (0, 1): 1.0})
    out = descente_x(t)
    assert out.entries == {(0, 0): 2.0 + 0j}
    axis = CoefficientTable(alpha=0.0, entries={(2, 0): 0.7, (5, 0): 0.2})
    assert table_max_diff(descente_x(axis), descente_z(axis)) == 0.0


def test_descente_matches_wirtinger_finite_differences():
    rng = np.random.default_rng(7)
    t = random_table(rng, 0.0, 3, 6)
    f = lambda z: synthesize(t, z)
    dz_t = descente_z(t)
    dzbar_t = descente_zbar(t)
    dx_t = descente_x(t)
    for z in uniform_disk_points(rng, 8, rmax=0.9):
        fd_dz = wirtinger_dz(f, z)
        fd_dzbar = wirtinger_dzbar(f, z)
        assert abs(synthesize(dz_t, z) - fd_dz) <= 1e-6 * max(1.0, abs(fd_dz))
        assert abs(synthesize(dzbar_t, z) - fd_dzbar) <= 1e-6 * max(1.0, abs(fd_dzbar))
        assert abs(synthesize(dx_t, z) - (fd_dz + fd_dzbar)) <= 2e-6 * max(1.0, abs(fd_dz + fd_dzbar))


def test_montee_z_of_constant_is_z():
    t = CoefficientTable(alpha=2.0, entries={(0, 0): 1.0})
    res = montee_z(t)
    assert res.table.alpha == 1.0
    assert res.table.entries == {(1, 0): 1.0 + 0j}
    assert res.constant == 0.0


def test_montee_zbar_of_constant_is_zbar():
    res = montee_zbar(CoefficientTable(alpha=2.0, entries={(0, 0): 1.0}))
    assert res.table.entries == {(0, 1): 1.0 + 0j}
    assert res.constant == 0.0


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_montee_z_reproduces_abs_square_symbolically(alpha):
    # input conj(z) at level alpha+1; primitive is |z|^2
    t = CoefficientTable(alpha=float(alpha + 1), entries={(0, 1): 1.0})
    res = montee_z(t)
    # exact rational oracle: entry = (alpha+1)/(alpha+2), constant = 1/(alpha+2)
    entry = Fraction(alpha + 1, alpha + 2)
    const = -entry * Fraction(-1, alpha + 1)
    assert const == Fraction(1, alpha + 2)
    assert abs(res.constant - float(const)) < 1e-15
    assert abs(res.table.get(1, 1) - float(entry)) < 1e-15
    rng = np.random.default_rng(alpha)
    for z in uniform_disk_points(rng, 5):
        assert res.constant + synthesize(res.table, z) == pytest.approx(abs(z) ** 2, abs=1e-14)


def test_montee_target_level_must_stay_valid():
    t = CoefficientTable(alpha=0.0, entries={(0, 0): 1.0})
    with pytest.raises(DomainError):
        montee_z(t)
    with pytest.raises(DomainError):
        montee_zbar(t)


def test_montee_rejects_tables_with_nonreal_constant():
    # (0,1) maps onto the output diagonal (1,1), whose origin value feeds the constant
    t = CoefficientTable(alpha=2.0, entries={(0, 1): 1.0j})
    with pytest.raises(DomainError):
        montee_z(t)


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.floats(-10, 10, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from([1.0, 2.0, 3.5]),
)
def test_round_trips_are_exact(entries, alpha):
    t = CoefficientTable(alpha=alpha, entries=entries)
    assert table_max_diff(descente_z(montee_z(t).table), t) < 1e-13
    assert table_max_diff(descente_zbar(montee_zbar(t).table), t) < 1e-13


def test_montee_after_descente_drops_first_column_and_restores_constant():
    rng = np.random.default_rng(21)
    t = random_table(rng, 1.0, 4, 12)
    res = montee_z(descente_z(t))
    survived = {k: v for k, v in t.entries.items() if k[0] >= 1}
    assert table_max_diff(res.table, CoefficientTable(alpha=1.0, entries=survived)) < 1e-13
    want_const = -sum(
        v.real * disc_poly_at_zero(n, n, 1.0) for (m, n), v in survived.items() if m == n
    )
    assert res.constant == pytest.approx(want_const, abs=1e-13)


def test_montee_is_a_genuine_primitive():
    rng = np.random.default_rng(4)
    t = random_table(rng, 2.0, 3, 8)
    res = montee_z(t)
    g = lambda w: res.constant + synthesize(res.table, w)
    for z in uniform_disk_points(rng, 6, rmax=0.9):
        want = synthesize(t, z)
        got = wirtinger_dz(g, z)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
    res_b = montee_zbar(t)
    gb = lambda w: res_b.constant + synthesize(res_b.table, w)
    for z in uniform_disk_points(rng, 6, rmax=0.9):
        want = synthesize(t, z)
        got = wirtinger_dzbar(gb, z)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_walks_preserve_nonnegativity_exactly():
    rng = np.random.default_rng(31)
    for _ in range(25):
        t = random_table(rng, 2.0, 6, 12)
        for out in (descente_z(t), descente_zbar(t), descente_x(t)):
            assert all(v.real >= 0.0 and v.imag == 0.0 for v in out.entries.values())
        for res in (montee_z(t), montee_zbar(t)):
            assert all(v.real >= 0.0 and v.imag == 0.0 for v in res.table.entries.values())


def test_wirtinger_on_elementary_functions():
    assert wirtinger_dz(lambda z: z, 0.2 + 0.1j) == pytest.approx(1.0, abs=1e-9)
    assert abs(wirtinger_dzbar(lambda z: z, 0.2 + 0.1j)) < 1e-9
    z0 = 0.4 - 0.3j
    assert wirtinger_dz(lambda z: abs(z) ** 2, z0) == pytest.approx(np.conj(z0), abs=1e-6)
    assert wirtinger_dzbar(lambda z: abs(z) ** 2, z0) == pytest.approx(z0, abs=1e-6)


def test_wirtinger_stencil_must_stay_inside():
    with pytest.raises(DomainError):
        wirtinger_dz(lambda z: z, 0.999999 + 0j, 1e-5)


@pytest.mark.parametrize("q", [2, 3])
def test_families_descente_matches_finite_difference_expansion(q):
    specs = [
        make_family("product", q, {"m": 2, "n": 1}),
        make_family("poisson", q, {"r": 0.4}),
        make_family("exponential", q),
        make_family("aktas", q, {"t": 0.3}),
        make_family("horn", q, {"t": 0.1, "s": 0.1, "b": 2}),
        make_family("lauricella", q, {"t": 0.2, "s": 0.1, "b": 2}),
    ]
    alpha = float(q - 2)
    for spec in specs:
        f = lambda z: eval_family(spec, z)
        base = expand(f, alpha, 3, 3)
        walked = descente_z(base)
        fd = lambda z: (f(z + 1e-5) - f(z - 1e-5) - 1j * (f(z + 1e-5j) - f(z - 1e-5j))) / 4e-5
        numeric = expand(fd, alpha + 1.0, 3, 3)
        for m in range(3):
            for n in range(4):
                ref = walked.get(m, n)
                assert abs(numeric.get(m, n) - ref) <= 1e-5 * max(1.0, abs(ref)), (spec, m, n)


def test_montee_result_json_round_trip():
    t = CoefficientTable(alpha=2.0, entries={(0, 1): 1.0, (2, 2): 0.5})
    res = montee_z(t)
    back = MonteeResult.loads(res.dumps())
    assert back.constant == res.constant
    assert back.table.entries == res.table.entries
    assert back.table.alpha == res.table.alpha
