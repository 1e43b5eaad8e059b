"""Disk quadrature rule, coefficient extraction/synthesis, table IO."""

import json
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from discwalk import (
    CapacityError,
    CoefficientTable,
    DomainError,
    build_rule,
    coefficient_sum,
    default_rule,
    disc_poly,
    expand,
    synthesize,
)
from helpers import (
    coefficient_sum_loop,
    extract_coefficient,
    integrate,
    random_table,
    simpson_disk_integral,
    simpson_disk_monomial,
    synthesize_loop,
    uniform_disk_points,
)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 2.5, -0.5])
def test_rule_has_unit_mass_and_interior_nodes(alpha):
    rule = build_rule(alpha, 12, 20)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert integrate(rule, lambda z: np.ones_like(z)) == pytest.approx(1.0, abs=1e-13)


def test_rule_alpha_zero_radial_nodes_are_legendre():
    rule = build_rule(0.0, 9, 8)
    u, _ = sp.roots_legendre(9)
    assert np.allclose(np.sort(2.0 * rule.radial_nodes**2 - 1.0), np.sort(u), atol=1e-13)


def test_rule_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_rule(-1.0, 4, 4)
    with pytest.raises(DomainError):
        build_rule(0.0, 0, 4)


def test_orthogonality_against_constant():
    rule = build_rule(1.0, 16, 24)
    for m, n in [(1, 0), (2, 2), (0, 3), (4, 1)]:
        val = integrate(rule, lambda z: disc_poly(m, n, 1.0, z))
        assert abs(val) < 1e-14


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_monomial_exactness_vs_simpson_oracle(alpha):
    rule = build_rule(alpha, 10, 16)
    for a in range(4):
        for b in range(4):
            got = integrate(rule, lambda z: z**a * np.conj(z) ** b)
            ref = simpson_disk_monomial(a, b, alpha)
            assert abs(got - ref) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_monomial_exactness_vs_beta_closed_form(alpha):
    # int z^a conj(z)^b dnu = delta_{ab} * a! / (alpha+2)_a
    from discwalk import pochhammer

    rule = build_rule(alpha, 10, 16)
    for a in range(5):
        got = integrate(rule, lambda z: z**a * np.conj(z) ** a)
        want = math.factorial(a) / pochhammer(alpha + 2.0, a)
        assert got == pytest.approx(want, rel=1e-13)
    assert abs(integrate(rule, lambda z: z**2 * np.conj(z))) < 1e-15


def test_general_simpson_oracle_on_smooth_function():
    rule = build_rule(0.0, 20, 32)
    f = lambda z: np.exp(2.0 * np.real(z))
    got = integrate(rule, f)
    ref = simpson_disk_integral(f, 0.0, r_panels=1024, t_panels=512)
    assert abs(got - ref) < 1e-10


def test_extract_orthonormality():
    rule = build_rule(0.0, 16, 24)
    f = lambda z: disc_poly(2, 1, 0.0, z)
    assert extract_coefficient(f, 2, 1, rule) == pytest.approx(1.0, abs=1e-11)
    for m, n in [(0, 0), (1, 2), (2, 2), (3, 1), (1, 1)]:
        assert abs(extract_coefficient(f, m, n, rule)) < 1e-11


def test_extract_constant():
    rule = build_rule(2.0, 10, 16)
    assert extract_coefficient(lambda z: np.ones_like(z), 0, 0, rule) == pytest.approx(1.0, abs=1e-13)


def test_extract_exponential_leading_coefficient():
    # a_{0,0} at alpha = 0 equals sum_j 1/(j! (j+1)!)
    rule = build_rule(0.0, 24, 40)
    got = extract_coefficient(lambda z: np.exp(2.0 * np.real(z)), 0, 0, rule)
    want = sum(1.0 / (math.factorial(j) * math.factorial(j + 1)) for j in range(25))
    assert got == pytest.approx(want, rel=1e-13)


def test_extraction_is_linear():
    rule = build_rule(1.0, 12, 20)
    f = lambda z: disc_poly(2, 1, 1.0, z)
    g = lambda z: np.exp(2.0 * np.real(z))
    lam = 0.37 - 1.2j
    for m, n in [(0, 0), (2, 1), (1, 1)]:
        lhs = extract_coefficient(lambda z: f(z) + lam * g(z), m, n, rule)
        rhs = extract_coefficient(f, m, n, rule) + lam * extract_coefficient(g, m, n, rule)
        assert abs(lhs - rhs) < 1e-13


def test_expand_matches_extract_entrywise():
    rule = build_rule(1.5, 14, 24)
    f = lambda z: np.exp(2.0 * np.real(z)) + z**2
    table = expand(f, 1.5, 3, 3, rule)
    for (m, n), v in table.entries.items():
        assert v == pytest.approx(extract_coefficient(f, m, n, rule), abs=1e-13)


def test_expand_recovers_sparse_tables():
    t = expand(lambda z: 3.0 * disc_poly(1, 1, 0.5, z), 0.5, 3, 3)
    assert t.get(1, 1) == pytest.approx(3.0, abs=1e-11)
    for key, v in t.entries.items():
        if key != (1, 1):
            assert abs(v) < 1e-11
    t2 = expand(lambda z: z, 2.0, 2, 2)
    assert t2.get(1, 0) == pytest.approx(1.0, abs=1e-11)


def test_expand_capacity_and_alpha_checks():
    small = build_rule(0.0, 4, 4)
    with pytest.raises(CapacityError):
        expand(lambda z: z, 0.0, 3, 3, small)
    rule = build_rule(0.0, 20, 30)
    with pytest.raises(DomainError):
        expand(lambda z: z, 1.0, 2, 2, rule)


def test_default_rule_capacity():
    rule = default_rule(1.0, 5, 4)
    assert rule.radial_order >= 5 + 4 + 2
    assert rule.angular_order >= 2 * 9 + 1


def test_synthesize_basics():
    empty = CoefficientTable(alpha=0.0, entries={})
    assert synthesize(empty, 0.3 + 0.1j) == 0
    const = CoefficientTable(alpha=0.0, entries={(0, 0): 2.5 - 1j})
    assert synthesize(const, -0.4j) == pytest.approx(2.5 - 1j, abs=0)
    with pytest.raises(DomainError):
        synthesize(const, 1.2)


def test_synthesize_array_and_grouping():
    table = CoefficientTable(alpha=1.0, entries={(2, 0): 1.0, (0, 2): 1.0, (1, 1): -0.5, (3, 1): 2.0})
    rng = np.random.default_rng(9)
    pts = uniform_disk_points(rng, 13)
    vec = synthesize(table, pts)
    for i, z in enumerate(pts):
        direct = sum(v * disc_poly(m, n, 1.0, z) for (m, n), v in table.entries.items())
        assert vec[i] == pytest.approx(direct, abs=1e-13)


def _one_sign_table(rng, alpha):
    # d = m - n >= 0 only, several degrees per frequency
    return CoefficientTable(alpha=alpha, entries={
        (m, n): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(7) for n in range(m + 1)
    })


def _sparse_table(alpha):
    # rows with gaps: d = 3 reads degrees 0 and 5, d = -3 only degree 1
    return CoefficientTable(alpha=alpha, entries={
        (3, 0): 0.5, (8, 5): -0.25 + 0.1j, (1, 4): 0.7, (6, 6): 1.5, (0, 9): 0.3j, (2, 0): 1.0,
    })


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("shape", ["one sign", "both signs", "sparse"])
def test_synthesize_is_bit_equal_to_one_recurrence_per_signed_frequency(alpha, shape):
    rng = np.random.default_rng(int(alpha * 10) + 100)
    if shape == "one sign":
        table = _one_sign_table(rng, alpha)
    elif shape == "both signs":
        table = random_table(rng, alpha, 11, 60, lo=-1.0)
    else:
        table = _sparse_table(alpha)
    z = uniform_disk_points(rng, 500)
    assert np.array_equal(synthesize(table, z), synthesize_loop(table, z))


def test_synthesize_runs_one_recurrence_per_distinct_abs_frequency(monkeypatch):
    import discwalk.quadrature as quadrature

    calls = []
    jacobi = quadrature.jacobi_R_all
    monkeypatch.setattr(quadrature, "jacobi_R_all", lambda k, a, b, t: calls.append((b, k)) or jacobi(k, a, b, t))
    table = _sparse_table(1.0)
    synthesize(table, uniform_disk_points(np.random.default_rng(1), 20))
    # |d| = 3 (d = 3 up to degree 5, d = -3 up to 1), 0, 9 and 2
    assert sorted(calls) == [(0, 6), (2, 0), (3, 5), (9, 0)]


def test_expand_synthesize_round_trip_polynomial():
    table = CoefficientTable(alpha=0.0, entries={(0, 0): 0.3, (1, 0): 1.0, (2, 1): -0.7, (1, 1): 0.25})
    f = lambda z: synthesize(table, z)
    back = expand(f, 0.0, 3, 3)
    xs = np.linspace(-0.99, 0.99, 21)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    grid = grid[np.abs(grid) <= 1.0]
    err = np.max(np.abs(synthesize(back, grid) - f(grid)))
    assert err < 1e-10


def test_coefficient_sum_basics():
    t = CoefficientTable(alpha=0.0, entries={(0, 0): 1.0, (1, 0): 2.0})
    assert coefficient_sum(t) == 3.0
    bad = CoefficientTable(alpha=0.0, entries={(0, 0): -1.0})
    with pytest.raises(DomainError):
        coefficient_sum(bad)
    noisy = CoefficientTable(alpha=0.0, entries={(0, 0): 1.0 + 1e-12j, (1, 0): -1e-12})
    assert coefficient_sum(noisy, tol=1e-10) == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(DomainError):
        coefficient_sum(noisy, tol=1e-13)


_NONFINITE = [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, math.inf), complex(math.inf, 0.0)]
_KEYS = st.tuples(st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(_KEYS, st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1.0)), max_size=60),
    st.dictionaries(
        _KEYS,
        st.one_of(
            st.floats(-1e6, 0.0),                                               # negative
            st.builds(complex, st.floats(0.0, 1.0), st.floats(-1e-9, 1e-9)),     # imaginary
            st.builds(complex, st.floats(-1e-9, 1e-9), st.floats(-1e-11, 1e-11)),
            st.sampled_from(_NONFINITE),
        ),
        max_size=6,
    ),
    st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1.0]),
)
def test_coefficient_sum_matches_the_per_entry_gate(clean, injected, tol):
    table = CoefficientTable(alpha=0.5, entries={**clean, **injected})
    try:
        want = coefficient_sum_loop(table, tol)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            coefficient_sum(table, tol)
        assert str(got.value) == str(exc)
        return
    assert repr(coefficient_sum(table, tol)) == repr(want)


def test_coefficient_sum_exponential_converges_to_e_squared():
    f = lambda z: np.exp(2.0 * np.real(z))
    sums = []
    for t in (4, 8, 12):
        table = expand(f, 0.0, t, t)
        sums.append(coefficient_sum(table, tol=1e-9))
    assert sums[0] < sums[1] < sums[2] <= math.e**2 + 1e-9
    assert sums[2] == pytest.approx(math.e**2, rel=1e-6)


def test_table_validation():
    with pytest.raises(DomainError):
        CoefficientTable(alpha=-1.5, entries={})
    with pytest.raises(DomainError):
        CoefficientTable(alpha=0.0, entries={(-1, 0): 1.0})


def test_table_json_round_trip_is_exact():
    rng = np.random.default_rng(1)
    entries = {
        (int(rng.integers(0, 9)), int(rng.integers(0, 9))): complex(rng.standard_normal(), rng.standard_normal())
        for _ in range(20)
    }
    t = CoefficientTable(alpha=1.25, entries=entries)
    back = CoefficientTable.loads(t.dumps())
    assert back.alpha == t.alpha
    assert back.entries == t.entries  # bit-exact floats via repr round trip


def test_tables_read_from_a_file_are_of_unknown_source(tmp_path):
    t = expand(lambda z: np.exp(2.0 * np.real(z)), 0.0, 2, 2)
    assert t.source == "extracted"
    path = tmp_path / "t.json"
    t.save(path)
    assert CoefficientTable.load(path).source == "unknown"
    assert CoefficientTable.loads(t.dumps()).source == "unknown"
    assert CoefficientTable.from_dict(t.to_dict()).source == "unknown"
    assert CoefficientTable.loads(t.dumps(), source="extracted").source == "extracted"


def test_table_json_sorted_and_schema():
    t = CoefficientTable(alpha=0.0, entries={(2, 0): 1.0, (0, 1): 2.0, (0, 0): 3.0})
    doc = json.loads(t.dumps())
    keys = [(e["m"], e["n"]) for e in doc["entries"]]
    assert keys == sorted(keys)
    assert set(doc) == {"alpha", "entries"}
    assert set(doc["entries"][0]) == {"m", "n", "re", "im"}


def test_table_json_malformed():
    with pytest.raises(DomainError):
        CoefficientTable.loads("{not json")
    with pytest.raises(DomainError):
        CoefficientTable.loads('{"alpha": 0.0}')


@settings(max_examples=30)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        max_size=12,
    )
)
def test_table_round_trip_property(entries):
    t = CoefficientTable(alpha=0.5, entries=entries)
    assert CoefficientTable.loads(t.dumps()).entries == t.entries


def test_kernel_error_on_array_input_propagates_from_the_first_call():
    calls = []

    def one_point_at_a_time(z):
        calls.append(np.ndim(z))
        if np.ndim(z):
            raise DomainError("this kernel takes one point at a time")
        return 1.0

    with pytest.raises(DomainError, match="one point at a time"):
        integrate(build_rule(0.0, 4, 6), one_point_at_a_time)
    assert calls == [1]


def test_kernel_callables_must_accept_arrays():
    rule = build_rule(0.0, 4, 6)
    with pytest.raises(DomainError, match="ndarray") as info:
        integrate(rule, lambda z: complex(z))
    assert "\n" not in str(info.value)
    with pytest.raises(DomainError, match="shape") as info:
        expand(lambda z: np.ones(3), 0.0, 1, 1)
    assert "\n" not in str(info.value)
    assert integrate(rule, lambda z: 2.0) == pytest.approx(2.0, abs=1e-13)
