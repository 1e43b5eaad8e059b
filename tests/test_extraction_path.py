"""The coefficient-extraction path: vectorised ``expand`` against the per-entry
loop, array-``beta`` Jacobi rows, the table writer against ``json.dumps``, and
the non-finite inputs that path must refuse."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discwalk.quadrature as quadrature
from discwalk import (
    CoefficientTable,
    DomainError,
    Exponential,
    IndexSet,
    MonteeResult,
    build_rule,
    cli,
    coefficient_sum,
    default_rule,
    disc_norm_h,
    disc_poly,
    eval_family,
    expand,
    family_coefficients,
    is_pd,
    jacobi_R_all,
    make_family,
    sigma_2q,
    synthesize,
)
from discwalk.special import _block_plan, disc_norm_h_rows, jacobi_R_blocks
from helpers import expand_loop, expand_one_block, jacobi_rows_loop


def _bumpy(z):
    # not a polynomial, not symmetric in (z, conj z): every entry is nonzero
    return np.exp(0.7 * z + 0.2 * np.conj(z) ** 2) / (1.5 - 0.4 * z * np.conj(z))


def _rounding_bound(f, rule, m_max: int, n_max: int) -> np.ndarray:
    """4 h_{m,n} eps sum_i |w_i f(z_i)| (m + n + 1) as an (m, n) array: how far
    two roundings of the same quadrature sum may differ at (m, n).  An FFT and
    the direct DFT of ``expand_loop`` sum in different orders; the worst ratio
    over these tests and the closed-form families at D = 64 is about 0.25."""
    mass = np.sum(rule.weights * np.abs(f(rule.nodes)))
    m = np.arange(m_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    return 4.0 * disc_norm_h_rows(m_max, n_max, rule.alpha) * np.finfo(float).eps * mass * (m + n + 1)


def _assert_close_to_loop(f, alpha, m_max, n_max, rule=None) -> None:
    rule = rule or default_rule(alpha, m_max, n_max)
    a = expand(f, alpha, m_max, n_max, rule)
    b = expand_loop(f, alpha, m_max, n_max, rule)
    assert a.alpha == b.alpha
    assert list(a.entries) == list(b.entries)  # same keys in the same order, (m, n) row-major
    diff = np.abs(np.array(list(a.entries.values())) - np.array(list(b.entries.values())))
    assert np.all(diff.reshape(m_max + 1, n_max + 1) <= _rounding_bound(f, rule, m_max, n_max))


@pytest.mark.parametrize(
    "alpha, m_max, n_max, orders",
    [
        (0.0, 6, 6, None),
        (1.0, 9, 4, None),
        (2.0, 3, 11, None),
        (1.0, 0, 7, None),
        (0.0, 5, 0, None),
        (0.0, 0, 0, None),
        (-0.5, 7, 5, None),
        (0.7, 4, 8, None),
        (0.7, 6, 6, (15, 31)),
        (-0.5, 2, 9, (40, 23)),
        (1.0, 16, 16, (50, 80)),
        (1.0, 64, 64, None),
        (0.0, 40, 17, None),
    ],
)
def test_expand_equals_per_entry_loop(alpha, m_max, n_max, orders):
    rule = build_rule(alpha, *orders) if orders else None
    _assert_close_to_loop(_bumpy, alpha, m_max, n_max, rule)


@pytest.mark.parametrize("family, params, q", [("poisson", {"r": 0.5}, 3), ("aktas", {"t": 0.3}, 4)])
def test_expand_equals_per_entry_loop_on_families(family, params, q):
    spec = make_family(family, q, params)
    _assert_close_to_loop(lambda z: eval_family(spec, z), q - 2.0, 24, 24)


@pytest.mark.parametrize("angular", [37, 40])  # the least order for D = 9 + 9, and an even one
@pytest.mark.parametrize("m, n", [(9, 0), (0, 9), (3, 7), (7, 3), (5, 5)])
def test_expand_of_one_disc_polynomial_is_its_unit_entry(m, n, angular):
    # frequency d = m - n is read from FFT bin d mod K: a negative d from bin K - |d|
    alpha = 1.0
    rule = build_rule(alpha, 26, angular)  # default_rule's radial order for D = 9 + 9
    f = lambda z: disc_poly(m, n, alpha, z)  # noqa: E731
    table = expand(f, alpha, 9, 9, rule)
    unit = np.zeros((10, 10))
    unit[m, n] = 1.0
    values = np.array(list(table.entries.values())).reshape(10, 10)
    assert np.all(np.abs(values - unit) <= _rounding_bound(f, rule, 9, 9))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_product_table_matches_expand(q):
    # expand is exact for polynomials, so it differs from the correctly rounded exact table by
    # its own rounding only.  That exceeds the FFT-vs-DFT bound by up to 1.78x (q = 4,
    # z^4 conj(z)^4 at (0, 0)), the rule's own error, so the check allows twice the bound.
    for m in range(7):
        for n in range(5):
            spec = make_family("product", q, {"m": m, "n": n})
            f = lambda z: eval_family(spec, z)
            rule = default_rule(q - 2.0, 6, 4)
            exact, extracted = family_coefficients(spec, 6, 4), expand(f, q - 2.0, 6, 4, rule)
            diff = np.array([[abs(exact.get(i, k) - extracted.get(i, k)) for k in range(5)] for i in range(7)])
            assert np.all(diff <= 2.0 * _rounding_bound(f, rule, 6, 4)), (m, n)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
def test_poisson_table_matches_expand_on_a_fine_rule(q, r):
    # an 80 x 400 rule leaves no aliasing above rounding at D = 12; the worst difference is
    # 3.4 times the rounding bound (q = 5, r = 0.9), as the exact entries carry their lgamma
    # rounding (about 1e-14 relative) as well, so the check allows eight times it
    spec = make_family("poisson", q, {"r": r})
    f = lambda z: eval_family(spec, z)
    rule = build_rule(q - 2.0, 80, 400)
    exact, extracted = family_coefficients(spec, 12, 12), expand(f, q - 2.0, 12, 12, rule)
    diff = np.array([[abs(exact.get(i, k) - extracted.get(i, k)) for k in range(13)] for i in range(13)])
    assert np.all(diff <= 8.0 * _rounding_bound(f, rule, 12, 12))


@pytest.mark.parametrize("q", [2, 3])
def test_poisson_table_mass_is_the_value_at_one(q):
    # every coefficient is positive and R_{m,n}(1) = 1, so the table sum falls short of
    # f(1) = ((1+r)/(1-r))^q / sigma_2q by the tail alone; with S_{m,n} <= r^(m+n) that tail
    # is below sum h_{m,n} r^(m+n) / sigma_2q over the keys outside the table
    r, D = 0.5, 60
    spec = make_family("poisson", q, {"r": r})
    f1 = ((1.0 + r) / (1.0 - r)) ** q / sigma_2q(q)
    mass = math.fsum(v.real for v in family_coefficients(spec, D, D).entries.values())
    tail = sum(
        disc_norm_h(m, d - m, q - 2.0) * r**d for d in range(D + 1, 400) for m in range(d + 1) if max(m, d - m) > D
    ) / sigma_2q(q)
    assert -1e-14 * f1 <= f1 - mass <= tail + 1e-14 * f1


def test_expand_runs_one_jacobi_recurrence(monkeypatch):
    calls = []
    real = quadrature.jacobi_R_blocks

    def counting(*args):
        calls.append(args[:3])
        return real(*args)

    monkeypatch.setattr(quadrature, "jacobi_R_blocks", counting)
    expand(_bumpy, 1.0, 9, 4)
    assert len(calls) == 1
    assert list(calls[0][2]) == list(range(10))


def _assert_same_table(a: CoefficientTable, b: CoefficientTable) -> None:
    assert (a.alpha, a.source) == (b.alpha, b.source)
    assert repr(a.entries) == repr(b.entries)  # keys, order and every bit, signed zeros too


#: (38, 38), (87, 87) and (9, 96) would end in a block of one row at the
#: default block budget, had the last row not joined the block before it
_BLOCK_SHAPES = [(0, 0), (1, 0), (9, 4), (4, 9), (16, 16), (17, 17), (33, 33), (38, 38), (64, 64), (87, 87), (9, 96)]


@pytest.mark.parametrize("m_max, n_max", _BLOCK_SHAPES)
@pytest.mark.parametrize("alpha", [-0.5, 0.7])
def test_expand_is_bit_equal_to_the_one_block_product(alpha, m_max, n_max):
    _assert_same_table(expand(_bumpy, alpha, m_max, n_max), expand_one_block(_bumpy, alpha, m_max, n_max))


@pytest.mark.parametrize("m_max, n_max", _BLOCK_SHAPES)
@pytest.mark.parametrize("q", [2, 3, 4])
def test_expand_of_families_is_bit_equal_to_the_one_block_product(q, m_max, n_max):
    for spec in (Exponential(q=q), make_family("aktas", q, {"t": 0.3})):
        f = lambda z: eval_family(spec, z)  # noqa: E731
        _assert_same_table(expand(f, q - 2.0, m_max, n_max), expand_one_block(f, q - 2.0, m_max, n_max))


@pytest.mark.parametrize("budget", [1, 6000, 40000])
@pytest.mark.parametrize("m_max, n_max", [(9, 4), (4, 9), (16, 16), (17, 17), (33, 33)])
def test_expand_in_small_blocks_is_bit_equal_to_the_one_block_product(monkeypatch, budget, m_max, n_max):
    # budget 1 gives blocks of two rows, and of three where a row is left over
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
    for alpha in (-0.5, 0.7, 2.0):
        _assert_same_table(expand(_bumpy, alpha, m_max, n_max), expand_one_block(_bumpy, alpha, m_max, n_max))


def test_expand_at_degree_200_holds_no_cubic_block():
    # the whole Jacobi table of D = 200 takes 126 MiB, and the traced peak with it was 149 MiB
    spec = Exponential(q=3)
    tracemalloc.start()
    try:
        expand(lambda z: eval_family(spec, z), 1.0, 200, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


@pytest.mark.parametrize("alpha", [-0.5, 0.7])
@pytest.mark.parametrize("kmax, high", [(0, 0), (1, 5), (4, 9), (17, 17), (17, 40), (64, 64)])
@pytest.mark.parametrize("block_bytes", [None, 1, 3000, 20000])
def test_jacobi_R_blocks_are_slices_of_the_full_table(alpha, kmax, high, block_bytes):
    betas = np.arange(high + 1)
    top = np.minimum(high - betas, kmax)
    full = jacobi_R_all(kmax, alpha, betas, _JACOBI_T, top)
    end = 0
    for j0, rows in jacobi_R_blocks(kmax, alpha, betas, _JACOBI_T, top, block_bytes):
        live = rows.shape[1]
        assert j0 == end and (len(rows) >= 2 or kmax == 0)
        assert live == np.sum(top >= j0)  # the betas that read degree j0
        assert np.array_equal(rows, full[j0 : j0 + len(rows), :live])
        end = j0 + len(rows)
    assert end == kmax + 1


def test_jacobi_R_blocks_of_a_scalar_beta_are_slices_of_the_full_table():
    full = jacobi_R_all(30, 0.7, 2.5, _JACOBI_T)
    blocks = [rows.copy() for _, rows in jacobi_R_blocks(30, 0.7, 2.5, _JACOBI_T, None, 1000)]
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), full)


def test_block_plan_keeps_two_rows_and_the_byte_budget():
    assert _block_plan([5] * 7, 8, None) == [(0, 7)]
    # 4 rows with the 2 carried ones fit 6 * 5 * 8 = 240 bytes; the last row joins the block before it
    assert _block_plan([5] * 9, 8, 240) == [(0, 4), (4, 9)]
    assert _block_plan([5] * 9, 8, 1) == [(0, 2), (2, 4), (4, 6), (6, 9)]
    # a block's width is that of its first degree
    assert _block_plan([10, 10, 5, 5, 5, 5, 5, 5], 8, 320) == [(0, 2), (2, 8)]
    assert _block_plan([3], 8, 1) == [(0, 1)]


def test_disc_norm_h_rows_equal_disc_norm_h():
    for alpha in (-0.5, 0.0, 0.7, 2.0):
        rows = disc_norm_h_rows(12, 5, alpha)
        assert [len(r) for r in rows] == [6] * 13
        for m in range(13):
            for n in range(6):
                assert rows[m][n] == disc_norm_h(m, n, alpha)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 2.0])
@pytest.mark.parametrize("kmax", [0, 1, 2, 17])
def test_jacobi_R_all_array_beta_is_bit_equal_to_per_beta_calls(alpha, kmax):
    t = np.concatenate([[-1.0, 0.0, 1.0], np.cos(np.linspace(0.1, 3.0, 29))])
    betas = np.concatenate([np.arange(20.0), [-0.5, 0.3, 2.5]])
    rows = jacobi_R_all(kmax, alpha, betas, t)
    assert rows.shape == (kmax + 1, betas.size, t.size)
    for i, beta in enumerate(betas):
        assert np.array_equal(rows[:, i], jacobi_R_all(kmax, alpha, float(beta), t))


_JACOBI_T = np.concatenate([[-1.0, 0.0, 1.0], np.cos(np.linspace(0.1, 3.0, 29))])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 2.0])
@pytest.mark.parametrize("kmax", [0, 1, 2, 17, 64])
def test_jacobi_R_all_is_bit_equal_to_the_per_step_loop(alpha, kmax):
    for beta in (0.0, 3.0, 2.5, -0.5, np.concatenate([np.arange(65.0), [-0.5, 0.3, 2.5]])):
        rows = jacobi_R_all(kmax, alpha, beta, _JACOBI_T)
        assert np.array_equal(rows, jacobi_rows_loop(kmax, alpha, beta, _JACOBI_T))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 2.0])
@pytest.mark.parametrize("kmax, high", [(0, 0), (1, 5), (4, 9), (17, 17), (17, 40), (64, 64)])
def test_jacobi_R_all_top_degree_keeps_the_triangle_and_zeroes_the_rest(alpha, kmax, high):
    # the top degrees expand passes for an (m_max, n_max) = (high, kmax) table
    betas = np.arange(high + 1)
    top = np.minimum(high - betas, kmax)
    rows = jacobi_R_all(kmax, alpha, betas, _JACOBI_T, top)
    full = jacobi_rows_loop(kmax, alpha, betas, _JACOBI_T)
    assert rows.shape == full.shape
    for i, k in enumerate(top):
        assert np.array_equal(rows[: k + 1, i], full[: k + 1, i])
        assert not np.any(rows[k + 1 :, i])


def test_jacobi_R_all_refuses_a_bad_top_degree():
    t = np.linspace(-1, 1, 5)
    b2, b3 = np.arange(2.0), np.arange(3.0)
    for beta, top in [(2.0, 3), (b3, [1, 2, 0]), (b3, [2, 1]), (b2, [0, -1])]:
        with pytest.raises(DomainError):
            jacobi_R_all(3, 1.0, beta, t, top)


def test_jacobi_R_all_scalar_beta_keeps_its_shape_and_array_beta_is_checked():
    assert jacobi_R_all(4, 1.0, 2.0, np.linspace(-1, 1, 7)).shape == (5, 7)
    assert jacobi_R_all(4, 1.0, 2.0, 0.25).shape == (5, 1)
    assert jacobi_R_all(4, 1.0, [2.0], 0.25).shape == (5, 1, 1)
    with pytest.raises(DomainError):
        jacobi_R_all(4, 1.0, np.array([0.0, -1.0]), 0.25)


# --------------------------------------------------------------------------
# the table writer


def _reference_json(table: CoefficientTable) -> str:
    return json.dumps(table.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize(
    "alpha, entries",
    [
        (0.0, {}),
        (2, {}),
        (np.float64(0.5), {(0, 0): 1.0}),
        (3, {(1, 2): -0.0, (0, 0): complex(5e-324, -5e-324)}),
        (1.0, {(4, 4): 1e308, (2, 9): complex(-1e308, 1e-300), (0, 1): complex(0.1, -0.0)}),
        (-0.5, {(10, 0): 1 / 3, (0, 10): complex(2.5e-17, 7e22)}),
    ],
)
def test_dumps_equals_json_reference(alpha, entries):
    table = CoefficientTable(alpha=alpha, entries=entries)
    assert table.dumps() == _reference_json(table)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.one_of(
        st.integers(0, 5),
        st.floats(-0.999, 50.0, allow_nan=False),
        st.floats(-0.999, 50.0, allow_nan=False).map(np.float64),
    ),
    entries=st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        st.builds(complex, _finite, _finite),
        max_size=60,
    ),
)
def test_dumps_equals_json_reference_on_random_tables(alpha, entries):
    table = CoefficientTable(alpha=alpha, entries=entries)
    text = table.dumps()
    assert text == _reference_json(table)
    assert CoefficientTable.loads(text).entries == table.entries


def test_dumps_refuses_non_finite_entries_naming_the_first_key():
    table = CoefficientTable(
        alpha=0.0, entries={(3, 0): complex("inf"), (1, 2): complex("nan"), (0, 0): 1.0}
    )
    with pytest.raises(DomainError, match=r"\(1, 2\)") as info:
        table.dumps()
    assert "\n" not in str(info.value)
    # finite entries whose sum overflows are still written
    big = CoefficientTable(alpha=0.0, entries={(0, 0): 1e308, (1, 1): 1e308})
    assert big.dumps() == _reference_json(big)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_table_rejects_non_finite_alpha(alpha):
    with pytest.raises(DomainError):
        CoefficientTable(alpha=alpha)


def test_walk_of_a_nan_table_exits_2_with_one_line(tmp_path, capsys):
    src = tmp_path / "nan.json"
    src.write_text('{"alpha": 1.0, "entries": [{"m": 2, "n": 1, "re": NaN, "im": 0.0}]}')
    rc = cli.main(["walk", "--op", "dz", "--in", str(src), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "(2, 1)" in err


def test_nan_entries_fail_the_nonnegativity_gate():
    table = CoefficientTable(alpha=0.0, entries={(0, 0): 1.0, (2, 1): complex("nan")})
    report = is_pd(table)
    assert not report.ok
    assert [(m, n) for m, n, _ in report.violations] == [(2, 1)]
    with pytest.raises(DomainError, match="real nonnegative"):
        coefficient_sum(table)
    with pytest.raises(DomainError):
        coefficient_sum(CoefficientTable(alpha=0.0, entries={(1, 1): complex(1.0, math.nan)}))


# --------------------------------------------------------------------------
# NaN points and malformed documents


def test_nan_points_are_outside_the_disk():
    nan = complex("nan")
    with pytest.raises(DomainError):
        eval_family(Exponential(q=2), nan)
    with pytest.raises(DomainError):
        eval_family(Exponential(q=2), np.array([0.5, nan]))
    with pytest.raises(DomainError):
        synthesize(CoefficientTable(alpha=0.0, entries={(1, 0): 1.0}), nan)
    with pytest.raises(DomainError):
        disc_poly(2, 1, 0.0, np.array([0.1j, complex(0.2, math.nan)]))
    with pytest.raises(DomainError):
        jacobi_R_all(3, 0.0, 1.0, np.array([0.5, math.nan]))


@pytest.mark.parametrize("doc", [[1, 2], 5, "x", None])
def test_index_set_from_non_object_is_domain_error(doc):
    with pytest.raises(DomainError):
        IndexSet.from_dict(doc)
    with pytest.raises(DomainError):
        IndexSet.loads(json.dumps(doc))


def test_check_set_with_a_json_list_exits_2_with_one_line(capsys):
    rc = cli.main(["check", "--set", "[1,2]", "--q", "2"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1


def test_montee_result_loads_invalid_json_is_domain_error():
    with pytest.raises(DomainError, match="invalid JSON"):
        MonteeResult.loads("{")
