"""The radial Gauss-Jacobi rule: nodes and weights against a 30-digit oracle,
the refusals of ``build_rule``, and the extraction accuracy the rule gives."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

import discwalk.quadrature as quadrature
from discwalk import (
    Aktas,
    CapacityError,
    DomainError,
    Exponential,
    build_rule,
    default_rule,
    eval_family,
    expand,
    family_coefficients,
)
from helpers import gauss_jacobi_oracle, table_max_diff


@pytest.mark.parametrize("n", [1, 2, 9, 40, 136])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0, 2.5, 7.0])
def test_rule_matches_the_mpmath_gauss_jacobi_oracle(alpha, n):
    nodes, weights = gauss_jacobi_oracle(n, alpha)
    assert abs(mp.fsum(weights) - 1) < 1e-25  # the oracle's own check: exact mass
    rule = build_rule(alpha, n, 1)
    # a node is compared in the Jacobi variable u = 2 r^2 - 1, exactly
    u = [2 * mp.mpf(float(r)) ** 2 - 1 for r in rule.radial_nodes]
    assert max(abs(a - b) for a, b in zip(u, nodes)) <= 1e-15
    assert max(abs(w / v - 1) for w, v in zip(rule.radial_weights.tolist(), weights)) <= 1e-12


@pytest.mark.parametrize("alpha", [998.0, 1e6])
def test_rule_is_finite_with_unit_mass_at_large_alpha(alpha):
    rule = build_rule(alpha, 40, 4)
    assert np.all(np.isfinite(rule.radial_weights))
    assert np.all((rule.radial_nodes > 0) & (rule.radial_nodes < 1))
    assert rule.radial_weights.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "radial, angular", [(10, 24.5), (9.5, 24), (10.0, 24), (True, 24), (10, False), ("10", 24), (None, 24)]
)
def test_rule_refuses_non_integer_orders(radial, angular):
    with pytest.raises(DomainError) as info:
        build_rule(0.0, radial, angular)
    assert "\n" not in str(info.value)
    assert str(info.value).startswith("quadrature orders must be integers")


def test_rule_accepts_numpy_integer_orders():
    rule = build_rule(0.0, np.int64(10), np.int32(24))
    assert (type(rule.radial_order), type(rule.angular_order)) == (int, int)
    assert rule.angular_nodes.size == rule.angular_order == 24


def test_radial_order_past_the_budget_is_refused_before_any_work(monkeypatch):
    def no_rule(*args):
        raise AssertionError("the rule was built")

    monkeypatch.setattr(quadrature, "_gauss_jacobi", no_rule)
    with pytest.raises(CapacityError) as info:
        build_rule(0.0, quadrature._RADIAL_BUDGET + 1, 4)
    assert str(info.value) == (
        f"radial order {quadrature._RADIAL_BUDGET + 1} exceeds the Jacobi matrix budget "
        f"of {quadrature._RADIAL_BUDGET}"
    )


def test_radial_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(quadrature, "_RADIAL_BUDGET", 8)
    assert build_rule(0.0, 8, 4).radial_nodes.size == 8
    with pytest.raises(CapacityError):
        build_rule(0.0, 9, 4)


def test_rule_past_the_node_budget_is_refused_before_any_work(monkeypatch):
    def no_rule(*args):
        raise AssertionError("the rule was built")

    monkeypatch.setattr(quadrature, "_gauss_jacobi", no_rule)
    with pytest.raises(CapacityError) as info:
        build_rule(0.0, 12, 100_000_000_000)
    assert str(info.value) == (
        f"rule of 12 x 100000000000 nodes exceeds the node budget of {quadrature._NODE_BUDGET}"
    )
    with pytest.raises(CapacityError):  # 4 * 2^62 wraps to 0 in int64
        build_rule(0.0, np.int64(4), np.int64(2**62))


def test_node_budget_is_inclusive_and_admits_every_default_rule(monkeypatch):
    # a stand-in radial rule, so that no 2048 x 2048 Jacobi matrix is solved
    monkeypatch.setattr(quadrature, "_gauss_jacobi", lambda n, alpha: (np.zeros(n), np.full(n, 1.0 / n)))
    largest = default_rule(0.0, quadrature._RADIAL_BUDGET - 8, 0)  # the largest degree the radial budget admits
    assert (largest.radial_order, largest.angular_order) == (2048, 4088)
    assert default_rule(0.0, 1020, 1020).angular_order == 4088
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 24)
    assert build_rule(0.0, 3, 8).nodes.size == 24
    with pytest.raises(CapacityError):
        build_rule(0.0, 5, 5)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("spec_of", [Exponential, lambda q: Aktas(t=0.3, q=q)], ids=["exponential", "aktas"])
def test_extraction_at_degree_64_is_within_1e_10_of_the_exact_table(spec_of, q):
    spec = spec_of(q)
    extracted = expand(lambda z: eval_family(spec, z), q - 2.0, 64, 64)
    assert table_max_diff(extracted, family_coefficients(spec, 64, 64)) <= 1e-10



#: max |extract - exact| per cell with the direct-DFT angular sums that the FFT
#: replaced; each cell must stay within twice its value, so that no later
#: speed-up trades accuracy away silently
_EXTRACT_ERROR = {
    ("exponential", 2, 16): 2.12e-14,
    ("exponential", 2, 32): 2.96e-14,
    ("exponential", 2, 64): 7.74e-14,
    ("exponential", 3, 16): 6.26e-14,
    ("exponential", 3, 32): 5.31e-13,
    ("exponential", 3, 64): 2.15e-12,
    ("exponential", 4, 16): 3.89e-13,
    ("exponential", 4, 32): 5.98e-12,
    ("exponential", 4, 64): 3.47e-11,
    ("aktas", 2, 16): 1.38e-14,
    ("aktas", 2, 32): 1.91e-14,
    ("aktas", 2, 64): 4.71e-14,
    ("aktas", 3, 16): 4.78e-14,
    ("aktas", 3, 32): 4.13e-13,
    ("aktas", 3, 64): 1.58e-12,
    ("aktas", 4, 16): 2.88e-13,
    ("aktas", 4, 32): 4.67e-12,
    ("aktas", 4, 64): 2.61e-11,
}


@pytest.mark.parametrize("family, q, D", list(_EXTRACT_ERROR))
def test_extraction_error_stays_within_twice_its_pinned_value(family, q, D):
    spec = Exponential(q=q) if family == "exponential" else Aktas(t=0.3, q=q)
    extracted = expand(lambda z: eval_family(spec, z), q - 2.0, D, D)
    assert table_max_diff(extracted, family_coefficients(spec, D, D)) <= 2.0 * _EXTRACT_ERROR[family, q, D]


@pytest.mark.parametrize("alpha, order", [(1e16, 12), (1e20, 3), (1e160, 12), (1e300, 136), (math.inf, 2)])
def test_rule_whose_nodes_coincide_is_refused_without_warnings(alpha, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            build_rule(alpha, order, 4)
    assert str(info.value) == (
        f"no radial rule of order {order} at alpha = {alpha!r}: "
        "its nodes or weights degenerate in floating point"
    )


@pytest.mark.parametrize("order", [240, 264])
def test_rule_at_alpha_1000_keeps_the_weights_that_underflow_to_zero(order):
    # the nodes stay apart, but the weights of the nodes nearest +1 fall below
    # the smallest subnormal: such a rule is still exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = build_rule(1000.0, order, 4)
    r, w = rule.radial_nodes, rule.radial_weights
    assert np.all(np.diff(r) > 0) and 0 < r[0] and r[-1] < 1
    assert np.all(np.isfinite(w) & (w >= 0)) and np.any(w == 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    # the first two moments of (1-u)^1000 on [-1, 1], u = 2x - 1 with x ~ Beta(1, 1001)
    u = 2.0 * r**2 - 1.0
    assert w @ u == pytest.approx(2 / 1002 - 1, abs=1e-14)
    assert w @ u**2 == pytest.approx(1 - 4 / 1002 + 8 / (1002 * 1003), abs=1e-14)


def test_rule_at_alpha_1e15_keeps_its_nodes_apart():
    rule = build_rule(1e15, 12, 4)
    assert np.all(np.diff(rule.radial_nodes) > 0) and rule.radial_nodes[0] > 0
    assert np.all(rule.radial_weights > 0)


# --------------------------------------------------------------------------
# the per-process rule memo


def _bits(arrays) -> list[bytes]:
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n", [1, 2, 40, 136, 264])
@pytest.mark.parametrize("alpha", [-0.5, -0.0, 0.0, 1.0, 2.5, 1e3])
def test_cached_rule_is_bit_equal_to_an_uncached_build(alpha, n):
    quadrature._gauss_jacobi.cache_clear()
    try:
        want = _bits(quadrature._gauss_jacobi.__wrapped__(n, alpha))
    except DomainError as exc:  # order 264 at alpha = 1e3: a weight underflows
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                quadrature._gauss_jacobi(n, alpha)
        return
    assert _bits(quadrature._gauss_jacobi(n, alpha)) == want  # built
    assert _bits(quadrature._gauss_jacobi(n, alpha)) == want  # from the memo
    assert quadrature._gauss_jacobi.cache_info().hits == 1


def test_rules_at_minus_zero_and_zero_are_kept_apart():
    uncached = quadrature._gauss_jacobi.__wrapped__
    # the two alphas give different bits, so one shared entry would be wrong
    assert _bits(uncached(40, -0.0)) != _bits(uncached(40, 0.0))
    quadrature._gauss_jacobi.cache_clear()
    build_rule(0.0, 40, 8)
    rule = build_rule(-0.0, 40, 8)
    u, w = uncached(40, -0.0)
    assert repr(rule.alpha) == "-0.0"
    assert rule.radial_nodes.tobytes() == np.sqrt((1.0 + u) / 2.0).tobytes()
    assert rule.radial_weights.tobytes() == w.tobytes()
    assert quadrature._gauss_jacobi.cache_info().currsize == 2


def test_shared_radial_weights_are_read_only():
    rule = build_rule(1.0, 12, 4)
    with pytest.raises(ValueError):
        rule.radial_weights[0] = 0.5
    with pytest.raises(ValueError):
        rule.radial_weights *= 2.0
    assert build_rule(1.0, 12, 4).radial_weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_a_refused_rule_is_refused_on_every_call():
    quadrature._gauss_jacobi.cache_clear()
    for calls in (1, 2, 3):
        with pytest.raises(DomainError, match=r"^no radial rule of order 40 at alpha = 1e\+16:"):
            quadrature._gauss_jacobi(40, 1e16)
        info = quadrature._gauss_jacobi.cache_info()
        assert (info.misses, info.hits, info.currsize) == (calls, 0, 0)


def test_the_memo_is_bounded():
    maxsize = quadrature._gauss_jacobi.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64
    quadrature._gauss_jacobi.cache_clear()
    for n in range(1, maxsize + 11):
        quadrature._gauss_jacobi(n, 0.5)
    assert quadrature._gauss_jacobi.cache_info().currsize == maxsize
