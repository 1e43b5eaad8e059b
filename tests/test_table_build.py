"""Coefficient tables built from per-index arrays: the closed-form family
tables and the h_{m,n} rows against their per-entry loops, and the index
readers that must refuse what they cannot read exactly."""

import json

import numpy as np
import pytest

from discwalk import (
    Aktas,
    CoefficientTable,
    DomainError,
    Exponential,
    Horn,
    IndexSet,
    Lauricella,
    cli,
    disc_norm_h,
    family_coefficients,
)
from discwalk.special import disc_norm_h_rows
from helpers import family_coefficients_loop

SHAPES = [(0, 0), (0, 7), (5, 20), (20, 5), (16, 16), (32, 32), (64, 64), (200, 200)]
QS = [2, 3, 4, 7]


def _specs(q):
    return [
        Exponential(q=q),
        Aktas(t=0.3, q=q),
        Horn(t=0.1, s=0.2, b=3, q=q),
        Lauricella(t=0.2, s=0.1, b=2, q=q),
    ]


def _same_table(got: CoefficientTable, want: CoefficientTable) -> None:
    assert repr(got.alpha) == repr(want.alpha)
    assert got.source == want.source
    assert list(got.entries) == list(want.entries)  # same keys in the same order
    assert [repr(v) for v in got.entries.values()] == [repr(v) for v in want.entries.values()]
    assert all(type(k[0]) is int and type(k[1]) is int for k in got.entries)
    assert all(type(v) is complex for v in got.entries.values())


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
@pytest.mark.parametrize("q", QS)
def test_family_tables_equal_the_per_entry_loops(q, shape):
    for spec in _specs(q):
        _same_table(family_coefficients(spec, *shape), family_coefficients_loop(spec, *shape))


@pytest.mark.parametrize("spec", [
    Horn(t=0.7, s=0.05, b=3, q=3),
    Horn(t=0.85, s=0.1, b=1, q=2),
    Horn(t=0.1, s=0.6, b=5, q=4),
    Lauricella(t=0.45, s=0.2, b=3, q=3),
    Lauricella(t=0.05, s=0.01, b=3, q=5),
    Lauricella(t=0.9, s=0.6, b=1, q=2),
    Aktas(t=0.95, q=5),
], ids=repr)
@pytest.mark.parametrize("shape", [(9, 13), (13, 9), (40, 40)])
def test_series_tables_with_other_parameters_equal_the_loops(spec, shape):
    _same_table(family_coefficients(spec, *shape), family_coefficients_loop(spec, *shape))


@pytest.mark.parametrize("alpha", [0, 1, 2, -0.5, 0.7, 1 / 3])
def test_disc_norm_h_rows_is_an_array_bit_equal_to_disc_norm_h(alpha):
    for m_max, n_max in [(0, 0), (12, 5), (5, 12), (40, 40)]:
        rows = disc_norm_h_rows(m_max, n_max, alpha)
        assert isinstance(rows, np.ndarray) and rows.shape == (m_max + 1, n_max + 1)
        want = [[disc_norm_h(m, n, alpha) for n in range(n_max + 1)] for m in range(m_max + 1)]
        assert [[repr(v) for v in row] for row in rows.tolist()] == [
            [repr(v) for v in row] for row in want
        ]


# --------------------------------------------------------------------------
# index readers: an index is an int, an integral float or a digit string


def _doc(m, n):
    return {"alpha": 0.0, "entries": [{"m": m, "n": n, "re": 1.0, "im": 0.0}]}


@pytest.mark.parametrize("m, n", [(1.9, 0), (0, 2.5), (True, 0), (0, False), (-0.5, 0)])
def test_table_reader_refuses_an_index_it_cannot_read_exactly(m, n):
    with pytest.raises(DomainError, match="malformed coefficient table document") as exc:
        CoefficientTable.from_dict(_doc(m, n))
    assert "\n" not in str(exc.value)


def test_table_reader_still_takes_integral_floats_and_digit_strings():
    table = CoefficientTable.from_dict(
        {"alpha": 0.0, "entries": [{"m": 2.0, "n": "3", "re": 1.0, "im": 0.0},
                                   {"m": "0", "n": 1e1, "re": 2.0, "im": 0.0}]}
    )
    assert list(table.entries) == [(2, 3), (0, 10)]
    assert all(type(k[0]) is int and type(k[1]) is int for k in table.entries)


@pytest.mark.parametrize("doc", [
    {"finite": [1.5]},
    {"finite": [True]},
    {"finite": [float("inf")]},
    {"finite": [float("nan")]},
    {"progressions": [{"offset": 0.5, "step": 2}]},
    {"progressions": [{"offset": 0, "step": True}]},
    {"progressions": [{"offset": 0, "step": float("-inf")}]},
], ids=range(7))
def test_index_set_reader_refuses_what_it_cannot_read_exactly(doc):
    with pytest.raises(DomainError, match="malformed index set document") as exc:
        IndexSet.from_dict(doc)
    assert "\n" not in str(exc.value)


def test_index_set_reader_still_takes_integral_floats_and_digit_strings():
    s = IndexSet.from_dict({"finite": [2.0, "3", -1], "progressions": [{"offset": "4", "step": 5.0}]})
    assert s == IndexSet.of(finite=[2, 3, -1], progressions=[(4, 5)])
    assert all(type(e) is int for e in s.finite)


@pytest.mark.parametrize("text", ['{"finite":[1.5]}', '{"finite":[1e400]}', '{"finite":[true]}'])
def test_check_set_with_an_inexact_index_exits_2_with_one_line(text, capsys):
    rc = cli.main(["check", "--set", text, "--q", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_walk_of_a_fractional_index_exits_2_with_one_line(tmp_path, capsys):
    src = tmp_path / "frac.json"
    src.write_text(json.dumps(_doc(1.9, 0)))
    rc = cli.main(["walk", "--op", "dz", "--in", str(src), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("finite, progressions", [
    ([1.5], []),
    ([True], []),
    ([float("nan")], []),
    ([None], []),
    ([], [(0.5, 2)]),
    ([], [(0, 2.7)]),
    ([], [(0, float("inf"))]),
], ids=range(7))
def test_index_set_of_refuses_what_it_cannot_represent_exactly(finite, progressions):
    with pytest.raises(DomainError) as exc:
        IndexSet.of(finite=finite, progressions=progressions)
    assert "\n" not in str(exc.value)


def test_index_set_of_takes_integral_floats():
    s = IndexSet.of(finite=[2.0, -1], progressions=[(4.0, 5)])
    assert s == IndexSet.of(finite=[2, -1], progressions=[(4, 5)])
    assert all(type(e) is int for e in s.finite)
    assert all(type(p.offset) is int and type(p.step) is int for p in s.progressions)
