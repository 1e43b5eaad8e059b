"""The coefficient-space request path: walks against the per-entry reference
and one table per walk pass, the one-pass table reader, the one nonnegativity
gate, the residue-set SPD scan, the plot-data row formatting and the early
refusal of an unusable --out."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discwalk.positivity as positivity
import discwalk.quadrature as quadrature
import discwalk.walks as walks
from discwalk import (
    CoefficientTable,
    DomainError,
    IndexSet,
    MonteeResult,
    cli,
    descente_x,
    descente_z,
    descente_zbar,
    eval_family,
    family_coefficients,
    make_family,
    montee_z,
    montee_zbar,
    spd_verdict,
)
from helpers import coefficient_sum_loop, spd_verdict_loop, walk_loop

# 1/3 and 2/3 are alphas where n + alpha + 1.0 rounds differently from
# n + (alpha + 1.0) at small n, so they pin the order of c_alpha's additions
ALPHAS = [0, 1, 2, 0.5, 0.7, -0.5, 1 / 3, 2 / 3]
DESCENTE = {"dz": descente_z, "dzbar": descente_zbar, "dx": descente_x}
MONTEE = {"iz": montee_z, "izbar": montee_zbar}


def _mixed_table(alpha, source="exact") -> CoefficientTable:
    """Complex entries, real ones where |m - n| <= 1 (the montee operators move
    those onto the diagonal, and the primitive's constant must be real),
    signed zeros and entries on both axes."""
    rng = np.random.default_rng(7)
    entries = {}
    for m in range(9):
        for n in range(9):
            re, im = rng.uniform(-2.0, 2.0, 2)
            entries[(m, n)] = complex(re, 0.0 if abs(m - n) <= 1 else im)
    entries[(3, 0)] = complex(-0.0, 0.0)
    entries[(0, 4)] = complex(0.0, -0.0)
    entries[(5, 5)] = complex(1e-300, -0.0)
    return CoefficientTable(alpha=alpha, entries=entries, source=source)


def _same_table(got: CoefficientTable, want: CoefficientTable) -> None:
    assert repr(got.alpha) == repr(want.alpha)
    assert got.source == want.source
    assert list(got.entries) == list(want.entries)
    assert [repr(v) for v in got.entries.values()] == [repr(v) for v in want.entries.values()]
    assert all(type(k[0]) is int and type(k[1]) is int for k in got.entries)
    assert all(type(v) is complex for v in got.entries.values())


# --------------------------------------------------------------------------
# walks: inline c_alpha equals one c_factor call per entry


@pytest.mark.parametrize("op", sorted(DESCENTE))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_descente_equals_the_per_entry_reference(alpha, op):
    for table in (_mixed_table(alpha), _mixed_table(alpha, source="extracted"),
                  CoefficientTable(alpha=alpha)):
        _same_table(DESCENTE[op](table), walk_loop(op, table))


@pytest.mark.parametrize("op", sorted(MONTEE))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_montee_equals_the_per_entry_reference(alpha, op):
    # the input sits one level up, so the primitive lands at ``alpha``
    for table in (_mixed_table(alpha + 1.0), _mixed_table(alpha + 1.0, source="extracted"),
                  CoefficientTable(alpha=alpha + 1.0)):
        got = MONTEE[op](table)
        want_table, want_constant = walk_loop(op, table)
        _same_table(got.table, want_table)
        assert repr(got.constant) == repr(want_constant)


@pytest.mark.parametrize("op", ["dz", "dzbar", "dx", "iz", "izbar"])
def test_walks_of_a_family_table_equal_the_reference(op):
    table = family_coefficients(make_family("exponential", 3, {}), 24, 24)
    got = {**DESCENTE, **MONTEE}[op](table)
    want = walk_loop(op, table)
    if op in MONTEE:
        _same_table(got.table, want[0])
        assert repr(got.constant) == repr(want[1])
    else:
        _same_table(got, want)


def test_descente_still_refuses_an_alpha_at_or_below_minus_one():
    table = CoefficientTable(alpha=0.0, entries={(1, 1): 1.0})
    table.alpha = -1.0
    with pytest.raises(DomainError, match="exceed -1"):
        descente_z(table)
    with pytest.raises(DomainError, match="exceed -1"):
        descente_zbar(table)


def _count_tables(monkeypatch) -> list:
    """The alpha of every table ``CoefficientTable._of_clean`` builds from now on."""
    made = []
    of_clean = CoefficientTable._of_clean.__func__

    def counting(cls, alpha, entries, source):
        made.append(alpha)
        return of_clean(cls, alpha, entries, source)

    monkeypatch.setattr(CoefficientTable, "_of_clean", classmethod(counting))
    return made


@pytest.mark.parametrize("op, tables", [("dz", 1), ("dzbar", 1), ("dx", 3), ("iz", 1), ("izbar", 1)])
def test_each_walk_pass_builds_one_table(op, tables, monkeypatch):
    table = _mixed_table(1.0)
    made = _count_tables(monkeypatch)
    {**DESCENTE, **MONTEE}[op](table)
    assert len(made) == tables


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_counterexample_builds_three_walk_tables(case, monkeypatch, capsys):
    made = _count_tables(monkeypatch)
    assert cli.main(["counterexample", "--case", case, "--q", "3", "--truncation", "40"]) == 0
    capsys.readouterr()
    # the case's table at alpha = q - 2, then D_z, D_zbar and D_x one level up
    assert made == [1.0, 2.0, 2.0, 2.0]


def test_counterexample_dx_equals_descente_x():
    for case in ("i", "ii", "iii"):
        table, _ = positivity.counterexample_table(case, 3, 400)
        dz, dzbar = descente_z(table), descente_zbar(table)
        dx = walks._descente_sum(dict(dz.entries), dzbar)
        _same_table(dx, descente_x(table))
        _same_table(dz, descente_z(table))  # the copy keeps D_z as it was


# --------------------------------------------------------------------------
# from_dict: one conversion pass, the public constructor's refusals


def _from_dict_reference(doc, source="exact"):
    """The reader before it validated in one pass: convert, then the public constructor."""
    try:
        alpha = float(doc["alpha"])
        entries = {
            (int(e["m"]), int(e["n"])): complex(float(e["re"]), float(e["im"]))
            for e in doc["entries"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed coefficient table document: {exc}") from exc
    return CoefficientTable(alpha=alpha, entries=entries, source=source)


def _entry(m, n, re=1.0, im=0.0):
    return {"m": m, "n": n, "re": re, "im": im}


DOCS = [
    {"alpha": 0.0, "entries": []},
    {"alpha": 1, "entries": [_entry(2, 1, 0.5, -0.25), _entry(0, 0, -0.0, 0.0)]},
    {"alpha": "0.5", "entries": [_entry("3", 1.0, "1.5", 0)]},
    {"alpha": 0.0, "entries": [_entry(1, 1, 1.0), _entry(0, 2, 2.0), _entry(1, 1, 3.0)]},
    {"alpha": 0.0, "entries": [_entry(-1, 0)]},
    {"alpha": 0.0, "entries": [_entry(0, 0), _entry(2, -3), _entry(-1, 0)]},
    {"alpha": -1.0, "entries": [_entry(-1, 0)]},
    {"alpha": float("inf"), "entries": []},
    {"alpha": float("nan"), "entries": []},
    {"alpha": 0.0, "entries": [_entry(-1, 0), {"m": 1, "n": 1}]},
    {"alpha": 0.0, "entries": [_entry(0, 0, "x")]},
    {"alpha": 0.0, "entries": [_entry(float("nan"), 0)]},
    {"alpha": 0.0, "entries": 5},
    {"alpha": 0.0, "entries": {"m": 1}},
    {"alpha": None, "entries": []},
    {"entries": []},
    [1, 2],
]


@pytest.mark.parametrize("doc", DOCS, ids=range(len(DOCS)))
def test_from_dict_matches_the_constructor_path(doc):
    try:
        want = _from_dict_reference(doc, source="extracted")
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            CoefficientTable.from_dict(doc, source="extracted")
        assert str(got.value) == str(exc)
        return
    _same_table(CoefficientTable.from_dict(doc, source="extracted"), want)


def test_from_dict_keeps_the_bad_index_message():
    with pytest.raises(DomainError, match=r"^bad table index \(-1, 0\)$"):
        CoefficientTable.from_dict({"alpha": 0.0, "entries": [_entry(-1, 0)]})
    with pytest.raises(DomainError, match=r"^bad table index \(2, -3\)$"):
        CoefficientTable.loads(json.dumps({"alpha": 0.0, "entries": [_entry(2, -3)]}))


BIG = "1" + "0" * 400


@pytest.mark.parametrize("alpha, m, re, im", [
    (BIG, "1", "0.5", "0.0"),   # float(alpha) overflows
    ("0.0", "1", BIG, "0.0"),   # float(re) overflows
    ("0.0", "1", "0.5", BIG),   # float(im) overflows
    ("0.0", BIG + ".0", "0.5", "0.0"),  # a 400-digit float literal reads as inf; int(inf) overflows
], ids=["alpha", "re", "im", "m"])
def test_a_400_digit_number_is_a_domain_error(alpha, m, re, im):
    text = f'{{"alpha": {alpha}, "entries": [{{"m": {m}, "n": 0, "re": {re}, "im": {im}}}]}}'
    with pytest.raises(DomainError, match="malformed coefficient table document"):
        CoefficientTable.loads(text)


def test_montee_result_with_a_400_digit_constant_is_a_domain_error():
    table = CoefficientTable(alpha=0.0, entries={(1, 0): 1.0}).dumps()
    with pytest.raises(DomainError):
        MonteeResult.loads(f'{{"constant": {BIG}, "table": {table}}}')


@pytest.mark.parametrize("field", ["alpha", "re"])
def test_walk_of_a_400_digit_number_exits_2_with_one_line(field, tmp_path, capsys):
    src = tmp_path / "big.json"
    alpha, re = (BIG, "0.5") if field == "alpha" else ("1.0", BIG)
    src.write_text(f'{{"alpha": {alpha}, "entries": [{{"m": 2, "n": 1, "re": {re}, "im": 0.0}}]}}')
    rc = cli.main(["walk", "--op", "dz", "--in", str(src), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "o.json").exists()


# --------------------------------------------------------------------------
# the nonnegativity gate sorts only its violations


def test_nonnegativity_violations_equal_the_sorted_scan():
    rng = np.random.default_rng(3)
    entries = {}
    for _ in range(200):
        key = (int(rng.integers(0, 15)), int(rng.integers(0, 15)))
        entries[key] = complex(*rng.uniform(-1.0, 1.0, 2) * (rng.random() < 0.5))
    entries[(4, 4)] = complex("nan")
    entries[(0, 9)] = complex(-1e-11, 1e-11)
    table = CoefficientTable(alpha=0.0, entries=entries)
    for tol in (0.0, 1e-10, 0.5):
        want = [(m, n, v) for (m, n), v in table.sorted_items()
                if not (abs(v.imag) <= tol and v.real >= -tol)]
        got = table.nonnegativity_violations(tol)
        assert [(m, n, repr(v)) for m, n, v in got] == [(m, n, repr(v)) for m, n, v in want]


TOL = 1e-10
_BEYOND = float(np.nextafter(TOL, 1.0))
_GATE_SPECIALS = [
    complex("nan"), complex(0.0, float("nan")), complex(float("inf"), 0.0), complex(float("-inf"), 0.0),
    complex(0.0, float("inf")), complex(0.0, float("-inf")), complex(0.0, 0.0), complex(-0.0, -0.0),
    complex(-TOL, TOL), complex(-TOL, -TOL), complex(TOL, -TOL), complex(-_BEYOND, 0.0), complex(0.0, _BEYOND),
]


def _gate_tables() -> list:
    """Empty, one-entry and 4,225-entry (65 x 65) tables, clean and with the specials."""
    big = family_coefficients(make_family("exponential", 3, {}), 64, 64)
    assert len(big) == 4225
    spotted = dict(big.entries)
    for i, v in enumerate(_GATE_SPECIALS):
        spotted[(5 * i % 65, 7 * i % 65)] = v
    tables = [CoefficientTable(alpha=1.0), big, CoefficientTable(alpha=1.0, entries=spotted)]
    return tables + [CoefficientTable(alpha=1.0, entries={(2, 3): v}) for v in _GATE_SPECIALS]


@pytest.mark.parametrize("tol", [0.0, TOL, 0.5])
def test_one_gate_equals_the_sorted_scan(tol):
    for table in _gate_tables():
        want = [(m, n, v) for (m, n), v in table.sorted_items()
                if not (abs(v.imag) <= tol and v.real >= -tol)]
        report = positivity.is_pd(table, tol)
        assert report.ok == (not want)
        assert [(m, n, repr(v)) for m, n, v in report.violations] == [(m, n, repr(v)) for m, n, v in want]
        try:
            total = coefficient_sum_loop(table, tol)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                quadrature.coefficient_sum(table, tol)
            assert str(got.value) == str(exc)
        else:
            assert repr(quadrature.coefficient_sum(table, tol)) == repr(total)


def test_is_pd_and_coefficient_sum_share_one_gate(monkeypatch):
    assert positivity.nonnegativity_gate is quadrature.nonnegativity_gate
    gate = quadrature.nonnegativity_gate
    seen = []

    def recording(table, tol):
        seen.append((table, tol))
        return gate(table, tol)

    def refuse(self, tol):
        raise AssertionError("a table the numpy pass clears was scanned entry by entry")

    monkeypatch.setattr(quadrature, "nonnegativity_gate", recording)
    monkeypatch.setattr(positivity, "nonnegativity_gate", recording)
    monkeypatch.setattr(CoefficientTable, "nonnegativity_violations", refuse)
    table = family_coefficients(make_family("exponential", 3, {}), 8, 8)
    assert positivity.is_pd(table, 1e-9).ok
    quadrature.coefficient_sum(table, 1e-8)
    assert [(t is table, tol) for t, tol in seen] == [(True, 1e-9), (True, 1e-8)]


# --------------------------------------------------------------------------
# spd_verdict: one residue set per modulus, same verdict as the (N, j) scan

_finite = st.frozensets(st.integers(-60, 60), min_size=1, max_size=8)
_progression = st.tuples(
    st.integers(-40, 40),
    st.integers(-12, 12).filter(lambda d: d != 0),
)
_progressions = st.lists(_progression, min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(["finite", "progressions", "mixed"]),
    finite=_finite,
    progs=_progressions,
)
def test_spd_verdict_equals_the_per_residue_scan(shape, finite, progs):
    s = IndexSet.of(
        finite=finite if shape != "progressions" else (),
        progressions=progs if shape != "finite" else (),
    )
    assert spd_verdict(s) == spd_verdict_loop(s)


@pytest.mark.parametrize("s", [
    IndexSet.of(),
    IndexSet.of(finite=[0]),
    IndexSet.of(finite=range(-5, 6)),
    IndexSet.of(finite=[1, 2, 3], progressions=[(0, 4)]),
    IndexSet.of(progressions=[(5, 5), (2, -5), (3, 5), (4, 5)]),
    IndexSet.of(progressions=[(7, -6), (0, 4)]),
])
def test_spd_verdict_equals_the_per_residue_scan_on_fixed_sets(s):
    assert spd_verdict(s) == spd_verdict_loop(s)


def test_spd_verdict_makes_no_per_residue_calls(monkeypatch):
    table = family_coefficients(make_family("exponential", 3, {}), 16, 16)
    sets = [positivity.difference_set(table), IndexSet.of(progressions=[(0, 6), (3, 4)])]
    want = [spd_verdict_loop(s) for s in sets]

    def refuse(*_):
        raise AssertionError("spd_verdict called intersects_progression")

    monkeypatch.setattr(positivity, "intersects_progression", refuse)
    assert [spd_verdict(s) for s in sets] == want


# --------------------------------------------------------------------------
# plot-data: axis labels formatted once, same bytes as one repr per row


def _plot_rows_reference(f, grid: int) -> str:
    """The CSV as plot-data wrote it with ``repr`` of x and y in every row."""
    axis = np.linspace(-1.0, 1.0, grid)
    xs = np.repeat(axis, grid)
    ys = np.tile(axis, grid)
    inside = xs * xs + ys * ys <= 1.0
    values = iter(np.asarray(f(xs[inside] + 1j * ys[inside]), dtype=complex).tolist())
    lines = ["x,y,re,im"]
    for x, y, ins in zip(xs.tolist(), ys.tolist(), inside.tolist()):
        if ins:
            v = next(values)
            lines.append(f"{x!r},{y!r},{v.real!r},{v.imag!r}")
        else:
            lines.append(f"{x!r},{y!r},,")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [2, 3, 8, 21])
def test_plot_data_rows_equal_one_repr_per_row(grid, tmp_path, capsys):
    spec = make_family("exponential", 2, {})
    out = tmp_path / "p.csv"
    rc = cli.main(["plot-data", "--builtin", "exponential", "--q", "2",
                   "--grid", str(grid), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert out.read_text() == _plot_rows_reference(lambda z: eval_family(spec, z), grid)


# --------------------------------------------------------------------------
# an unusable --out is refused before the kernel is evaluated

_WRITERS = {
    "plot-data": ["plot-data", "--builtin", "exponential", "--q", "2", "--grid", "1000"],
    "expand": ["expand", "--builtin", "exponential", "--q", "2", "--mmax", "4", "--nmax", "4"],
}


def _refuse_kernel(monkeypatch, exc):
    def refuse(*_):
        raise exc

    monkeypatch.setattr(cli, "eval_family", refuse)


@pytest.mark.parametrize("where", ["directory", "missing parent", "file parent", "empty"])
@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_an_unusable_out_is_refused_before_any_evaluation(command, where, tmp_path, capsys, monkeypatch):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("keep")
    out = {"directory": tmp_path / "dir", "missing parent": tmp_path / "none" / "o",
           "file parent": tmp_path / "file" / "o", "empty": ""}[where]
    with pytest.raises(OSError) as opened:
        open(out, "w")
    _refuse_kernel(monkeypatch, AssertionError("the kernel was evaluated"))
    assert cli.main(_WRITERS[command] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {opened.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert not any((tmp_path / "dir").iterdir()) and (tmp_path / "file").read_text() == "keep"


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_a_refused_request_leaves_an_existing_out_untouched(command, tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    out.write_text("keep")
    _refuse_kernel(monkeypatch, DomainError("kernel refused"))
    assert cli.main(_WRITERS[command] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: kernel refused\n"
    assert out.read_text() == "keep"
