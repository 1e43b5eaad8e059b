"""Family parameters: how ``make_family`` and ``family_from_dict`` read them."""

import dataclasses

import pytest

from discwalk import (
    Aktas,
    DomainError,
    Exponential,
    Horn,
    Lauricella,
    PoissonSzego,
    ProductKernel,
    family_from_dict,
    family_to_dict,
    make_family,
)
from discwalk import cli

# name, class, parameters in declaration order (integral floats for int
# fields and ints for float fields, so coercion is visible)
_FAMILIES = [
    ("product", ProductKernel, {"m": 2.0, "n": 1}),
    ("poisson", PoissonSzego, {"r": 0}),
    ("exponential", Exponential, {}),
    ("aktas", Aktas, {"t": 0.3}),
    ("horn", Horn, {"t": 0.1, "s": 0.1, "b": 2.0}),
    ("lauricella", Lauricella, {"t": 0.2, "s": 0.1, "b": 2}),
]


@pytest.mark.parametrize("name, cls, params", _FAMILIES, ids=[f[0] for f in _FAMILIES])
def test_make_family_reads_required_fields_in_declaration_order(name, cls, params):
    keys = list(params)
    for i, key in enumerate(keys):
        given = {k: params[k] for k in keys[:i]}
        with pytest.raises(DomainError) as exc:
            make_family(name, 2, given)
        assert str(exc.value) == f"family {name!r} is missing required parameter {key!r}"
    spec = make_family(name, 2.0, params)
    assert type(spec) is cls and spec.q == 2
    for f in dataclasses.fields(cls):
        assert type(getattr(spec, f.name)) is {"int": int, "float": float}[f.type]
    assert family_from_dict(family_to_dict(spec)) == spec


@pytest.mark.parametrize("name, params, key", [
    ("product", {"m": 2.7, "n": 1}, "m"),
    ("product", {"m": 2, "n": True}, "n"),
    ("horn", {"t": 0.1, "s": 0.1, "b": 2.5}, "b"),
    ("lauricella", {"t": 0.2, "s": 0.1, "b": float("inf")}, "b"),
    ("lauricella", {"t": 0.2, "s": 0.1, "b": float("nan")}, "b"),
    ("aktas", {"t": "x"}, "t"),
    ("aktas", {"t": 10**400}, "t"),
], ids=range(7))
def test_make_family_refuses_parameters_it_cannot_read_exactly(name, params, key):
    with pytest.raises(DomainError, match=f"parameter {key!r}") as exc:
        make_family(name, 2, params)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("name, params", [
    ("horn", {"t": 0.1, "s": 0.1, "b": 2, "rx": 1.0}),
    ("horn", {"t": 0.1, "s": 0.1, "b": 2, "ry": 3.0}),
    ("lauricella", {"t": 0.2, "s": 0.1, "b": 2, "r2": 0.5}),
], ids=["rx", "ry", "r2"])
def test_family_document_with_a_radius_field_is_refused(name, params):
    # the series radii went with the series: every family field is required
    key = next(k for k in params if k.startswith("r"))
    with pytest.raises(DomainError, match=f"unexpected keyword argument {key!r}") as exc:
        family_from_dict({"family": name, "q": 2, "params": params})
    assert "\n" not in str(exc.value)


def test_cli_names_a_radius_field(tmp_path, capsys):
    doc = '{"family": "lauricella", "q": 2, "params": {"t": 0.2, "s": 0.1, "b": 2, "r2": 0.5}}'
    rc = cli.main(["expand", "--family", doc, "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith("error: bad parameters for family 'lauricella': ") and "'r2'" in err


@pytest.mark.parametrize("q", [2.9, True, float("inf"), "2.5"], ids=range(4))
def test_family_document_q_must_be_an_integer(q):
    with pytest.raises(DomainError, match="parameter 'q'"):
        family_from_dict({"family": "exponential", "q": q})


def test_family_document_still_takes_integral_floats_and_digit_strings():
    assert family_from_dict({"family": "exponential", "q": 3.0}) == Exponential(q=3)
    assert family_from_dict({"family": "exponential", "q": "3"}) == Exponential(q=3)
    spec = family_from_dict({"family": "product", "q": 2, "params": {"m": 2.0, "n": "1"}})
    assert spec == ProductKernel(m=2, n=1, q=2)
    assert type(spec.m) is int and type(spec.n) is int


@pytest.mark.parametrize("argv", [
    ["expand", "--builtin", "product", "--param", "m=2.5", "--param", "n=1", "--q", "2"],
    ["expand", "--builtin", "horn", "--param", "t=0.1", "--param", "s=0.1", "--param", "b=2.5", "--q", "2"],
    ["expand", "--family", '{"family": "exponential", "q": 2.9}'],
    ["expand", "--family", '{"family": "aktas", "q": 2, "params": {"t": 1' + "0" * 400 + "}}"],
], ids=range(4))
def test_cli_refuses_inexact_family_parameters_with_one_line(argv, tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = cli.main(argv + ["--mmax", "2", "--nmax", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "parameter" in captured.err
    assert not out.exists()
