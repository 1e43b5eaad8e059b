"""Dimension walks: Descente and Montee operators on coefficient tables.

The Wirtinger derivatives D_z = (D_x - i D_y)/2 and D_zbar = (D_x + i D_y)/2
act on disc-polynomial expansions as exact sparse transforms of the
coefficients, moving between parameter levels alpha and alpha + 1 (i.e.
between spheres of complex dimension q and q + 1):

    descente:  b_{m,n}  at alpha+1  =  c_alpha(m+1, n) a_{m+1,n}  at alpha
    montee:    b_{m,n}  at alpha    =  a_{m-1,n} / c_alpha(m, n)  at alpha+1,  m >= 1

with c_alpha(m, n) = m (n + alpha + 1)/(alpha + 1) > 0 for m >= 1, so both
transforms preserve entrywise nonnegativity by construction (c_alpha is the
multiplier in D_z R_{m,n}^alpha = c_alpha(m, n) R_{m-1,n}^(alpha+1)).  The
operators call ``c_denominator`` once and write the product inline per entry,
bit-equal to one ``c_factor`` call per entry (tests/helpers.py), which
tests/test_walk_path.py checks.  There is one operator per direction, lowering
(Descente) and raising (Montee), and it takes the index it moves: m for z, n
for conj(z).  By R_{m,n}(conj z) = R_{n,m}(z) a conj(z) operator is its z twin
with m and n exchanged, which keeps the diagonal and so the Montee constant.
The Montee (primitive) operators are implemented only on coefficient space --
that transform is exact, whereas numerical antidifferentiation is not; the
function-space definition is validated through the round trips
descente(montee(T)) = T.

A Montee result carries the table of the nonconstant part together with the
constant term of the primitive, so constant + synthesize(table) reproduces the
primitive that vanishes at the origin, while synthesize(table) alone is the
shifted primitive that is positive definite whenever the input was.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError
from .special import c_denominator, disc_poly_at_zero
from .tables import CoefficientTable


def _lower(table: CoefficientTable, index: str) -> CoefficientTable:
    """One Descente pass to alpha + 1: ``index`` ("m" or "n") drops by one; where it is 0, no image."""
    alpha = table.alpha
    a1 = c_denominator(alpha)
    items = table.entries.items()
    if index == "m":
        entries = {(m - 1, n): m * (n + alpha + 1.0) / a1 * v for (m, n), v in items if m >= 1}
    else:
        entries = {(m, n - 1): n * (m + alpha + 1.0) / a1 * v for (m, n), v in items if n >= 1}
    return CoefficientTable._of_clean(alpha + 1.0, entries, table.source)


def descente_z(table: CoefficientTable) -> CoefficientTable:
    """Coefficient table of D_z f at level alpha + 1; m = 0 entries have no image."""
    return _lower(table, "m")


def descente_zbar(table: CoefficientTable) -> CoefficientTable:
    """Coefficient table of D_zbar f at level alpha + 1; n = 0 entries have no image."""
    return _lower(table, "n")


def _descente_sum(dz_entries: dict, dzbar: CoefficientTable) -> CoefficientTable:
    """D_x = D_z + D_zbar, the D_zbar table added into ``dz_entries`` (pass a copy to keep them)."""
    for key, v in dzbar.entries.items():
        dz_entries[key] = dz_entries.get(key, 0j) + v
    return CoefficientTable._of_clean(dzbar.alpha, dz_entries, dzbar.source)


def descente_x(table: CoefficientTable) -> CoefficientTable:
    """Coefficient table of D_x f = D_z f + D_zbar f at level alpha + 1."""
    return _descente_sum(descente_z(table).entries, descente_zbar(table))


@dataclass
class MonteeResult:
    """Primitive of a table: ``constant + synthesize(table)`` is the primitive
    vanishing at 0; ``table`` has no (0,0) entry (the constant term is split out).
    """

    table: CoefficientTable
    constant: float

    def to_dict(self) -> dict:
        return {"constant": self.constant, "table": self.table.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "MonteeResult":
        try:
            constant = float(doc["constant"])
            table = CoefficientTable.from_dict(doc["table"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed montee result document: {exc}") from exc
        return cls(table=table, constant=constant)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "MonteeResult":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON for montee result: {exc}") from exc
        return cls.from_dict(doc)


def _raise(table: CoefficientTable, index: str) -> MonteeResult:
    """One Montee pass from alpha + 1 to alpha: ``index`` ("m" or "n") rises by one."""
    alpha = table.alpha - 1.0
    if not alpha > -1.0:
        raise DomainError(
            f"montee target parameter alpha = {alpha} must exceed -1 (input table at {table.alpha})"
        )
    a1 = c_denominator(alpha)
    items = table.entries.items()
    if index == "m":
        entries = {(m + 1, n): v / ((m + 1) * (n + alpha + 1.0) / a1) for (m, n), v in items}
    else:
        entries = {(m, n + 1): v / ((n + 1) * (m + alpha + 1.0) / a1) for (m, n), v in items}
    # constant = -(sum of diagonal entries weighted by the origin values);
    # off-diagonal entries vanish at 0, so only (n, n) with n >= 1 contribute.
    acc = 0j
    for (m, n), v in entries.items():
        if m == n:
            acc -= v * disc_poly_at_zero(n, n, alpha)
    if abs(acc.imag) > 1e-9 * (1.0 + abs(acc.real)):
        raise DomainError(
            "montee constant came out non-real; input table lacks the real/conjugate "
            f"structure of a positive definite expansion (imag = {acc.imag!r})"
        )
    out = CoefficientTable._of_clean(alpha, entries, table.source)
    return MonteeResult(table=out, constant=float(acc.real))


def montee_z(table: CoefficientTable) -> MonteeResult:
    """z-primitive of a table at level alpha+1, expressed at level alpha = alpha+1-1."""
    return _raise(table, "m")


def montee_zbar(table: CoefficientTable) -> MonteeResult:
    """conj(z)-primitive of a table at level alpha+1, expressed at level alpha."""
    return _raise(table, "n")
