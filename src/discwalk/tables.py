"""Sparse coefficient tables for disc-polynomial expansions, plus JSON IO.

A table stores finitely many complex coefficients a_{m,n} at a fixed disc
parameter alpha (alpha = q - 2 when the table describes an isotropic kernel on
the complex sphere of dimension 2q).  Absent keys mean coefficient zero;
suppressed entries are removed rather than stored as zeros, so support-set
computations see true supports.

File format (entries sorted by (m, n) ascending, floats round-trip exactly):

    { "alpha": <number>,
      "entries": [ { "m": <int>, "n": <int>, "re": <number>, "im": <number> }, ... ] }
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

from .errors import DomainError

Key = tuple[int, int]

# the layout json.dumps(indent=2) gives a table document; "%r" spells a finite
# float exactly as json does
_TABLE_JSON = '{\n  "alpha": %s,\n  "entries": %s\n}\n'
_ENTRY_JSON = '    {\n      "m": %d,\n      "n": %d,\n      "re": %r,\n      "im": %r\n    }'


def _refuse_non_finite(entries: dict[Key, complex], action: str) -> None:
    """One summing pass; only if the sum is not finite, a DomainError naming the
    first non-finite entry in (m, n) order (finite entries may overflow the sum)."""
    if not cmath.isfinite(sum(entries.values())):
        for (m, n), v in sorted(entries.items()):
            if not cmath.isfinite(v):
                raise DomainError(f"cannot {action} non-finite coefficient ({m}, {n}) = {v!r}")


def read_index(value) -> int:
    """An exact integer (an index or a parameter): an int, an integral float or a
    digit string.  A bool or a fractional float raises ``ValueError``; NaN and
    infinity raise as ``int`` does (``ValueError`` / ``OverflowError``)."""
    if isinstance(value, bool):
        raise ValueError(f"index must be an integer, got {value!r}")
    out = int(value)
    if isinstance(value, float) and out != value:
        raise ValueError(f"index must be an integer, got {value!r}")
    return out


@dataclass
class CoefficientTable:
    alpha: float
    entries: dict[Key, complex] = field(default_factory=dict)
    #: provenance tag ("exact" closed form, "extracted" by quadrature, "unknown"
    #: when read from a file); not serialized
    source: str = "exact"

    def __post_init__(self) -> None:
        if not self.alpha > -1.0:
            raise DomainError(f"table parameter must exceed -1, got alpha = {self.alpha}")
        if not math.isfinite(self.alpha):
            raise DomainError(f"table parameter must be finite, got alpha = {self.alpha}")
        clean: dict[Key, complex] = {}
        for key, value in self.entries.items():
            m, n = key
            if m < 0 or n < 0 or m != int(m) or n != int(n):
                raise DomainError(f"bad table index {key!r}")
            clean[(int(m), int(n))] = complex(value)
        self.entries = clean

    def get(self, m: int, n: int) -> complex:
        return self.entries.get((m, n), 0j)

    def sorted_items(self) -> list[tuple[Key, complex]]:
        return sorted(self.entries.items())

    def max_abs_imag(self) -> float:
        return max((abs(v.imag) for v in self.entries.values()), default=0.0)

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "entries": [
                {"m": m, "n": n, "re": v.real, "im": v.imag}
                for (m, n), v in self.sorted_items()
            ],
        }

    @classmethod
    def _of_clean(cls, alpha: float, entries: dict[Key, complex], source: str) -> "CoefficientTable":
        """A table from entries that are already ``(int, int) -> complex`` with
        nonnegative indices; only ``alpha`` is checked."""
        table = cls(alpha=alpha, source=source)  # __post_init__ has no entries to redo
        table.entries = entries
        return table

    @classmethod
    def from_dict(cls, doc: dict, source: str = "unknown") -> "CoefficientTable":
        # one pass converts and checks every entry; the refusals come in the
        # public constructor's order (malformed document, alpha, first bad
        # index), then the first non-finite entry, which JSON cannot spell
        negative = None
        try:
            alpha = float(doc["alpha"])
            entries: dict[Key, complex] = {}
            for e in doc["entries"]:
                m, n = e["m"], e["n"]
                if type(m) is not int or type(n) is not int:  # a bool goes to read_index too
                    m, n = read_index(m), read_index(n)
                key = (m, n)
                if negative is None and (key[0] < 0 or key[1] < 0):
                    negative = key
                entries[key] = complex(float(e["re"]), float(e["im"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed coefficient table document: {exc}") from exc
        table = cls._of_clean(alpha, entries, source)
        if negative is not None:
            raise DomainError(f"bad table index {negative!r}")
        _refuse_non_finite(entries, "read")
        return table

    def nonnegativity_violations(self, tol: float) -> list[tuple[int, int, complex]]:
        """Entries, in (m, n) order, that are not real and nonnegative to within
        ``tol``: |Im| > tol or Re < -tol.  A NaN entry is always a violation."""
        bad = [
            (key, v)
            for key, v in self.entries.items()
            if not (abs(v.imag) <= tol and v.real >= -tol)
        ]
        return [(m, n, v) for (m, n), v in sorted(bad)]

    def dumps(self) -> str:
        """The file format, byte-equal to ``json.dumps(self.to_dict(), indent=2) + "\\n"``.

        Non-finite entries have no JSON spelling and are refused.
        """
        _refuse_non_finite(self.entries, "write")
        items = self.sorted_items()
        body = ",\n".join([_ENTRY_JSON % (m, n, v.real, v.imag) for (m, n), v in items])
        return _TABLE_JSON % (json.dumps(self.alpha), f"[\n{body}\n  ]" if items else "[]")

    @classmethod
    def loads(cls, text: str, source: str = "unknown") -> "CoefficientTable":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON for coefficient table: {exc}") from exc
        return cls.from_dict(doc, source=source)

    def save(self, path) -> None:
        text = self.dumps()  # may refuse the table: then no file is created
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "CoefficientTable":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())
