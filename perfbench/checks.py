"""Output checks, run after each request and outside its timed span.

Each check tests an invariant rather than today's exact bytes, so that the
open ROADMAP items (exact SPD decisions, ``{constant, table}`` montee files,
vectorised evaluation) keep passing:

* ``walk``: every output entry equals ``c_alpha(m, n) * a`` of the input file
  (descente), or ``a / c`` (montee); a bare table and a ``{constant, table}``
  document are both accepted.
* ``check``: the verdict agrees with a brute-force residue scan.
  ``refuted_at(N, j)`` must name a class the set misses; any ``certified_*``
  kind must meet every class for N <= 64.
* ``counterexample``: exit 0 and ``"match": true``.
* ``coefficients``: the verdict as for ``check`` on the family's known
  pattern, and table entries against formulas written out here.
* ``expand``: Exponential and Aktas against the exact ``family_coefficients``;
  product and Poisson by reconstruction at interior points.
* ``plot-data``: rows against one vectorised ``eval_family`` / ``synthesize``.
* ``gram``: the output reads ``PASS``.

A check returns ``(ok, reason, facts)``; ``facts`` maps an ``accuracy.*``
metric to a value that the run folds in with ``ACCURACY_FOLD``, and
``rows`` to the number of plot rows that carry a value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln

SCAN_LIMIT = 64
REL_TOL = 1e-12
EXTRACT_TOL = 1e-8
PLOT_TOL = 1e-9

ACCURACY_FOLD = {
    "accuracy.extract.max_abs_err": max,
    "accuracy.extract.exponential.q3.D16.max_abs_err": max,
    "accuracy.extract.exponential.q3.D64.max_abs_err": max,
    "accuracy.plot_data.max_abs_dev": max,
    "accuracy.gram.min_eigenvalue": min,
}

#: exact difference patterns of the untruncated exact families (finite part, progressions)
PATTERNS = {
    "exponential": ([], [(0, 1), (0, -1)]),
    "aktas": ([], [(0, 1)]),
    "lauricella": ([], [(0, 1)]),
    "horn": ([], [(0, -1)]),
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _close(got: complex, want: complex, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want) + 1e-300


# --------------------------------------------------------------------------
# residue scans


def covered_residues(finite, progressions, N: int) -> set:
    """Classes mod N met by finite + {offset + step k : k >= 0}."""
    out = {e % N for e in finite}
    for offset, step in progressions:
        g = math.gcd(abs(step), N)
        out.update(range(offset % g, N, g))
    return out


def verify_verdict(spd: dict, finite, progressions) -> None:
    kind = spd.get("kind")
    if kind == "refuted_at":
        N, j = int(spd["N"]), int(spd["j"])
        _require(N >= 1 and 0 <= j < N, f"bad witness ({N}, {j})")
        _require(j not in covered_residues(finite, progressions, N),
                 f"refuted_at({N}, {j}) but the set meets {N}Z+{j}")
    elif isinstance(kind, str) and kind.startswith("certified"):
        for N in range(1, SCAN_LIMIT + 1):
            missed = set(range(N)) - covered_residues(finite, progressions, N)
            _require(not missed, f"{kind} but class {min(missed or {0})} mod {N} is missed")
    else:
        raise CheckFailed(f"unknown verdict kind {kind!r}")


# --------------------------------------------------------------------------
# coefficient formulas, written independently of the library


def exact_table(family: str, params: dict, q: int, D: int) -> np.ndarray:
    """Dense a[M, N], 0 <= M, N <= D, of an exact family at alpha = q - 2 (0 off its support)."""
    M, N = np.meshgrid(np.arange(D + 1.0), np.arange(D + 1.0), indexing="ij")
    alpha = q - 2.0
    if family == "exponential":
        # a = h_{M,N} (q-1)! sum_j 1 / (j! (M+N+q-1+j)!)
        j = np.arange(30.0)[:, None, None]
        series = np.exp(-gammaln(j + 1) - gammaln(M + N + q + j)).sum(axis=0)
        log_h = (gammaln(alpha + M + 1) - gammaln(M + 1) + gammaln(alpha + N + 1) - gammaln(N + 1)
                 - 2 * gammaln(alpha + 1))
        return (M + N + alpha + 1) / (alpha + 1) * np.exp(log_h) * math.factorial(q - 1) * series
    lpoch = lambda a, k: gammaln(a + k) - gammaln(a)  # noqa: E731
    t = params["t"]
    if family == "horn":  # series (m, n) at key (m, m + n)
        m, n = M, np.maximum(N - M, 0)
        s, b = params["s"], params["b"]
        log_a = lpoch(q + n - 1, m) + lpoch(b, n) + n * math.log(t) + m * math.log(s)
        on = N >= M
    else:  # Aktas and Lauricella: series (m, n) at key (m + n, n)
        m, n = np.maximum(M - N, 0), N
        if family == "aktas":
            log_a = lpoch(q - 1.0, n) + (m + n) * math.log(t)
        else:
            s, b = params["s"], params["b"]
            log_a = lpoch(q - 1.0, n) + lpoch(b, m) + m * math.log(t) + n * math.log(s)
        on = M >= N
    return np.where(on, np.exp(log_a - gammaln(m + 1) - gammaln(n + 1)), 0.0)


# --------------------------------------------------------------------------
# per-kind checks


def _c(m: int, n: int, alpha: float) -> float:
    return m * (n + alpha + 1.0) / (alpha + 1.0)


def walk_expected(op: str, alpha: float, a: dict) -> tuple[float, dict]:
    """(output alpha, output entries) of a walk applied to entries ``a`` at ``alpha``."""
    out: dict = {}
    if op in ("dz", "dx"):
        for (m, n), v in a.items():
            if m >= 1:
                out[(m - 1, n)] = out.get((m - 1, n), 0.0) + _c(m, n, alpha) * v
    if op in ("dzbar", "dx"):
        for (m, n), v in a.items():
            if n >= 1:
                out[(m, n - 1)] = out.get((m, n - 1), 0.0) + _c(n, m, alpha) * v
    if op == "iz":
        out = {(m + 1, n): v / _c(m + 1, n, alpha - 1.0) for (m, n), v in a.items()}
    if op == "izbar":
        out = {(m, n + 1): v / _c(n + 1, m, alpha - 1.0) for (m, n), v in a.items()}
    return (alpha - 1.0 if op in ("iz", "izbar") else alpha + 1.0), out


def montee_constant(alpha: float, entries: dict) -> float:
    acc = []
    for (m, n), v in entries.items():
        if m == n:
            at_zero = (-1.0) ** n * math.prod(k / (alpha + k) for k in range(1, n + 1))
            acc.append(-v * at_zero)
    return math.fsum(acc)


def _table_doc_entries(doc: dict) -> dict:
    return {(int(e["m"]), int(e["n"])): complex(e["re"], e["im"]) for e in doc["entries"]}


def check_walk(req, outcome, path, ctx) -> dict:
    src = ctx.tables[req.info["table"]]
    doc = json.loads(Path(path).read_text())
    constant = None
    if "table" in doc:
        constant = float(doc["constant"])
        doc = doc["table"]
    got = _table_doc_entries(doc)
    alpha, want = walk_expected(req.info["op"], src.alpha, src.entries)
    _require(abs(float(doc["alpha"]) - alpha) < 1e-12, f"output alpha {doc['alpha']} != {alpha}")
    _require(set(got) == set(want), f"output support differs: {len(got)} vs {len(want)} entries")
    for key, v in want.items():
        _require(_close(got[key], v), f"entry {key}: {got[key]!r} != {v!r}")
    if req.info["op"] in ("iz", "izbar"):
        for line in outcome.stdout.splitlines():
            if line.startswith("constant "):
                constant = float(line.split()[1])
        _require(constant is not None, "montee result lacks its constant")
        want_c = montee_constant(alpha, want)
        _require(abs(constant - want_c) <= 1e-9 * (1.0 + abs(want_c)), f"constant {constant!r} != {want_c!r}")
    return {}


def check_check(req, outcome, path, ctx) -> dict:
    doc = json.loads(outcome.stdout)
    if req.info["input"] == "table":
        _require(doc["pd"]["ok"] is True, "exact nonnegative table reported not PD")
    verify_verdict(doc["spd"], req.info["finite"], req.info["progressions"])
    return {}


def check_counterexample(req, outcome, path, ctx) -> dict:
    _require(json.loads(outcome.stdout).get("match") is True, "verdicts do not match the expected ones")
    return {}


def check_coefficients(req, outcome, path, ctx) -> dict:
    table, verdict = outcome.value
    info = req.info
    family, q, D = info["family"], info["q"], info["D"]
    verify_verdict(verdict.to_dict(), *PATTERNS[family])
    _require(abs(table.alpha - (q - 2)) < 1e-12, f"table alpha {table.alpha} != {q - 2}")
    want = exact_table(family, info["params"], q, D)
    size = np.count_nonzero(want)
    _require(len(table.entries) == size, f"{len(table.entries)} entries, expected {size}")
    for (M, N), got in table.entries.items():
        _require(M <= D and N <= D, f"key ({M},{N}) outside the table")
        _require(_close(got, want[M, N], 1e-10), f"a[{M},{N}] = {got!r}, expected {want[M, N]!r}")
    return {}


def check_expand(req, outcome, path, ctx) -> dict:
    dw = ctx.dw
    info = req.info
    family, q, D = info["family"], info["q"], info["D"]
    table = dw.CoefficientTable.load(path)
    _require(abs(table.alpha - (q - 2)) < 1e-12, f"table alpha {table.alpha} != {q - 2}")
    _require(len(table.entries) == (D + 1) ** 2, f"{len(table.entries)} entries, expected {(D + 1) ** 2}")
    printed = [ln for ln in outcome.stdout.splitlines() if ln.startswith("coefficient_sum ")]
    _require(len(printed) == 1, "no coefficient_sum line")
    total = math.fsum(v.real for v in table.entries.values())
    _require(abs(float(printed[0].split()[1]) - total) <= 1e-9 * abs(total), "coefficient_sum disagrees with the table")
    spec = dw.make_family(family, q, info["params"])
    acc = {}
    if family in ("exponential", "aktas"):
        exact = dw.family_coefficients(spec, D, D)
        err = max(abs(table.get(m, n) - exact.get(m, n)) for m in range(D + 1) for n in range(D + 1))
        _require(err <= EXTRACT_TOL, f"max |extracted - exact| = {err:.3e}")
        acc["accuracy.extract.max_abs_err"] = err
        if family == "exponential" and q == 3 and D in (16, 64):
            acc[f"accuracy.extract.exponential.q3.D{D}.max_abs_err"] = err
    else:
        rng = np.random.default_rng(D * 10 + q)
        z = 0.3 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
        dev = float(np.max(np.abs(dw.synthesize(table, z) - dw.eval_family(spec, z))))
        _require(dev <= EXTRACT_TOL, f"reconstruction deviates by {dev:.3e}")
    return acc


def check_plot_data(req, outcome, path, ctx) -> dict:
    dw = ctx.dw
    grid = req.info["grid"]
    lines = Path(path).read_text().splitlines()
    _require(lines[0] == "x,y,re,im", "bad CSV header")
    _require(len(lines) == grid * grid + 1, f"{len(lines) - 1} rows, expected {grid * grid}")
    axis = np.linspace(-1.0, 1.0, grid)
    xs = np.repeat(axis, grid)
    ys = np.tile(axis, grid)
    inside = xs * xs + ys * ys <= 1.0
    got = np.zeros(int(inside.sum()), dtype=complex)
    k = 0
    for row, x, y, ins in zip(lines[1:], xs, ys, inside):
        fx, fy, re, im = row.split(",")
        _require(float(fx) == x and float(fy) == y, f"row point ({fx}, {fy}) is off the grid")
        if ins:
            got[k] = complex(float(re), float(im))
            k += 1
        else:
            _require(re == "" and im == "", "value outside the disk")
    z = xs[inside] + 1j * ys[inside]
    if "table" in req.info:
        want = dw.synthesize(dw.CoefficientTable.load(req.info["table"]), z)
    else:
        want = dw.eval_family(dw.make_family(req.info["family"], req.info["q"], req.info["params"]), z)
    dev = float(np.max(np.abs(got - want)))
    _require(dev <= PLOT_TOL * max(1.0, float(np.max(np.abs(want)))), f"rows deviate by {dev:.3e}")
    return {"accuracy.plot_data.max_abs_dev": dev, "rows": len(z)}


def check_gram(req, outcome, path, ctx) -> dict:
    lines = outcome.stdout.splitlines()
    _require(lines[-1] == "PASS", f"gram verdict {lines[-1]!r}")
    low = [float(ln.split()[1]) for ln in lines if ln.startswith("min_eigenvalue ")]
    _require(len(low) == 1, "no min_eigenvalue line")
    return {"accuracy.gram.min_eigenvalue": low[0]}


CHECKS = {
    "walk": check_walk,
    "check": check_check,
    "counterexample": check_counterexample,
    "coefficients": check_coefficients,
    "expand": check_expand,
    "plot_data": check_plot_data,
    "gram": check_gram,
}


def run_check(req, outcome, path, ctx) -> tuple[bool, str, dict]:
    """Never raises: a malformed output is a failed check."""
    try:
        return True, "", CHECKS[req.kind](req, outcome, path, ctx)
    except CheckFailed as exc:
        return False, str(exc), {}
    except (KeyError, IndexError, TypeError, ValueError, OSError, AttributeError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", {}
