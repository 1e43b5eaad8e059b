"""Seeded request generation for the three benchmark workloads.

A workload is a set-up step (inputs written to the run's work directory) and
an endless sequence of rounds.  Every round holds the same cells (distinct
requests) once each, shuffled by the seed and the round number, so each cell
is timed once per round and its latencies can be summarised on their own.
The seed drives the order, the random index sets and the sampling seeds; the
program only ever sees the generated argv, files and library arguments.

Request kinds (each one is also the stem of an end-to-end ``<kind>_ms``):
``expand``, ``walk``, ``check``, ``counterexample``, ``gram``, ``plot_data``
(CLI subcommands run through ``discwalk.cli.main``) and ``coefficients`` (the
README quick start through the public API).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

QS = (2, 3, 4)
DS = (16, 32, 64)

#: families with exact coefficient tables (walk_decide inputs and library requests)
EXACT = {
    "exponential": {},
    "aktas": {"t": 0.3},
    "horn": {"t": 0.1, "s": 0.1, "b": 2},
    "lauricella": {"t": 0.2, "s": 0.1, "b": 2},
}
#: closed forms that evaluate in one vectorised numpy expression
CLOSED = {
    "product": {"m": 2, "n": 1},
    "poisson": {"r": 0.5},
    "exponential": {},
    "aktas": {"t": 0.3},
}
#: families evaluated by per-point double/triple series
SERIES = {"horn": EXACT["horn"], "lauricella": EXACT["lauricella"]}

KINDS = ("expand", "walk", "check", "counterexample", "gram", "plot_data", "coefficients")
DESCENTE_OPS = ("dz", "dzbar", "dx")
TRUNCATIONS = (40, 400)
MONTEE_OPS = ("iz", "izbar")

#: reference requests per round of each kind a workload does not issue, so
#: that every workload reports every end-to-end metric; they are spread
#: through the round, so their latencies sample the whole run, and stay out
#: of the workload's own metrics
REFERENCE_PER_ROUND = 8


@dataclass
class Request:
    kind: str
    argv: list | None          # CLI argv without --out; None for library requests
    info: dict = field(default_factory=dict)
    out_ext: str | None = None  # the runner appends --out <fresh path> when set

    @property
    def cell(self) -> str:
        """Identity of the request: the same cell in every round has the same key."""
        return " ".join(self.argv) if self.argv is not None else json.dumps(self.info, sort_keys=True)


@dataclass
class InputTable:
    """A table written during set-up, kept in memory for the output checks."""

    path: str
    family: str
    q: int
    D: int
    alpha: float
    entries: dict  # (m, n) -> float, exactly as written


def param_args(params: dict) -> list:
    out = []
    for key, value in params.items():
        out += ["--param", f"{key}={value}"]
    return out


def _family_argv(family: str, q: int, params: dict) -> list:
    return ["--builtin", family, "--q", str(q)] + param_args(params)


def write_table(dw, workdir: Path, family: str, q: int, D: int) -> InputTable:
    spec = dw.make_family(family, q, EXACT[family])
    table = dw.family_coefficients(spec, D, D)
    path = workdir / f"in-{family}-q{q}-D{D}.json"
    table.save(path)
    doc = dw.CoefficientTable.load(path)
    entries = {key: v.real for key, v in doc.entries.items()}
    return InputTable(str(path), family, q, D, doc.alpha, entries)


def random_index_set(rng: random.Random, shape: str) -> tuple[list, list]:
    """finite part (<= 6 elements in [-40, 40]) and progressions (<= 3, |step| 2..12)."""
    finite = []
    progs = []
    if shape in ("finite", "mixed"):
        finite = sorted(rng.sample(range(-40, 41), rng.randint(1, 6)))
    if shape in ("progressions", "mixed"):
        for _ in range(rng.randint(1, 3)):
            progs.append((rng.randint(-40, 40), rng.choice((-1, 1)) * rng.randint(2, 12)))
    return finite, progs


def set_json(finite: list, progs: list) -> str:
    return json.dumps({"finite": finite, "progressions": [{"offset": o, "step": s} for o, s in progs]})


class Workload:
    """Base: ``setup`` writes inputs; ``round(r)`` returns the cells, shuffled for round r."""

    name = ""
    kinds: tuple = ()

    def __init__(self, dw, seed: int, workdir: Path):
        self.dw = dw
        self.seed = seed
        self.workdir = workdir
        self.tables: dict[str, InputTable] = {}
        self.setup()
        self._reference_table = None
        if not {"walk", "check"} <= set(self.kinds):
            ref = write_table(dw, workdir, "exponential", 3, 32)
            self.tables[ref.path] = ref
            self._reference_table = ref

    def setup(self) -> None:
        pass

    def cells(self, rng: random.Random) -> list:
        """Every cell once; ``rng`` is seeded by the seed alone, so every round gets the same cells."""
        raise NotImplementedError

    def round(self, r: int) -> list:
        reqs = self.cells(random.Random(f"{self.name}:{self.seed}"))
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(reqs)
        return reqs

    def reference_requests(self) -> list:
        """REFERENCE_PER_ROUND fixed requests of each kind this workload does not issue."""
        ref = self._reference_table
        make = {
            "expand": lambda: expand_request("poisson", 3, 16),
            "walk": lambda: walk_request(ref, "dx"),
            "check": lambda: check_table_request(ref),
            "counterexample": lambda: counterexample_request("iii", 2, 40),
            "gram": lambda: gram_request("exponential", 3, {}, 200, 7),
            "plot_data": lambda: plot_request("exponential", 3, {}, 31),
            "coefficients": lambda: coefficients_request("exponential", 3, 32),
        }
        reqs = []
        for _ in range(REFERENCE_PER_ROUND):
            reqs += [make[k]() for k in KINDS if k not in self.kinds]
        return reqs


# --------------------------------------------------------------------------
# request constructors


def expand_request(family: str, q: int, D: int) -> Request:
    argv = ["expand"] + _family_argv(family, q, CLOSED[family]) + ["--mmax", str(D), "--nmax", str(D)]
    info = {"family": family, "q": q, "D": D, "params": CLOSED[family]}
    return Request("expand", argv, info, out_ext="json")


def walk_request(table: InputTable, op: str) -> Request:
    return Request("walk", ["walk", "--op", op, "--in", table.path], {"table": table.path, "op": op}, "json")


def check_table_request(table: InputTable) -> Request:
    finite = sorted({m - n for (m, n), v in table.entries.items() if v > 0.0})
    info = {"input": "table", "finite": finite, "progressions": []}
    return Request("check", ["check", "--in", table.path], info)


def check_set_request(finite: list, progs: list) -> Request:
    info = {"input": "set", "finite": finite, "progressions": progs}
    return Request("check", ["check", "--set", set_json(finite, progs)], info)


def counterexample_request(case: str, q: int, truncation: int) -> Request:
    argv = ["counterexample", "--case", case, "--q", str(q), "--truncation", str(truncation)]
    return Request("counterexample", argv, {"case": case})


def coefficients_request(family: str, q: int, D: int) -> Request:
    info = {"family": family, "q": q, "D": D, "params": EXACT[family]}
    return Request("coefficients", None, info)


def gram_request(family: str, q: int, params: dict, points: int, seed: int) -> Request:
    argv = ["gram"] + _family_argv(family, q, params) + ["--points", str(points), "--seed", str(seed)]
    return Request("gram", argv, {"family": family})


def gram_table_request(table: InputTable, points: int, seed: int) -> Request:
    argv = ["gram", "--in", table.path, "--points", str(points), "--seed", str(seed)]
    return Request("gram", argv, {"table": table.path})


def plot_request(family: str, q: int, params: dict, grid: int) -> Request:
    argv = ["plot-data"] + _family_argv(family, q, params) + ["--grid", str(grid)]
    info = {"family": family, "q": q, "params": params, "grid": grid}
    return Request("plot_data", argv, info, out_ext="csv")


def plot_table_request(table: InputTable, grid: int) -> Request:
    argv = ["plot-data", "--in", table.path, "--grid", str(grid)]
    return Request("plot_data", argv, {"table": table.path, "grid": grid}, out_ext="csv")


# --------------------------------------------------------------------------
# workloads


class WalkDecide(Workload):
    """Coefficient-space traffic: tables, walks and the positivity decision; no kernel evaluation."""

    name = "walk_decide"
    kinds = ("coefficients", "walk", "check", "counterexample")

    def setup(self) -> None:
        for family in EXACT:
            for q in QS:
                for D in DS:
                    t = write_table(self.dw, self.workdir, family, q, D)
                    self.tables[t.path] = t

    def cells(self, rng: random.Random) -> list:
        reqs = []
        for t in self.tables.values():
            for op in DESCENTE_OPS + (MONTEE_OPS if t.q >= 3 else ()):
                reqs.append(walk_request(t, op))
            reqs.append(check_table_request(t))
            reqs.append(coefficients_request(t.family, t.q, t.D))
        for shape in ("finite", "progressions", "mixed"):
            for _ in range(8):
                reqs.append(check_set_request(*random_index_set(rng, shape)))
        for case in ("i", "ii", "iii"):
            for q in (2, 3):
                for truncation in TRUNCATIONS:
                    reqs.append(counterexample_request(case, q, truncation))
        return reqs


class Evaluate(Workload):
    """Function-space traffic: plot-data and gram over closed forms, series kernels and a table."""

    name = "evaluate"
    kinds = ("plot_data", "gram")

    def setup(self) -> None:
        t = write_table(self.dw, self.workdir, "exponential", 3, 8)
        self.tables[t.path] = t
        self.table = t

    def cells(self, rng: random.Random) -> list:
        reqs = []
        for family, params in CLOSED.items():
            for q in QS:
                reqs.append(plot_request(family, q, params, 61))
                reqs.append(gram_request(family, q, params, 200, rng.randrange(2**31)))
        for family, params in SERIES.items():
            for q in QS:
                reqs.append(plot_request(family, q, params, 15))
                reqs.append(gram_request(family, q, params, 16, rng.randrange(2**31)))
        reqs.append(plot_table_request(self.table, 15))
        reqs.append(gram_table_request(self.table, 120, rng.randrange(2**31)))
        return reqs


class Extract(Workload):
    """Analysis direction: CLI expand of four closed forms through the quadrature layer."""

    name = "extract"
    kinds = ("expand",)

    def cells(self, rng: random.Random) -> list:
        return [expand_request(f, q, D) for f in CLOSED for q in QS for D in DS]


WORKLOADS = {w.name: w for w in (WalkDecide, Evaluate, Extract)}
