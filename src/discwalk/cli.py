"""Command-line front end.

Subcommands
-----------
expand          expand a family kernel into a coefficient table (JSON)
walk            apply a dimension-walk operator to a table
check           PD / strict-PD verdict for a table or a symbolic index set
gram            empirical Gram-matrix eigenvalue check on sampled sphere points
counterexample  reproduce the walk counterexamples and compare verdicts
plot-data       CSV samples of a kernel on a Cartesian grid over [-1, 1]^2

Each subcommand accepts only the shared options its handler reads: ``--q``
(complex sphere parameter) for all but walk, ``--tol`` (numerical
tolerance) for expand, check and counterexample, and ``--seed`` (RNG seed)
for gram.

Exit codes: 0 success, 2 usage/domain error, 3 capacity error (quadrature
rule, residue table, sphere sample, Gram matrix or plot grid budget),
4 counterexample verdict mismatch, 1 when stdout is closed before the output
is written, with no message.  Verdicts themselves are data and exit 0.  No
refused command leaves its --out file; expand and plot-data refuse an --out
that open cannot write before they evaluate.  Outputs are deterministic.

``main(argv)`` can be called repeatedly in one process: it builds each
subcommand's parser once, on first use, and reuses it after that.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import CapacityError, DiscWalkError, DomainError
from .families import (
    FamilySpec,
    eval_family,
    family_alpha,
    family_from_dict,
    make_family,
)
from .positivity import (
    COUNTEREXAMPLE_EXPECTED,
    IndexSet,
    _eigenvalues,
    counterexample_sets,
    counterexample_table,
    difference_set,
    gram_matrix,
    is_pd,
    sample_sphere,
    spd_verdict,
)
from .quadrature import coefficient_sum, default_rule, expand, require_bound, synthesize
from .tables import CoefficientTable
from .walks import _descente_sum, descente_x, descente_z, descente_zbar, montee_z, montee_zbar

#: largest grid**2 of plot-data (grid <= 1024): its rows are Python strings, 370 MB peak RSS there
_GRID_BUDGET = 2**20
_COMMANDS = ("expand", "walk", "check", "gram", "counterexample", "plot-data")
_WALK_OPS = {
    "dz": descente_z,
    "dzbar": descente_zbar,
    "dx": descente_x,
    "iz": montee_z,
    "izbar": montee_zbar,
}


def _read_text_or_inline(value: str) -> str:
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return fh.read()
    return value


def _parse_params(pairs: list[str] | None) -> dict:
    params: dict = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise DomainError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = int(raw)
        except ValueError:
            try:
                params[key] = float(raw)
            except ValueError:
                raise DomainError(f"--param value for {key!r} is not numeric: {raw!r}")
    return params


def _resolve_family(args) -> FamilySpec:
    if getattr(args, "family", None) and getattr(args, "builtin", None):
        raise DomainError("--family and --builtin are mutually exclusive")
    if getattr(args, "family", None):
        try:
            doc = json.loads(_read_text_or_inline(args.family))
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid family JSON: {exc}") from exc
        spec = family_from_dict(doc)
        if args.q is not None and spec.q != args.q:
            raise DomainError(f"--q {args.q} contradicts family document q = {spec.q}")
        return spec
    if getattr(args, "builtin", None):
        if args.q is None:
            raise DomainError("--builtin requires --q")
        return make_family(args.builtin, args.q, _parse_params(args.param))
    raise DomainError("one of --family or --builtin (or --in) is required")


def _table_q(table: CoefficientTable, q: int | None) -> int:
    if q is not None:
        if abs(table.alpha - (q - 2)) > 1e-9:
            raise DomainError(f"--q {q} contradicts table alpha = {table.alpha}")
        return q
    derived = table.alpha + 2.0
    if abs(derived - round(derived)) > 1e-9 or round(derived) < 2:
        raise DomainError(
            f"cannot derive an integer q >= 2 from table alpha = {table.alpha}; pass --q"
        )
    return int(round(derived))


def _refuse_unusable_out(path: str) -> None:
    """Raise at once the OSError that writing ``path`` would raise after the work,
    if ``path`` is empty or a directory or its parent is not one; ``open`` then creates nothing."""
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        open(path, "w").close()


def _function_from_args(args, need_q: bool = True) -> tuple:
    """(callable on disk points, q or None) from --in table or a family spec."""
    if getattr(args, "infile", None):
        if getattr(args, "family", None) or getattr(args, "builtin", None):
            raise DomainError("--in and --family/--builtin are mutually exclusive")
        table = CoefficientTable.load(args.infile)
        q = _table_q(table, args.q) if need_q else None
        return (lambda z: synthesize(table, z)), q
    spec = _resolve_family(args)
    return (lambda z: eval_family(spec, z)), spec.q


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_expand(args) -> int:
    spec = _resolve_family(args)
    _refuse_unusable_out(args.out)
    alpha = family_alpha(spec)
    rule = default_rule(alpha, args.mmax, args.nmax, args.radial_order, args.angular_order)
    table = expand(lambda z: eval_family(spec, z), alpha, args.mmax, args.nmax, rule)
    total = coefficient_sum(table, tol=args.tol)  # may refuse the table: then no file is written
    table.save(args.out)
    print(f"coefficient_sum {total!r}")
    print(f"max_imag_abs {table.max_abs_imag()!r}")
    return 0


def _cmd_walk(args) -> int:
    table = CoefficientTable.load(args.infile)
    result = _WALK_OPS[args.op](table)
    if args.op in ("iz", "izbar"):
        print(f"constant {result.constant!r}")
        result.table.save(args.out)
    else:
        result.save(args.out)
    return 0


def _cmd_check(args) -> int:
    if args.set and args.infile:
        raise DomainError("--in and --set are mutually exclusive")
    require_bound("threshold", args.threshold)  # refused whether or not the table passes the gate
    if args.set:
        s = IndexSet.loads(_read_text_or_inline(args.set))
        doc = {
            "input": "set",
            "spd": spd_verdict(s).to_dict(),
        }
    elif args.infile:
        table = CoefficientTable.load(args.infile)
        q = _table_q(table, args.q)
        report = is_pd(table, tol=args.tol)
        doc = {
            "input": "table",
            "q": q,
            "pd": {
                "ok": report.ok,
                "violations": [
                    {"m": m, "n": n, "re": v.real, "im": v.imag}
                    for m, n, v in report.violations
                ],
            },
            "spd": None,
        }
        if report.ok:
            s = difference_set(table, threshold=args.threshold)
            doc["set"] = s.to_dict()
            doc["spd"] = spd_verdict(s).to_dict()
    else:
        raise DomainError("one of --in or --set is required")
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_gram(args) -> int:
    f, q = _function_from_args(args)
    pts = sample_sphere(q, args.points, args.seed)
    evals = _eigenvalues(gram_matrix(f, pts))  # gram_matrix checked G is Hermitian
    low = float(evals[0])
    print(f"min_eigenvalue {low!r}")
    print(f"max_eigenvalue {float(evals[-1])!r}")
    print("PASS" if low >= -1e-8 else "FAIL")
    return 0


def _cmd_counterexample(args) -> int:
    q = args.q if args.q is not None else 2
    table, base_set = counterexample_table(args.case, q, args.truncation)
    sets = counterexample_sets(args.case)
    expected = COUNTEREXAMPLE_EXPECTED[args.case]
    dz, dzbar = descente_z(table), descente_zbar(table)
    # D_z is reported too, so D_x adds into a copy of its entries
    walked = {"f": table, "dz": dz, "dzbar": dzbar, "dx": _descente_sum(dict(dz.entries), dzbar)}
    verdicts = {}
    pd_flags = {}
    match = True
    for op in ("f", "dz", "dzbar", "dx"):
        verdict = spd_verdict(sets[op])
        verdicts[op] = verdict.to_dict()
        pd_flags[op] = is_pd(walked[op], tol=args.tol).ok
        if verdict.is_spd != expected[op] or not pd_flags[op]:
            match = False
    doc = {
        "case": args.case,
        "q": q,
        "truncation": args.truncation,
        "expected_spd": expected,
        "pd": pd_flags,
        "verdicts": verdicts,
        "sets": {op: sets[op].to_dict() for op in ("f", "dz", "dzbar", "dx")},
        "base_set": base_set.to_dict(),
        "match": match,
    }
    print(json.dumps(doc, indent=2))
    return 0 if match else 4


def _cmd_plot_data(args) -> int:
    if args.grid < 2:
        raise DomainError(f"--grid must be at least 2, got {args.grid}")
    if args.grid**2 > _GRID_BUDGET:
        raise CapacityError(f"--grid {args.grid} exceeds the budget of {_GRID_BUDGET} grid points")
    f, _q = _function_from_args(args, need_q=False)
    _refuse_unusable_out(args.out)
    axis = np.linspace(-1.0, 1.0, args.grid)
    xs = np.repeat(axis, args.grid)
    ys = np.tile(axis, args.grid)
    inside = xs * xs + ys * ys <= 1.0
    z = np.empty(int(inside.sum()), dtype=complex)  # complex(x, y) at each in-disk point
    z.real = xs[inside]
    z.imag = ys[inside]
    values = iter(np.asarray(f(z), dtype=complex).tolist())
    labels = [repr(v) for v in axis.tolist()]  # row (x, y) is (axis[i], axis[k]), k fastest
    rows = iter(inside.tolist())
    lines = ["x,y,re,im"]
    for x in labels:
        for y in labels:
            if next(rows):
                v = next(values)
                lines.append(f"{x},{y},{v.real!r},{v.imag!r}")
            else:
                lines.append(f"{x},{y},,")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {args.out}")
    return 0


# --------------------------------------------------------------------------
# parser


def _add_family_inputs(p: argparse.ArgumentParser, with_table: bool = False) -> None:
    p.add_argument("--family", help="family spec JSON (inline or @file)")
    p.add_argument("--builtin", help="family name: product|poisson|exponential|aktas|horn|lauricella")
    p.add_argument("--param", action="append", help="family parameter key=value (repeatable)")
    if with_table:
        p.add_argument("--in", dest="infile", help="coefficient table JSON file")


#: the options several subcommands share; each takes the ones its handler reads
_COMMON = {
    "q": dict(type=int, default=None, help="complex sphere parameter (q >= 2)"),
    "tol": dict(type=float, default=1e-10, help="numerical tolerance"),
    "seed": dict(type=int, default=42, help="RNG seed"),
}


def _subparser(sub, selected: str | None, name: str, help: str, common: str) -> argparse.ArgumentParser | None:
    if selected not in _COMMANDS or selected == name:
        p = sub.add_parser(name, help=help)
        for option in common.split():
            p.add_argument(f"--{option}", **_COMMON[option])
        return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discwalk",
        description="Disc-polynomial expansions, dimension walks and positive definiteness "
        "of isotropic kernels on complex spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    if p := _subparser(sub, command, "expand", "expand a family into a coefficient table", "q tol"):
        _add_family_inputs(p)
        p.add_argument("--mmax", type=int, default=8, help="largest z-index m in the table")
        p.add_argument("--nmax", type=int, default=8, help="largest conj(z)-index n in the table")
        p.add_argument("--out", required=True)
        p.add_argument("--radial-order", type=int, default=None)
        p.add_argument("--angular-order", type=int, default=None)
        p.set_defaults(func=_cmd_expand)

    if p := _subparser(sub, command, "walk", "apply a dimension-walk operator", ""):
        p.add_argument("--op", required=True, choices=sorted(_WALK_OPS))
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_walk)

    if p := _subparser(sub, command, "check", "PD / strict-PD verdict", "q tol"):
        p.add_argument("--in", dest="infile", help="coefficient table JSON file")
        p.add_argument("--set", help="index set JSON (inline or @file)")
        p.add_argument("--threshold", type=float, default=0.0,
                       help="strict positivity threshold for the difference set")
        p.set_defaults(func=_cmd_check)

    if p := _subparser(sub, command, "gram", "Gram matrix eigenvalue check", "q seed"):
        _add_family_inputs(p, with_table=True)
        p.add_argument("--points", type=int, default=40)
        p.set_defaults(func=_cmd_gram)

    if p := _subparser(sub, command, "counterexample", "reproduce walk counterexamples", "q tol"):
        p.add_argument("--case", required=True, choices=["i", "ii", "iii"])
        p.add_argument("--truncation", type=int, default=40)
        p.set_defaults(func=_cmd_counterexample)

    if p := _subparser(sub, command, "plot-data", "CSV grid samples of a kernel", "q"):
        _add_family_inputs(p, with_table=True)
        p.add_argument("--grid", type=int, default=41)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_plot_data)

    # usage prints the choices, so the unbuilt names stay in them, in their order
    sub.choices.update({name: sub.choices.pop(name, None) for name in _COMMANDS})
    return parser


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """``build_parser(command)``, built once per name of ``_COMMANDS`` (or None) and reused."""
    return build_parser(command)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # a closed stdout is console_main's to report
        raise
    except (DiscWalkError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
