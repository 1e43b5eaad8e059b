"""Command-line behavior: outputs, exit codes, determinism, file round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import discwalk.quadrature as quadrature
from discwalk import (
    CoefficientTable,
    Exponential,
    build_rule,
    coefficient_sum,
    counterexample_table,
    eval_family,
    expand,
    family_coefficients,
    gram_matrix,
    make_family,
    sample_sphere,
    synthesize,
)
from discwalk import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_expand_product_kernel(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc, stdout, _ = run(
        capsys, "expand", "--builtin", "product", "--param", "m=1", "--param", "n=0",
        "--q", "2", "--mmax", "2", "--nmax", "2", "--out", str(out),
    )
    assert rc == 0
    table = CoefficientTable.load(out)
    assert table.get(1, 0) == pytest.approx(1.0, abs=1e-11)
    for key, v in table.entries.items():
        if key != (1, 0):
            assert abs(v) < 1e-11
    assert "coefficient_sum" in stdout and "max_imag_abs" in stdout


def test_expand_poisson_r0(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc, stdout, _ = run(
        capsys, "expand", "--builtin", "poisson", "--param", "r=0",
        "--q", "2", "--mmax", "2", "--nmax", "2", "--out", str(out),
    )
    assert rc == 0
    table = CoefficientTable.load(out)
    assert table.get(0, 0) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)
    first = float(stdout.split()[1])
    assert first == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-10)


def test_expand_family_json_and_q_conflict(tmp_path, capsys):
    doc = json.dumps({"family": "exponential", "q": 2, "params": {}})
    out = tmp_path / "e.json"
    rc, _, _ = run(capsys, "expand", "--family", doc, "--mmax", "3", "--nmax", "3", "--out", str(out))
    assert rc == 0
    rc2, _, err = run(capsys, "expand", "--family", doc, "--q", "3", "--mmax", "2", "--nmax", "2", "--out", str(out))
    assert rc2 == 2 and "contradicts" in err
    # the @file spelling reads the spec from disk
    specfile = tmp_path / "fam.json"
    specfile.write_text(doc)
    out2 = tmp_path / "e2.json"
    rc3, _, _ = run(capsys, "expand", "--family", f"@{specfile}", "--mmax", "3", "--nmax", "3", "--out", str(out2))
    assert rc3 == 0
    assert out2.read_bytes() == out.read_bytes()


def test_expand_exit_codes(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc, _, _ = run(capsys, "expand", "--builtin", "poisson", "--param", "r=2", "--q", "2", "--out", str(out))
    assert rc == 2
    rc2, _, _ = run(
        capsys, "expand", "--builtin", "exponential", "--q", "2",
        "--mmax", "4", "--nmax", "4", "--radial-order", "3", "--out", str(out),
    )
    assert rc2 == 3
    rc3, _, _ = run(capsys, "expand", "--builtin", "exponential", "--out", str(out))
    assert rc3 == 2  # --builtin without --q


@pytest.mark.parametrize("family, params", [("exponential", []), ("aktas", ["--param", "t=0.3"])])
def test_expand_at_degree_64_q4_passes_the_nonnegativity_gate(tmp_path, capsys, family, params):
    out = tmp_path / "t.json"
    rc, stdout, stderr = run(
        capsys, "expand", "--builtin", family, *params, "--q", "4",
        "--mmax", "64", "--nmax", "64", "--out", str(out),
    )
    assert (rc, stderr) == (0, "")
    assert stdout.startswith("coefficient_sum ")


def test_expand_refuses_a_radial_order_past_the_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quadrature, "_gauss_jacobi", None)  # the refusal comes before any work
    out = tmp_path / "x.json"
    order = quadrature._RADIAL_BUDGET + 1
    rc, stdout, stderr = run(
        capsys, "expand", "--builtin", "poisson", "--param", "r=0.5", "--q", "2",
        "--mmax", "2", "--nmax", "2", "--radial-order", str(order), "--out", str(out),
    )
    assert (rc, stdout) == (3, "")
    assert stderr == f"error: radial order {order} exceeds the Jacobi matrix budget of {quadrature._RADIAL_BUDGET}\n"
    assert not out.exists()


def test_expand_refuses_a_rule_past_the_node_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quadrature, "_gauss_jacobi", None)  # the refusal comes before any work
    out = tmp_path / "x.json"
    rc, stdout, stderr = run(
        capsys, "expand", "--builtin", "exponential", "--q", "3", "--mmax", "2", "--nmax", "2",
        "--angular-order", "100000000000", "--out", str(out),
    )
    assert (rc, stdout) == (3, "")
    assert stderr == f"error: rule of 12 x 100000000000 nodes exceeds the node budget of {quadrature._NODE_BUDGET}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--radial-order", "--angular-order"])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_expand_refuses_a_quadrature_order_below_one(tmp_path, capsys, flag, order):
    out = tmp_path / "x.json"
    rc, stdout, stderr = run(
        capsys, "expand", "--builtin", "poisson", "--param", "r=0.5", "--q", "2",
        "--mmax", "2", "--nmax", "2", flag, order, "--out", str(out),
    )
    assert (rc, stdout, stderr) == (2, "", "error: quadrature orders must be at least 1\n")
    assert not out.exists()


def test_expand_refused_by_the_coefficient_sum_writes_no_table(tmp_path, capsys):
    # the default rule aliases this Horn kernel's slow modes into m > n keys
    out = tmp_path / "h.json"
    rc, stdout, stderr = run(
        capsys, "expand", "--builtin", "horn", "--q", "2", "--param", "t=0.5", "--param", "s=0.3",
        "--param", "b=5", "--mmax", "6", "--nmax", "6", "--out", str(out),
    )
    assert (rc, stdout) == (2, "")
    assert stderr.startswith("error: coefficient_sum requires real nonnegative entries")
    assert stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", "--in", "PD", "--threshold", "nan"],
    ["check", "--in", "PD", "--threshold", "inf"],
    ["check", "--in", "NEG", "--tol", "inf"],
    ["check", "--in", "NEG", "--tol", "nan"],
    ["counterexample", "--case", "i", "--q", "2", "--tol", "nan"],
    ["counterexample", "--case", "i", "--q", "2", "--tol", "-1"],
    ["expand", "--builtin", "exponential", "--q", "2", "--mmax", "2", "--nmax", "2", "--out", "OUT", "--tol", "nan"],
])
def test_a_nan_infinite_or_negative_tolerance_or_threshold_exits_2_with_one_line(argv, tmp_path, capsys):
    # on the table with a -5.0 entry, --tol inf used to report PD and --tol nan every entry as a violation
    pd, neg, out = tmp_path / "pd.json", tmp_path / "neg.json", tmp_path / "out"
    CoefficientTable(alpha=0.0, entries={(1, 0): 1.0}).save(pd)
    CoefficientTable(alpha=0.0, entries={(0, 0): -5.0, (1, 0): 1.0}).save(neg)
    rc, stdout, stderr = run(capsys, *({"PD": str(pd), "NEG": str(neg), "OUT": str(out)}.get(a, a) for a in argv))
    assert (rc, stdout) == (2, "")
    name = argv[-2][2:] if argv[-2] == "--threshold" else "tolerance"
    assert stderr == f"error: {name} must be finite and nonnegative, got {float(argv[-1])}\n"
    assert not out.exists()


@pytest.mark.parametrize("orders", [
    [],
    ["--radial-order", "30"],
    ["--angular-order", "40"],
    ["--radial-order", "30", "--angular-order", "40"],
])
def test_expand_orders_default_to_degree_plus_8_and_twice_degree_plus_8(orders, tmp_path, capsys):
    out = tmp_path / "t.json"
    rc, stdout, stderr = run(
        capsys, "expand", "--builtin", "exponential", "--q", "3",
        "--mmax", "6", "--nmax", "5", *orders, "--out", str(out),
    )
    assert (rc, stderr) == (0, "")
    given = dict(zip(orders[::2], map(int, orders[1::2])))
    rule = build_rule(1.0, given.get("--radial-order", 11 + 8), given.get("--angular-order", 2 * 11 + 8))
    spec = Exponential(q=3)
    table = expand(lambda z: eval_family(spec, z), 1.0, 6, 5, rule)
    assert out.read_text() == table.dumps()
    assert stdout.splitlines()[0] == f"coefficient_sum {coefficient_sum(table)!r}"


@pytest.mark.parametrize("op, key", [("dz", "(4, 5)"), ("dzbar", "(5, 4)"), ("dx", "(4, 5)")])
def test_walk_refused_for_an_overflowing_entry_writes_no_table(op, key, tmp_path, capsys):
    base = tmp_path / "big.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 1.0, (5, 5): 1.7e308}).save(base)
    out = tmp_path / "o.json"
    rc, stdout, stderr = run(capsys, "walk", "--op", op, "--in", str(base), "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert stderr == f"error: cannot write non-finite coefficient {key} = (inf+0j)\n"
    assert not out.exists()


def test_walk_round_trip_drops_first_column(tmp_path, capsys):
    base = tmp_path / "base.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 1.0, (0, 2): 0.5, (1, 1): 2.0, (3, 0): 0.25}).save(base)
    dz = tmp_path / "dz.json"
    rc, _, _ = run(capsys, "walk", "--op", "dz", "--in", str(base), "--out", str(dz))
    assert rc == 0
    assert CoefficientTable.load(dz).alpha == 1.0
    back = tmp_path / "back.json"
    rc2, stdout, _ = run(capsys, "walk", "--op", "iz", "--in", str(dz), "--out", str(back))
    assert rc2 == 0
    assert stdout.startswith("constant ")
    t = CoefficientTable.load(back)
    assert set(t.entries) == {(1, 1), (3, 0)}
    assert t.get(1, 1) == pytest.approx(2.0, abs=1e-15)
    assert t.get(3, 0) == pytest.approx(0.25, abs=1e-15)
    # constant restores the diagonal contribution at the origin
    constant = float(stdout.split()[1])
    assert constant == pytest.approx(2.0, abs=1e-14)  # -2 * R_{1,1}(0) at alpha 0 = -2 * (-1)


def test_walk_iz_of_constant(tmp_path, capsys):
    base = tmp_path / "one.json"
    CoefficientTable(alpha=1.0, entries={(0, 0): 1.0}).save(base)
    out = tmp_path / "z.json"
    rc, stdout, _ = run(capsys, "walk", "--op", "iz", "--in", str(base), "--out", str(out))
    assert rc == 0
    assert CoefficientTable.load(out).entries == {(1, 0): 1.0 + 0j}
    assert float(stdout.split()[1]) == 0.0


def test_walk_dx_is_sum(tmp_path, capsys):
    base = tmp_path / "b.json"
    CoefficientTable(alpha=1.0, entries={(1, 0): 1.0, (0, 1): 1.0, (2, 2): 0.5}).save(base)
    outs = {}
    for op in ("dz", "dzbar", "dx"):
        path = tmp_path / f"{op}.json"
        assert run(capsys, "walk", "--op", op, "--in", str(base), "--out", str(path))[0] == 0
        outs[op] = CoefficientTable.load(path)
    keys = set(outs["dz"].entries) | set(outs["dzbar"].entries)
    assert set(outs["dx"].entries) == keys
    for k in keys:
        assert outs["dx"].get(*k) == pytest.approx(outs["dz"].get(*k) + outs["dzbar"].get(*k), abs=1e-15)


def test_walk_malformed_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"alpha\": 0.0}")
    rc, _, err = run(capsys, "walk", "--op", "dz", "--in", str(bad), "--out", str(tmp_path / "o.json"))
    assert rc == 2 and "error" in err


def test_walk_iz_below_valid_level_is_domain_error(tmp_path, capsys):
    t = tmp_path / "t.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 1.0}).save(t)
    rc, _, err = run(capsys, "walk", "--op", "iz", "--in", str(t), "--out", str(tmp_path / "o.json"))
    assert rc == 2 and "exceed -1" in err


def test_gram_rejects_both_table_and_family(tmp_path, capsys):
    t = tmp_path / "t.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 1.0}).save(t)
    rc, _, err = run(capsys, "gram", "--in", str(t), "--builtin", "exponential", "--q", "2")
    assert rc == 2 and "mutually exclusive" in err


def test_check_counterexample_sets(tmp_path, capsys):
    _, base_set = counterexample_table("iii", 2, 10)
    setfile = tmp_path / "s.json"
    setfile.write_text(base_set.dumps())
    rc, stdout, _ = run(capsys, "check", "--set", f"@{setfile}")
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["spd"]["kind"] == "certified_exact"
    # inline empty set refutes immediately
    rc2, stdout2, _ = run(capsys, "check", "--set", '{"finite": [], "progressions": []}')
    assert rc2 == 0
    doc2 = json.loads(stdout2)
    assert doc2["spd"] == {"kind": "refuted_at", "N": 1, "j": 0}


def test_check_table_not_pd_is_data_not_error(tmp_path, capsys):
    bad = tmp_path / "neg.json"
    CoefficientTable(alpha=0.0, entries={(1, 0): -0.5}).save(bad)
    rc, stdout, _ = run(capsys, "check", "--in", str(bad))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["pd"]["ok"] is False
    assert doc["pd"]["violations"][0]["m"] == 1
    assert doc["spd"] is None


def test_check_requires_integer_q(tmp_path, capsys):
    t = tmp_path / "frac.json"
    CoefficientTable(alpha=0.5, entries={(0, 0): 1.0}).save(t)
    rc, _, err = run(capsys, "check", "--in", str(t))
    assert rc == 2 and "pass --q" in err


def test_gram_pd_table_passes(tmp_path, capsys):
    path = tmp_path / "t.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.25}).save(path)
    rc, stdout, _ = run(capsys, "gram", "--in", str(path), "--points", "20", "--seed", "3")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[-1] == "PASS"
    assert float(lines[0].split()[1]) >= -1e-8


def test_gram_lauricella_near_its_t_radius_passes(capsys):
    # t = 0.83 puts the factor (1 - 2tz/(1+s+D))^-b near its pole on the gram's diagonal (z = 1)
    lauricella = ["--builtin", "lauricella", "--q", "2", "--param", "t=0.83", "--param", "s=0.05"]
    rc, stdout, _ = run(capsys, "gram", *lauricella, "--param", "b=1", "--points", "16")
    assert rc == 0 and stdout.strip().splitlines()[-1] == "PASS"


@pytest.mark.parametrize("params", [["t=0.5", "s=0.3", "b=2"], ["t=0.6", "s=0.39", "b=1"], ["t=0.05", "s=0.9", "b=3"]])
@pytest.mark.parametrize("q", ["2", "4"])
def test_gram_horn_beyond_the_old_series_region_passes(params, q, capsys):
    # each spec raised ConvergenceError (or was refused) while Horn was summed as a series
    argv = ["gram", "--builtin", "horn", "--q", q, "--points", "16"]
    rc, stdout, _ = run(capsys, *argv, *(a for p in params for a in ("--param", p)))
    assert rc == 0 and stdout.strip().splitlines()[-1] == "PASS"


def _limited_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh process whose address space is capped at 4 GB, so a
    missing budget ends in a MemoryError instead of filling the machine."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    return subprocess.run([sys.executable, "-m", "discwalk", *argv],
                          capture_output=True, text=True, timeout=120, preexec_fn=cap)


def test_gram_of_a_non_hermitian_table_exits_2_with_one_line(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"alpha": 1.0, "entries": [{"m": 0, "n": 0, "re": 1.0, "im": 0.5}]}))
    proc = _limited_cli("gram", "--in", str(path), "--points", "5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: Gram matrix deviates from Hermitian")


@pytest.mark.parametrize("argv, code, says", [
    (["gram", "--builtin", "exponential", "--q", "2", "--points", str(10**12)], 3, "sample budget"),
    (["gram", "--builtin", "exponential", "--q", "2", "--points", "30000"], 3, "Gram matrix budget"),
    (["gram", "--builtin", "exponential", "--q", str(10**15), "--points", "2"], 3, "sample budget"),
    (["plot-data", "--builtin", "exponential", "--q", "2", "--grid", str(10**12), "--out", "OUT"], 3,
     "budget of 1048576 grid points"),
    (["gram", "--builtin", "poisson", "--q", "1000", "--param", "r=0.5", "--points", "2"], 2, "q <= 171"),
    (["expand", "--builtin", "exponential", "--q", str(10**400), "--mmax", "2", "--nmax", "2", "--out", "OUT"],
     2, "float range"),
    (["counterexample", "--case", "iii", "--q", "2", "--truncation", str(10**12)], 3,
     "counterexample budget of 65536"),
    (["gram", "--builtin", "horn", "--q", "2", "--param", "t=1.5", "--param", "s=0.1", "--param", "b=1",
      "--points", "2"], 2, "0 < t < 1 - s"),
    (["gram", "--builtin", "horn", "--q", "2", "--param", "t=0.1", "--param", "s=0.1", "--param", "b=5000",
      "--points", "2"], 3, "over the budget of 1024"),
])
def test_oversized_inputs_are_refused_with_one_line(argv, code, says, tmp_path):
    proc = _limited_cli(*(str(tmp_path / "out") if a == "OUT" else a for a in argv))
    assert (proc.returncode, proc.stdout) == (code, "")
    assert len(proc.stderr.splitlines()) == 1 and says in proc.stderr, proc.stderr
    assert not any(tmp_path.iterdir())


def test_gram_constant_kernel_rank_one(tmp_path, capsys):
    path = tmp_path / "c.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 1.0}).save(path)
    rc, stdout, _ = run(capsys, "gram", "--in", str(path), "--points", "15", "--seed", "1")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert abs(float(lines[0].split()[1])) < 1e-9
    assert float(lines[1].split()[1]) == pytest.approx(15.0, abs=1e-9)


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
@pytest.mark.parametrize("q", [2, 3])
def test_counterexample_matches_and_exits_zero(case, q, capsys):
    rc, stdout, _ = run(capsys, "counterexample", "--case", case, "--q", str(q))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["match"] is True
    assert all(doc["pd"].values())


def test_counterexample_mismatch_exit_code(capsys, monkeypatch):
    from discwalk import positivity

    flipped = dict(positivity.COUNTEREXAMPLE_EXPECTED["i"])
    flipped["dz"] = False
    monkeypatch.setitem(positivity.COUNTEREXAMPLE_EXPECTED, "i", flipped)
    rc, stdout, _ = run(capsys, "counterexample", "--case", "i")
    assert rc == 4
    assert json.loads(stdout)["match"] is False


def test_plot_data_grid_two(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    const = tmp_path / "c.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 0.75}).save(const)
    rc, _, _ = run(capsys, "plot-data", "--in", str(const), "--grid", "2", "--out", str(path))
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 5  # 4 grid points, all outside the disk
    assert all(line.endswith(",,") for line in lines[1:])


def test_plot_data_constant_and_exponential(tmp_path, capsys):
    const = tmp_path / "c.json"
    CoefficientTable(alpha=0.0, entries={(0, 0): 0.75}).save(const)
    path = tmp_path / "c.csv"
    assert run(capsys, "plot-data", "--in", str(const), "--grid", "9", "--out", str(path))[0] == 0
    for line in path.read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        if cells[2]:
            assert float(cells[2]) == 0.75 and float(cells[3]) == 0.0
    epath = tmp_path / "e.csv"
    assert run(capsys, "plot-data", "--builtin", "exponential", "--q", "2", "--grid", "9", "--out", str(epath))[0] == 0
    for line in epath.read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        if cells[2]:
            assert float(cells[2]) == pytest.approx(math.exp(2.0 * float(cells[0])), rel=1e-10)


def test_outputs_are_byte_identical_across_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["expand", "--builtin", "aktas", "--param", "t=0.3", "--q", "2",
            "--mmax", "4", "--nmax", "4"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    out1 = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(b)]) == 0
    out2 = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert out1 == out2
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    pargs = ["plot-data", "--in", str(a), "--grid", "7"]
    assert cli.main(pargs + ["--out", str(ca)]) == 0
    assert cli.main(pargs + ["--out", str(cb)]) == 0
    assert ca.read_bytes() == cb.read_bytes()


def test_written_tables_round_trip_through_reader(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(capsys, "expand", "--builtin", "exponential", "--q", "3",
               "--mmax", "3", "--nmax", "3", "--out", str(out))[0] == 0
    t = CoefficientTable.load(out)
    t2 = CoefficientTable.loads(t.dumps())
    assert t2.entries == t.entries and t2.alpha == t.alpha


def test_expand_at_q_1e16_exits_2_with_one_line(tmp_path):
    # the radial nodes coincide in floating point; in a fresh process, so
    # that any numpy warning would reach stderr
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "discwalk", "expand", "--builtin", "exponential", "--q", str(10**16),
         "--mmax", "2", "--nmax", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: no radial rule of order 12 at alpha = 9999999999999998.0: "
        "its nodes or weights degenerate in floating point\n"
    )
    assert not out.exists()


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, "-m", "discwalk", "expand", "--builtin", "exponential",
         "--q", "2", "--mmax", "2", "--nmax", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "coefficient_sum" in proc.stdout


def test_walk_and_check_set_load_no_scipy(tmp_path):
    # no subcommand imports scipy
    table, walked = tmp_path / "t.json", tmp_path / "w.json"
    CoefficientTable(alpha=1.0, entries={(1, 0): 1.0, (0, 1): 1.0, (2, 2): 0.5}).save(table)
    code = (
        "import sys\nfrom discwalk import cli\n"
        f"assert cli.main(['walk', '--op', 'dz', '--in', {str(table)!r}, '--out', {str(walked)!r}]) == 0\n"
        "assert cli.main(['check', '--set', '{\"finite\": [-1, 4]}']) == 0\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_expand_gram_and_plot_data_run_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes every import of scipy fail
    table, csv = tmp_path / "t.json", tmp_path / "p.csv"
    code = (
        "import sys\nsys.modules['scipy'] = None\nfrom discwalk import cli\n"
        "assert cli.main(['expand', '--builtin', 'exponential', '--q', '3', '--mmax', '16', '--nmax', '16',"
        f" '--out', {str(table)!r}]) == 0\n"
        "assert cli.main(['gram', '--builtin', 'aktas', '--param', 't=0.3', '--q', '3', '--points', '16']) == 0\n"
        f"assert cli.main(['plot-data', '--in', {str(table)!r}, '--grid', '5', '--out', {str(csv)!r}]) == 0\n"
        "print(sorted(n for n, m in sys.modules.items() if n.partition('.')[0] == 'scipy' and m is not None))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _fresh_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_discwalk_loads_no_submodule_and_no_numpy():
    out = _fresh_python(
        "import sys\nimport discwalk\n"
        "print(sorted(n for n in sys.modules if n.startswith('discwalk.')"
        " or n.partition('.')[0] in ('numpy', 'scipy')))\n"
    )
    assert out.splitlines()[-1] == "[]"


def test_star_import_binds_exactly_all():
    out = _fresh_python(
        "import discwalk\nns = {}\nexec('from discwalk import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(discwalk.__all__), len(discwalk.__all__))\n"
    )
    assert out.splitlines()[-1] == "True 56"


def test_each_export_is_its_submodule_object():
    # resolved lazily on first use, then bound in the package like a plain global
    out = _fresh_python(
        "import importlib\nimport discwalk\n"
        "for module, names in discwalk._EXPORTS.items():\n"
        "    sub = importlib.import_module('discwalk.' + module)\n"
        "    for n in names.split():\n"
        "        assert n not in vars(discwalk), n\n"
        "        assert getattr(discwalk, n) is getattr(sub, n), n\n"
        "        assert vars(discwalk)[n] is getattr(sub, n), n\n"
        "        assert n in dir(discwalk), n\n"
        "print('ok')\n"
    )
    assert out.splitlines()[-1] == "ok"


def test_unknown_package_attribute_names_itself():
    import discwalk

    with pytest.raises(AttributeError, match="'nope'"):
        discwalk.nope  # noqa: B018


def test_from_discwalk_import_cli_in_a_fresh_process():
    out = _fresh_python("from discwalk import cli\nprint(cli.__name__, callable(cli.main))\n")
    assert out.splitlines()[-1] == "discwalk.cli True"


@pytest.mark.parametrize("progressions", [
    [(0, 10**13 + 37)],
    [(0, 2), (1, 2), (0, 10**13 + 37)],
])
def test_check_set_past_the_residue_budget_exits_3_with_one_line(progressions, capsys):
    doc = json.dumps({"progressions": [{"offset": o, "step": s} for o, s in progressions]})
    rc, out, err = run(capsys, "check", "--set", doc)
    assert rc == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(10**13 + 37) in err


def test_closed_stdout_exits_one_without_a_message():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "discwalk", "counterexample", "--case", "iii", "--q", "2"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_usage_error_exit_code():
    assert cli.main(["walk", "--op", "bogus", "--in", "x", "--out", "y"]) == 2
    assert cli.main([]) == 2


_EXPONENTIAL = ["--builtin", "exponential", "--q", "2"]


@pytest.mark.parametrize("argv", [
    ["check", "--in", "DIR"],
    ["check", "--set", "@DIR"],
    ["plot-data", *_EXPONENTIAL, "--grid", "5", "--out", "DIR"],
    ["check", "--in", "BINARY"],
    ["walk", "--op", "dz", "--in", "BINARY", "--out", "OUT"],
])
def test_a_directory_or_non_utf8_file_exits_2_with_one_line(argv, tmp_path, capsys):
    folder, binary, out = tmp_path / "d", tmp_path / "b.json", tmp_path / "out"
    folder.mkdir()
    binary.write_bytes(b'{"alpha": \xff}')
    paths = {"DIR": str(folder), "@DIR": f"@{folder}", "BINARY": str(binary), "OUT": str(out)}
    rc, stdout, stderr = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert (rc, stdout) == (2, "")
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr
    assert not out.exists() and not any(folder.iterdir())


@pytest.mark.parametrize("argv", [
    ["walk", "--op", "dz", "--in", "TABLE", "--out", "OUT", "--seed", "1"],
    ["walk", "--op", "dz", "--in", "TABLE", "--out", "OUT", "--q", "3"],
    ["walk", "--op", "dz", "--in", "TABLE", "--out", "OUT", "--tol", "1e-9"],
    ["expand", *_EXPONENTIAL, "--mmax", "2", "--nmax", "2", "--out", "OUT", "--seed", "1"],
    ["check", "--set", '{"finite": [0]}', "--seed", "1"],
    ["counterexample", "--case", "i", "--q", "2", "--seed", "1"],
    ["gram", *_EXPONENTIAL, "--points", "4", "--tol", "1e-9"],
    ["plot-data", *_EXPONENTIAL, "--grid", "5", "--out", "OUT", "--tol", "1e-9"],
    ["plot-data", *_EXPONENTIAL, "--grid", "5", "--out", "OUT", "--seed", "1"],
])
def test_an_option_the_handler_does_not_read_is_refused(argv, tmp_path, capsys):
    table, out = tmp_path / "t.json", tmp_path / "out"
    CoefficientTable(alpha=0.0, entries={(1, 0): 1.0}).save(table)
    rc, stdout, stderr = run(capsys, *({"TABLE": str(table), "OUT": str(out)}.get(arg, arg) for arg in argv))
    assert (rc, stdout) == (2, "")
    assert stderr.endswith(f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n"), stderr
    assert not out.exists()


@pytest.mark.parametrize("name", [
    "c_factor", "disc_poly_dz", "disc_poly_dzbar", "extract_coefficient", "integrate",
    "jacobi_R", "poisson_szego_profile", "wirtinger_dz", "wirtinger_dzbar",
])
def test_test_only_references_are_not_exported(name):
    import discwalk

    assert name not in discwalk.__all__
    assert name not in dir(discwalk)
    with pytest.raises(AttributeError):
        getattr(discwalk, name)


def test_verdict_commands_have_no_search_bound(capsys):
    # verdicts are exact, so neither command takes a bound on N
    assert cli.main(["check", "--set", '{"finite": [0]}', "--nmax", "5"]) == 2
    assert cli.main(["counterexample", "--case", "i", "--nmax", "5"]) == 2
    assert "--nmax" in capsys.readouterr().err


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("source", ["builtin", "table"])
def test_plot_data_rows_are_one_array_call_of_the_kernel(source, tmp_path, capsys, monkeypatch):
    axis = np.linspace(-1.0, 1.0, 21)
    z = np.array([complex(x, y) for x in axis for y in axis if x * x + y * y <= 1.0])
    if source == "builtin":
        argv = ["--builtin", "product", "--param", "m=2", "--param", "n=1", "--q", "3"]
        want = eval_family(make_family("product", 3, {"m": 2, "n": 1}), z)
        calls = _count_calls(monkeypatch, "eval_family")
    else:
        table = tmp_path / "t.json"
        family_coefficients(Exponential(q=3), 6, 6).save(table)
        argv = ["--in", str(table)]
        want = synthesize(CoefficientTable.load(table), z)
        calls = _count_calls(monkeypatch, "synthesize")
    out = tmp_path / "p.csv"
    assert run(capsys, "plot-data", *argv, "--grid", "21", "--out", str(out))[0] == 0
    assert calls == [z.size]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 21 * 21
    inside = [row for row in rows if row[2]]
    assert [complex(float(x), float(y)) for x, y, _, _ in inside] == z.tolist()
    assert [complex(float(re), float(im)) for _, _, re, im in inside] == want.tolist()


def test_gram_solves_once_and_prints_the_spectrum_ends(capsys, monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
    rc, stdout, _ = run(
        capsys, "gram", "--builtin", "aktas", "--param", "t=0.3", "--q", "3", "--points", "30", "--seed", "5"
    )
    assert rc == 0 and len(calls) == 1
    spec = make_family("aktas", 3, {"t": 0.3})
    evals = eigvalsh(gram_matrix(lambda z: eval_family(spec, z), sample_sphere(3, 30, 5)))
    assert stdout == f"min_eigenvalue {float(evals[0])!r}\nmax_eigenvalue {float(evals[-1])!r}\nPASS\n"


@pytest.mark.parametrize("family, params", [
    ("product", ["--param", "m=2", "--param", "n=1"]),
    ("poisson", ["--param", "r=0.5"]),
    ("exponential", []),
    ("aktas", ["--param", "t=0.3"]),
])
def test_expand_output_does_not_depend_on_the_rule_memo(tmp_path, capsys, family, params):
    def expand_bytes(q, name):
        out = tmp_path / name
        rc, stdout, stderr = run(capsys, "expand", "--builtin", family, *params, "--q", str(q),
                                 "--mmax", "16", "--nmax", "16", "--out", str(out))
        assert (rc, stderr) == (0, "")
        return stdout, out.read_bytes()

    for q in (2, 3, 4):
        quadrature._gauss_jacobi.cache_clear()
        cold = expand_bytes(q, f"cold{q}.json")
        assert quadrature._gauss_jacobi.cache_info().misses == 1
        warm = expand_bytes(q, f"warm{q}.json")
        assert quadrature._gauss_jacobi.cache_info().hits == 1
        assert warm == cold
