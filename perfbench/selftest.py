"""Self-test of the benchmark itself; not part of the tier-1 suite.

    python3 perfbench/selftest.py

1. Wrong answers: one real request of each kind passes its output check, and
   the same output with one deliberate error is marked failed.
2. Refactor tolerance: a wrapped function that no longer exists is reported
   missing by the span recorder instead of crashing it.
3. Smoke: every workload for one second with ``--trace 0`` and ``--trace 1``;
   every metric named in BENCHMARK.json is emitted with its unit.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import worker  # sets up sys.path for src/ and pins the thread pools
from worker import Outcome, Runner, discwalk, spans
from workloads import (
    WORKLOADS,
    check_set_request,
    check_table_request,
    coefficients_request,
    counterexample_request,
    expand_request,
    gram_request,
    plot_request,
    plot_table_request,
    walk_request,
)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        problems.append(what)


def rewrite(path: str, edit) -> str:
    """Copy of an output file with ``edit`` applied to its text."""
    new = f"{path}.wrong"
    Path(new).write_text(edit(Path(path).read_text()))
    return new


def edit_first_entry(text: str) -> str:
    doc = json.loads(text)
    table = doc.get("table", doc)
    table["entries"][1]["re"] *= 1.0 + 1e-4
    return json.dumps(doc)


def edit_stdout_json(outcome: Outcome, edit) -> Outcome:
    doc = json.loads(outcome.stdout)
    edit(doc)
    return Outcome(outcome.code, json.dumps(doc), outcome.stderr)


def edit_plot_row(text: str) -> str:
    lines = text.splitlines()
    i = len(lines) // 2
    x, y, re, im = lines[i].split(",")
    lines[i] = f"{x},{y},{float(re) + 1e-6!r},{im}"
    return "\n".join(lines) + "\n"


def wrong_coefficients(outcome: Outcome) -> Outcome:
    table, verdict = copy.deepcopy(outcome.value)
    table.entries[(2, 1)] *= 1.001
    return Outcome(value=(table, verdict))


def wrong_answers(workdir: Path) -> None:
    wd = WORKLOADS["walk_decide"](discwalk, 0, workdir)
    ev = WORKLOADS["evaluate"](discwalk, 0, workdir)
    tables = {(t.family, t.q, t.D): t for t in wd.tables.values()}
    aktas = tables[("aktas", 3, 16)]
    cases = [
        (walk_request(aktas, "dz"), "file", edit_first_entry),
        (walk_request(aktas, "izbar"), "stdout",
         lambda o: Outcome(o.code, o.stdout.replace("constant ", "constant 1"), o.stderr)),
        (check_table_request(aktas), "stdout",
         lambda o: edit_stdout_json(o, lambda d: d.update(spd={"kind": "refuted_at", "N": 3, "j": 1}))),
        (check_set_request([0, 3], [(1, 6)]), "stdout",
         lambda o: edit_stdout_json(o, lambda d: d.update(spd={"kind": "certified_exact", "reason": "x"}))),
        (check_set_request([], [(0, 2), (1, 4)]), "stdout",
         lambda o: edit_stdout_json(o, lambda d: d.update(spd={"kind": "certified_up_to", "n_max": 64}))),
        (counterexample_request("iii", 2, 40), "stdout",
         lambda o: edit_stdout_json(o, lambda d: d.update(match=False))),
        (coefficients_request("lauricella", 3, 16), "value", wrong_coefficients),
        (expand_request("exponential", 3, 16), "file", edit_first_entry),
        (expand_request("poisson", 2, 16), "file", edit_first_entry),
        (plot_request("aktas", 3, {"t": 0.3}, 21), "file", edit_plot_row),
        (plot_table_request(ev.table, 11), "file", edit_plot_row),
        (gram_request("exponential", 3, {}, 20, 1), "stdout",
         lambda o: Outcome(o.code, o.stdout.replace("PASS", "FAIL"), o.stderr)),
    ]
    tables_all = dict(wd.tables, **ev.tables)
    for req, where, edit in cases:
        runner = Runner(wd, workdir, "s")
        runner.ctx.tables = tables_all
        _, outcome, path = runner.execute(req)
        label = " ".join(req.argv or [req.kind, req.info["family"]])
        runner.judge(req, outcome, path)
        expect(runner.failed == 0, f"correct output passes: {label} {runner.reasons}")
        if where == "file":
            runner.judge(req, outcome, rewrite(path, edit))
        else:
            runner.judge(req, edit(outcome), path)
        expect(runner.failed == 1 and runner.incorrect == 1, f"wrong output is marked failed: {label}")
    runner = Runner(wd, workdir, "s")
    runner.judge(expand_request("exponential", 4, 64), Outcome(2, "", "error: refused"), None)
    expect(runner.failed == 1 and runner.incorrect == 0, "a refusal (exit 2) is failed but not wrong")
    runner.judge(counterexample_request("i", 2, 40), Outcome(4, "", ""), None)
    expect(runner.failed == 2 and runner.incorrect == 1, "a verdict mismatch (exit 4) is failed and wrong")


def missing_function() -> None:
    import discwalk.walks as walks

    saved = walks.descente_zbar
    del walks.descente_zbar
    rec = spans.Recorder()
    try:
        rec.install()
        rec.uninstall()
    finally:
        walks.descente_zbar = saved
    metrics = spans.layer_metrics(rec, {}, 1.0)
    expect("walks.descente_zbar" in rec.missing, "a removed function is reported missing")
    expect("walks.descente.calls" in metrics, "metrics fed by the remaining functions are still reported")


def smoke() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            label = f"{w['name']} --trace {traced}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            expect(got == want[traced], f"{label} emits every metric with its unit "
                   f"(missing {sorted(set(want[traced]) - set(got))}, extra {sorted(set(got) - set(want[traced]))}, "
                   f"unit mismatches {sorted(k for k in got if k in want[traced] and got[k] != want[traced][k])})")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{label} correct, {result['failed']}/{result['attempted']} failed")


def main() -> int:
    workdir = worker.WORK_ROOT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wrong_answers(workdir)
        missing_function()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    smoke()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
