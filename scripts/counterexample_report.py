#!/usr/bin/env python3
"""Verdict table for the axis-supported counterexample kernels.

For each case and sphere parameter q, prints whether the kernel and each of
its Wirtinger derivatives remain strictly positive definite, with the
refutation witness (N, j) where they do not.
"""

from discwalk import COUNTEREXAMPLE_EXPECTED, counterexample_sets, counterexample_table, is_pd, spd_verdict
from discwalk import descente_x, descente_z, descente_zbar


def describe(verdict) -> str:
    if verdict.kind == "refuted_at":
        return f"not SPD (misses {verdict.N}Z+{verdict.j})"
    return f"SPD ({verdict.reason})"


def main() -> None:
    for case in ("i", "ii", "iii"):
        sets = counterexample_sets(case)
        for q in (2, 3):
            table, _ = counterexample_table(case, q, truncation=40)
            walked = {
                "f": table,
                "dz": descente_z(table),
                "dzbar": descente_zbar(table),
                "dx": descente_x(table),
            }
            print(f"case {case}, q={q} (truncated table: {len(table)} entries)")
            for op in ("f", "dz", "dzbar", "dx"):
                v = spd_verdict(sets[op])
                pd_ok = is_pd(walked[op]).ok
                mark = "ok" if v.is_spd == COUNTEREXAMPLE_EXPECTED[case][op] else "UNEXPECTED"
                print(f"  {op:6s} pd={pd_ok}  {describe(v):34s} [{mark}]")
        print()


if __name__ == "__main__":
    main()
