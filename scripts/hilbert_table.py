#!/usr/bin/env python3
"""Print the graded dimensions of the quotient for n = 1..7, three ways.

The formula route uses ballot numbers, the enumeration route counts Dyck
vectors per degree, and the oracle route recomputes every dimension by exact
fraction-free elimination for n up to the oracle cap (6, or QSYMQ_MAX_N when
that is larger; the other n print "(capped)").
"""

import time

from qsymq.combinat import ORACLE_CAP, catalan, desk_cap
from qsymq.oracle import hilbert_series


def main():
    print(f"{'n':>2}  {'formula':<28}{'enum':<28}{'oracle':<28}{'total':>7}")
    for n in range(1, 8):
        row = {"formula": hilbert_series(n, "formula"),
               "enum": hilbert_series(n, "enum")}
        if n <= desk_cap(ORACLE_CAP):
            start = time.perf_counter()
            row["oracle"] = hilbert_series(n, "oracle")
            elapsed = time.perf_counter() - start
            oracle_text = f"{row['oracle']} [{elapsed:.2f}s]"
            assert row["oracle"] == row["formula"]
        else:
            oracle_text = "(capped)"
        assert row["enum"] == row["formula"]
        assert row["formula"].total() == catalan(n)
        print(f"{n:>2}  {str(row['formula']):<28}{str(row['enum']):<28}"
              f"{oracle_text:<28}{catalan(n):>7}")


if __name__ == "__main__":
    main()
