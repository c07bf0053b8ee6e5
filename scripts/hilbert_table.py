#!/usr/bin/env python3
"""Print the graded dimensions of the quotient for n = 1..7, three ways.

The formula route uses ballot numbers, the enumeration route counts Dyck
vectors per degree, and the oracle route recomputes every dimension by exact
fraction-free elimination, timed per n.
"""

import time

from qsymq.combinat import catalan
from qsymq.oracle import hilbert_series


def main():
    print(f"{'n':>2}  {'formula':<28}{'enum':<28}{'oracle':<28}{'total':>7}")
    for n in range(1, 8):
        formula = hilbert_series(n, "formula")
        enum = hilbert_series(n, "enum")
        start = time.perf_counter()
        oracle = hilbert_series(n, "oracle")
        oracle_text = f"{oracle} [{time.perf_counter() - start:.2f}s]"
        assert enum == formula and oracle == formula
        assert formula.total() == catalan(n)
        print(f"{n:>2}  {str(formula):<28}{str(enum):<28}"
              f"{oracle_text:<28}{catalan(n):>7}")


if __name__ == "__main__":
    main()
