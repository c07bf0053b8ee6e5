"""The reduce-warm set-up: import qsymq, then build every G element of
degree <= 7 for GBasis(7).

Run as a script in a fresh process, it prints the seconds the set-up took;
run.py times several such processes plus its own set-up and reports the
median as ``setup_s``.  Needs ``src`` on PYTHONPATH.
"""

import sys

from tracing import clock

N = 7


def timed_setup(tracer=None):
    """(seconds, basis).  With a tracer, spans cover the G construction."""
    start = clock()
    from qsymq.quotient import GBasis, enumerate_transdiagonal

    if tracer is not None:
        tracer.install()
    basis = GBasis(N)
    for eps in enumerate_transdiagonal(N, N):
        basis.g(eps)
    return clock() - start, basis


if __name__ == "__main__":
    seconds, _ = timed_setup()
    print(repr(seconds))
    sys.exit(0)
