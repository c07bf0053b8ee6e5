"""Tests of the benchmark's own arithmetic: percentiles, self time, the
oracle row ratio, scaling to the reference speed, reference formulas and
output digests.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from stats import has_tail, percentile, samples_beyond  # noqa: E402
from tracing import Tracer, layer_totals, self_times, union_length  # noqa: E402
from workloads import Request, rounds  # noqa: E402


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([7], 90) == 7

    def test_p90_of_few_samples_is_the_top_sample(self):
        assert percentile([3, 1, 2, 9, 4, 5, 6, 8, 7], 90) == 9
        assert samples_beyond(9, 90) == 0

    @pytest.mark.parametrize("count, beyond, tail", [
        (99, 9, False), (100, 10, True), (109, 10, True), (110, 11, True), (36, 3, False),
    ])
    def test_tail_needs_ten_samples_beyond(self, count, beyond, tail):
        assert samples_beyond(count, 90) == beyond
        assert has_tail(count, 90) is tail


def span(name, start, end, parent=-1, extra=None):
    return [name, start, end, parent, 0, extra]


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert union_length([(1, 4), (3, 6), (8, 10)]) == 7
        assert union_length([(0, 5), (1, 2)]) == 5
        assert union_length([]) == 0

    def test_span_minus_union_of_children(self):
        spans = [
            span("a", 0.0, 10.0),
            span("b", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),    # overlaps its sibling
            span("c", 8.0, 12.0, 0),   # runs past its parent: clipped
            span("d", 4.0, 5.0, 2),    # grandchild of a: only b's business
        ]
        assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 4.0, 1.0])

    def test_totals_count_nested_same_name_once(self):
        spans = [
            span("poly.add", 0.0, 3.0),          # __sub__ ...
            span("poly.add", 1.0, 2.0, 0),       # ... calling __add__
            span("poly.add", 5.0, 6.0),
            span("quotient.normal_form", 7.0, 9.0, extra={"steps": 4}),
        ]
        totals = layer_totals(spans)
        assert totals["poly.add"]["calls"] == 2
        assert totals["poly.add"]["self_s"] == pytest.approx(4.0)
        assert totals["quotient.normal_form"]["steps"] == 4

    def test_nested_build_adds_time_but_not_calls_or_counts(self):
        spans = [
            span("quotient.g", 0.0, 4.0, extra={"g_terms": 10}),
            span("quotient.g", 1.0, 2.0, 0, extra={"g_terms": 3}),  # built inside
        ]
        totals = layer_totals(spans)
        assert totals["quotient.g"]["calls"] == 1
        assert totals["quotient.g"]["g_terms"] == 10
        assert totals["quotient.g"]["self_s"] == pytest.approx(4.0)

    def test_memo_hits_get_no_g_span(self):
        from qsymq.quotient import GBasis

        basis, tracer = GBasis(3), Tracer()
        tracer.install()
        try:
            basis.g((0, 2, 1))
            built = len([s for s in tracer.spans if s[0] == "quotient.g"])
            basis.g((0, 2, 1))
            basis.normal_form(basis.g((0, 2, 1)))
        finally:
            tracer.uninstall()
        assert built >= 1
        assert len([s for s in tracer.spans if s[0] == "quotient.g"]) == built

    def test_absorb_keeps_parent_links(self):
        tracer = Tracer()
        tracer.absorb([span("a", 0, 2)], {"columns": 3})
        tracer.absorb([span("a", 5, 9), span("b", 6, 7, 0)], {"columns": 4})
        assert [s[3] for s in tracer.spans] == [-1, -1, 1]
        assert tracer.counts["columns"] == 7


class _NoRunner:
    pass


def test_useful_row_ratio_is_rank_over_generator_rows():
    tracer = Tracer()
    tracer.absorb([span("oracle.ideal_degree_rank", 0, 1, extra={"rank": 3}),
                   span("oracle.ideal_degree_rank", 1, 2, extra={"rank": 5})],
                  {"generator_rows": 20, "columns": 12})
    metrics = run.per_layer(tracer, _NoRunner(), run.Ledger(None), run.Ledger(None))
    assert metrics["oracle.rank"][0] == 8
    assert metrics["oracle.generator_rows"][0] == 20
    assert metrics["oracle.useful_row_ratio"][0] == pytest.approx(8 / 20)
    assert metrics["oracle.columns"][0] == 12


class _EchoRunner:
    """Every answer is right, and its canonical text is the answer itself."""

    def check(self, request, answer):
        return None

    def canonical(self, request, answer):
        return answer


class TestLedger:
    def settle(self, ledger, *runs):
        request = Request("k", 1, terms={(1,): 1})
        ledger.pending += [(position, request, run.Outcome(latency, answer, wall=2 * latency))
                           for position, latency, answer in runs]
        ledger.settle(_EchoRunner())

    def test_keeps_the_median_run_and_drops_the_answers(self):
        ledger = run.Ledger(None)
        self.settle(ledger, (0, 0.3, "a"), (1, 0.5, "b"))
        self.settle(ledger, (0, 0.2, "a"), (1, 0.9, "b"))
        self.settle(ledger, (0, 0.1, "a"), (1, 0.6, "b"))
        assert ledger.latencies() == {0: 0.2, 1: 0.6}
        assert ledger.latencies(ledger.wall) == {0: 0.4, 1: 1.2}
        assert ledger.runs == 6 and not ledger.failures and not ledger.pending
        assert ledger.answered() == 2
        assert ledger.busy() == pytest.approx(0.8)
        assert run.rate(ledger) == pytest.approx(2 / 0.8)

    def test_a_repeat_that_answers_differently_fails(self):
        ledger = run.Ledger(None)
        self.settle(ledger, (0, 0.1, "a"), (1, 0.1, "b"))
        self.settle(ledger, (0, 0.1, "a"), (1, 0.1, "c"))
        assert ledger.failed == {1}
        assert ledger.answered() == 1

    def test_recorded_digests_are_compared_by_position(self):
        ledger = run.Ledger([checks.digest("a"), checks.digest("x")])
        self.settle(ledger, (0, 0.1, "a"), (1, 0.1, "b"), (2, 0.1, "c"))
        assert ledger.compared == 2
        assert ledger.failed == {1}


class TestSpeed:
    def meter(self, *times):
        meter = speed.Speedometer(speed.rows_probe)
        meter.times = list(times)
        return meter

    def test_short_request_takes_the_median_of_the_latest_window(self):
        meter = self.meter(9.0, 1.0, 2.0, 2.0, 4.0, 3.0)  # 9.0 falls out of the window
        reference = speed.REFERENCE_S[speed.rows_probe]
        assert meter.factor(since=5) == pytest.approx(reference / 2.0)
        assert meter.mean_probe() == pytest.approx(21.0 / 6)

    def test_long_request_takes_the_median_of_its_own_probes(self):
        meter = self.meter(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        assert meter.factor(since=5) == pytest.approx(speed.REFERENCE_S[speed.rows_probe] / 5.5)

    def test_a_machine_twice_as_slow_scales_to_the_same_time(self):
        fast, slow = self.meter(0.004), self.meter(0.008)
        assert 0.1 * fast.factor(0) == pytest.approx(0.2 * slow.factor(0))

    def test_start_fills_the_window(self):
        meter = speed.Speedometer(lambda: 0.5, window=3)
        meter.start()
        assert meter.times == [0.5] * 3

    def test_probe_leaves_the_collector_as_it_was(self):
        import gc

        assert gc.isenabled()
        assert speed.fraction_probe() > 0 and speed.rows_probe() > 0
        assert speed.spawn_probe() > 0
        assert gc.isenabled()

    def test_setups_keep_scaled_and_measured_times(self):
        setups = run.Setups()
        setups.add(2.0, 0.5)
        assert setups.scaled == [1.0] and setups.wall == [2.0]


class TestReference:
    def test_ballot_numbers_sum_to_catalan(self):
        assert [reference.ballot(4, k) for k in range(4)] == [1, 3, 5, 5]
        assert sum(reference.ballot(7, k) for k in range(7)) == 429

    def test_dyck_rule(self):
        assert reference.is_dyck_vector((0, 1, 1))
        assert not reference.is_dyck_vector((0, 2, 0))
        assert not reference.is_dyck_vector((1, 0, 0))

    def test_fundamental_terms(self):
        # F_(2,1) in 3 variables: X^nu for nu with nonzero parts (2,1) or (1,1,1)
        assert set(reference.fundamental_terms((2, 1), 3)) == {
            (2, 1, 0), (2, 0, 1), (0, 2, 1), (1, 1, 1)}

    def test_certificate_check_rejects_a_wrong_identity(self):
        g = {(1, 0): [((1, 0), 1), ((0, 1), 1)]}  # x1 + x2, as a stand-in G
        terms = {(1, 0): 2, (0, 1): 2}
        assert checks.certificate_problem(terms, [], [(2, (1, 0))], g.get) is None
        assert checks.certificate_problem(terms, [], [(3, (1, 0))], g.get) is not None
        assert "transdiagonal" in checks.certificate_problem(terms, [((2, 0), 1)], [], g.get)


class TestDigests:
    def first_requests(self, seed, kinds=("sparse-3", "sparse-4", "member", "coordinates")):
        batch = next(rounds("reduce-warm", seed))
        return [r for r in batch if r.kind in kinds]

    def digests(self, seed):
        from qsymq.quotient import GBasis

        runner = run.WarmRunner("reduce-warm")
        runner.basis = GBasis(7)
        out = []
        for index, request in enumerate(self.first_requests(seed)):
            outcome = runner.execute(index, request, None)
            assert outcome.error is None
            assert runner.check(request, outcome.answer) is None
            out.append(checks.digest(runner.canonical(request, outcome.answer)))
        return out

    def test_same_seed_same_inputs(self):
        assert self.first_requests(3) == self.first_requests(3)
        assert self.first_requests(3) != self.first_requests(4)

    def test_digests_stable_across_runs_of_one_seed(self):
        first = self.digests(5)
        assert len(first) >= 20
        assert self.digests(5) == first
        assert self.digests(6) != first

    def test_cli_digests_stable_across_runs_of_one_seed(self):
        runner = run.ProcessRunner("cli-cold")
        batch = next(rounds("cli-cold", 2))
        picked = [r for r in batch if r.kind in ("qsym-mul", "gbasis", "reduce-n4")][:4]

        def once():
            out = []
            for index, request in enumerate(picked):
                outcome = runner.execute(index, request, None)
                assert outcome.error is None
                assert runner.check(request, outcome.answer) is None
                out.append(checks.digest(runner.canonical(request, outcome.answer)))
            return out

        assert once() == once()
