"""Benchmark for qsymq: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload reduce-warm --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it measures the package in that
checkout's ``src`` directory and writes only under ``.perfbench_out/``.  It
prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
NOTES.md explains the workloads and every metric.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import setup_probe
from speed import REFERENCE_S, Speedometer, fraction_probe, rows_probe, spawn_probe
from stats import has_tail, percentile, samples_beyond
from tracing import Tracer, clock, layer_totals
from workloads import ROUNDS, rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HWM_FILE = OUT / "child-peak-kib.txt"
DIGESTS = HERE / "digests.json"

# A request slower than this fails, so a return to exponential behaviour
# shows in the failure count instead of stalling the run.
TIMEOUT_S = {"reduce-warm": 20.0, "cli-cold": 20.0, "oracle-cold": 40.0}
# No request starts later than this after the run began, so that a run ends
# within 180 s even when its last request times out.
RUN_LIMIT_S = 120.0
# QSYMQ_MAX_N given to child processes (None: removed from their environment).
CHILD_MAX_N = {"reduce-warm": None, "cli-cold": None, "oracle-cold": "7"}
# Every request runs this many times, once in each pass over the run's
# rounds, and its latency is the median of its runs, each scaled to the
# reference speed (speed.py).  A pass lasts several seconds, so one run that
# a hiccup of the machine slowed, or whose probes it slowed, does not move
# the result.
REPEATS = 3
# Rounds the first pass serves at least, whatever --seconds says.
MIN_ROUNDS = {"reduce-warm": 3, "cli-cold": 2, "oracle-cold": 1}
# Set-up samples are spread over the run: one before the first request, and
# another whenever this much wall time has passed since the last one.
SETUP_EVERY_S = {"reduce-warm": 12.0, "cli-cold": 4.0, "oracle-cold": 2.0}
NOOP = ["hilbert", "-n", "1"]
# The probe whose slow phases follow those of the workload's requests
# (speed.py).  Set-ups are short-lived processes, timed with spawn_probe.
PROBE = {"reduce-warm": fraction_probe, "cli-cold": spawn_probe, "oracle-cold": rows_probe}
# Workloads whose requests last seconds, in which the machine's speed
# changes: their probes are also taken every PROBE_EVERY_S while the child
# runs, on the CPU it shares with the client.  Each takes about 5 ms of
# that CPU, so it slows the child by about 2 %, alike in every run.
PROBE_DURING = {"oracle-cold"}
PROBE_EVERY_S = 0.25
# Rounds served both untraced and traced by --trace 1.  Fixed, so that
# per-layer counts repeat exactly for a seed; even, so that each pass goes
# first equally often.
TRACE_ROUNDS = 2


PIN_MAX_CPUS = 4


class RequestTimeout(Exception):
    pass


def on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Setups:
    """Set-up times of one run: scaled to the reference speed, and as
    measured."""

    scaled: list = field(default_factory=list)
    wall: list = field(default_factory=list)

    def add(self, seconds, factor):
        self.scaled.append(seconds * factor)
        self.wall.append(seconds)


@dataclass
class Outcome:
    latency: float  # scaled to the reference speed by serve_round
    answer: object = None
    error: str | None = None
    wall: float = 0.0  # the latency as measured


def own_peak_kib():
    """VmHWM of this process: its peak resident set since it exec'd."""
    with open("/proc/self/status", encoding="ascii") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


def pin_to_fastest_cpu(probe):
    """Move this process to the CPU on which ``probe`` runs fastest now; the
    children it starts inherit the choice, so every request, set-up and
    probe of the run shares one CPU.  On a shared machine each virtual CPU
    has slow phases of its own; the probes follow those of the chosen CPU.
    A machine with one CPU, or more than ``PIN_MAX_CPUS``, is left to its
    scheduler.  Returns the chosen CPU, or None."""
    cpus = sorted(os.sched_getaffinity(0))
    if not 2 <= len(cpus) <= PIN_MAX_CPUS:
        return None
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(probe(), probe())
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


def timed(speed, action):
    """Run ``action()``, then probe the CPU.  Returns the action's result
    and the factor that scales a time measured during it to the reference
    speed."""
    since = len(speed.times)
    result = action()
    speed.measure()
    return result, speed.factor(since)


def child_env(workload):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QSYMQ_MAX_N")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE / "site")])
    if CHILD_MAX_N[workload] is not None:
        env["QSYMQ_MAX_N"] = CHILD_MAX_N[workload]
    return env


# ---------------------------------------------------------------------------
# reduce-warm: one library process with a prewarmed GBasis(7)


class WarmRunner:
    def __init__(self, workload):
        self.workload = workload
        self.next_setup = 0.0
        self.env = child_env(workload)
        self.setups = Setups()
        self.speed = Speedometer(PROBE[workload])
        self.setup_speed = Speedometer(spawn_probe)
        self.basis = None

    def peak_kib(self):
        return own_peak_kib()

    def setup(self, tracer):
        """The worker's own set-up: import qsymq and build GBasis(7).  The
        set-up samples are taken in fresh processes (``sample_setup``), like
        those of the other workloads, so this one is not timed."""
        if tracer is not None:
            tracer.request = "setup"
        _, self.basis = setup_probe.timed_setup(tracer)
        if tracer is not None:
            tracer.uninstall()

    def sample_setup(self):
        """One more set-up, timed in a fresh process.  Returns its seconds."""
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              env=self.env, capture_output=True, text=True,
                              timeout=120, cwd=ROOT, check=True)
        return float(proc.stdout)

    def execute(self, index, request, tracer):
        from qsymq.poly import Polynomial

        p = Polynomial(request.n, request.terms)
        op = {"member": self.basis.is_member,
              "coordinates": self.basis.coordinates}.get(request.kind, self.basis.normal_form)
        if tracer is not None:
            tracer.request = index
        outcome = Outcome(0.0)
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S["reduce-warm"])
        start = clock()
        try:
            result = op(p)
        except RequestTimeout:
            outcome.error = "timeout"
        except Exception as exc:  # a failed request is counted, the run goes on
            outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            outcome.latency = clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if outcome.error is None:
            if request.kind in ("member", "coordinates"):
                outcome.answer = result
            else:
                outcome.answer = (list(result.remainder.items()), result.certificate)
        return outcome

    def check(self, request, answer):
        if request.kind == "member":
            return None if answer == request.expect else f"member {answer}, expected {request.expect}"
        if request.kind == "coordinates":
            expect = {e: Fraction(c) for e, c in request.expect.items()}
            return None if answer == expect else "coordinates differ from construction"
        remainder, certificate = answer
        return checks.certificate_problem(request.terms, remainder, certificate,
                                          lambda eps: self.basis.g(eps).items())

    def canonical(self, request, answer):
        if request.kind == "member":
            return f"member:{answer}"
        if request.kind == "coordinates":
            return "coordinates:" + checks.terms_text(answer.items())
        remainder, certificate = answer
        return ("remainder:" + checks.terms_text(remainder) + "|certificate:"
                + ";".join(f"{c}@{','.join(map(str, e))}" for c, e in certificate))


# ---------------------------------------------------------------------------
# cli-cold, oracle-cold: one fresh CLI process per request


def wait(proc, deadline, meter=None):
    """``proc.communicate()`` until ``deadline`` (then TimeoutExpired).
    With a ``meter``, probe the CPU, which the child shares, every
    ``PROBE_EVERY_S`` while waiting."""
    while True:
        step = deadline - clock() if meter is None else min(PROBE_EVERY_S, deadline - clock())
        try:
            return proc.communicate(timeout=max(step, 0.0))
        except subprocess.TimeoutExpired:
            if clock() >= deadline:
                raise
            meter.measure()


class ProcessRunner:
    def __init__(self, workload):
        self.workload = workload
        self.next_setup = 0.0
        self.env = dict(child_env(workload), PERFBENCH_HWM_FILE=str(HWM_FILE))
        self.setups = Setups()
        self.speed = Speedometer(PROBE[workload])
        self.setup_speed = Speedometer(spawn_probe)
        self.bases = {}
        self.start_s = 0.0
        self.stdout_bytes = 0
        self.largest_child_kib = 0

    def peak_kib(self):
        return self.largest_child_kib

    def spawn(self, argv, timeout, meter=None):
        """Run one child; its peak resident set, which the site hook in
        perfbench/site writes at exit, goes into ``largest_child_kib``.
        With a ``meter``, probe the CPU every ``PROBE_EVERY_S`` while the
        child runs."""
        HWM_FILE.unlink(missing_ok=True)
        start = clock()
        with subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                stdout, stderr = wait(proc, start + timeout, meter)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return start, Outcome(clock() - start, error="timeout")
        outcome = Outcome(clock() - start, (stdout, proc.returncode))
        if HWM_FILE.exists():
            peaks = HWM_FILE.read_text(encoding="ascii").split()
            self.largest_child_kib = max([self.largest_child_kib] + [int(k) for k in peaks])
        if proc.returncode not in (0, 3):
            outcome.error = f"exit {proc.returncode}: {stderr.strip()[-200:]}"
        return start, outcome

    def setup(self, tracer):
        """Nothing to build: every request starts a fresh process."""

    def sample_setup(self):
        """Time one no-op CLI process.  Returns its seconds."""
        _, outcome = self.spawn([sys.executable, "-m", "qsymq"] + NOOP, 20)
        if outcome.error or outcome.answer != ("1\n", 0):
            raise RuntimeError(f"no-op request failed: {outcome}")
        return outcome.latency

    def execute(self, index, request, tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "qsymq"] + request.argv
            meter = self.speed if self.workload in PROBE_DURING else None
            return self.spawn(argv, TIMEOUT_S[self.workload], meter)[1]
        spans_file = OUT / "child-spans.json"
        spans_file.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), str(index)]
        start, outcome = self.spawn(argv + request.argv, TIMEOUT_S[self.workload])
        if spans_file.exists():
            recorded = json.loads(spans_file.read_text(encoding="utf-8"))
            mains = [s[1] for s in recorded["spans"] if s[0] == "cli.main"]
            if mains:
                self.start_s += mains[0] - start
            tracer.absorb(recorded["spans"], recorded["counts"])
        if outcome.answer is not None:
            self.stdout_bytes += len(outcome.answer[0].encode())
        return outcome

    def basis(self, n):
        from qsymq.quotient import GBasis

        return self.bases.setdefault(n, GBasis(n))

    def check(self, request, answer):
        stdout, code = answer
        if code != request.exit_code:
            return f"exit code {code}, expected {request.exit_code}"
        kind = request.kind
        if kind.startswith("x1^"):
            return None if stdout == "0\n" else f"x1^d printed {stdout.strip()!r}, expected 0"
        if kind.startswith("member"):
            want = "in ideal" if request.exit_code == 0 else "not in ideal"
            return None if stdout.strip() == want else f"member printed {stdout.strip()!r}"
        record, problem = checks.parse_json(stdout)
        if problem:
            return problem
        if kind.startswith("reduce"):
            from qsymq.cli import polynomial_from_record

            remainder = polynomial_from_record(record).items()
            certificate = [(Fraction(c["coeff"]), tuple(c["eps"])) for c in record["certificate"]]
            basis = self.basis(request.n)
            return checks.certificate_problem(request.terms, remainder, certificate,
                                              lambda eps: basis.g(eps).items())
        if kind == "gbasis":
            return checks.gbasis_problem(request.expect, record)
        if kind.startswith("fundamental"):
            return checks.fundamental_problem(request.expect, request.n, record)
        if kind == "qsym-mul":
            return checks.qsym_mul_problem(*request.expect, request.n, record)
        if kind.startswith("oracle"):
            return checks.series_problem(request.n, record["series"])
        return f"no check for request kind {kind}"

    def canonical(self, request, answer):
        stdout, code = answer
        if request.kind.startswith("oracle"):
            return f"series:{request.n}:{json.loads(stdout)['series']}"
        return f"{stdout}\nexit={code}"


# ---------------------------------------------------------------------------
# the run


class Ledger:
    """Checked outcomes of one pass or more over the stream.

    ``settle`` checks each pending answer: its check, then its output digest
    against the digest recorded for its position in the stream (if any) and
    against the first answer at that position (a repeat must answer the
    same).  Then it keeps only the request's kind, the latencies of its
    runs (scaled, and as measured) and its digest, and drops the request and
    the answer.  A request's latency is the median of its runs."""

    def __init__(self, recorded):
        self.recorded = recorded or []
        self.pending = []    # (position, request, outcome), not yet checked
        self.kinds = {}      # position -> request kind
        self.scaled = {}     # position -> scaled latencies of its runs
        self.wall = {}       # position -> measured latencies of its runs
        self.digests = {}    # position -> digest of its first correct answer
        self.failed = set()  # positions with a failed run
        self.failures = []
        self.runs = 0
        self.compared = 0

    def settle(self, runner):
        for position, request, outcome in self.pending:
            self.runs += 1
            problem, value = outcome.error, None
            if problem is None:
                try:
                    problem = runner.check(request, outcome.answer)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    problem = f"malformed answer: {type(exc).__name__}: {exc}"
            if problem is None:
                value = checks.digest(runner.canonical(request, outcome.answer))
                if self.digests.setdefault(position, value) != value:
                    problem = "answer differs from an earlier run of the same request"
                elif position < len(self.recorded):
                    self.compared += 1
                    if self.recorded[position] != value:
                        problem = "output digest differs from the recorded one"
            if problem is not None:
                self.failures.append(f"#{position} {request.kind}: {problem}")
                self.failed.add(position)
            self.kinds[position] = request.kind
            self.scaled.setdefault(position, []).append(outcome.latency)
            self.wall.setdefault(position, []).append(outcome.wall)
        self.pending.clear()

    def latencies(self, runs=None):
        """position -> the median of its runs (by default the scaled ones)."""
        return {position: statistics.median(times)
                for position, times in (runs or self.scaled).items()}

    def answered(self):
        return len(self.scaled) - len(self.failed)

    def busy(self):
        return sum(self.latencies().values())


def serve_round(runner, requests, first, ledger, deadline, tracer=None):
    """Closed loop, one request in flight: send each request after the
    previous one returns, then check the round's answers.  ``first`` is the
    position of the round's first request in the stream.  Before each
    request the runner takes a set-up sample if one is due (untraced
    passes only).  Every request and set-up is scaled to the reference
    speed.  Returns False once the deadline has passed."""
    for offset, request in enumerate(requests):
        if clock() > deadline:
            break
        if tracer is None and clock() >= runner.next_setup:
            runner.setups.add(*timed(runner.setup_speed, runner.sample_setup))
            runner.next_setup = clock() + SETUP_EVERY_S[runner.workload]
        outcome, factor = timed(
            runner.speed, lambda: runner.execute(first + offset, request, tracer))
        outcome.wall, outcome.latency = outcome.latency, outcome.latency * factor
        ledger.pending.append((first + offset, request, outcome))
    if tracer is not None:
        tracer.uninstall()
    ledger.settle(runner)
    return clock() <= deadline


def serve(runner, workload, seed, seconds, ledger, deadline):
    """The untraced run.  The first pass serves whole rounds until its busy
    time reaches ``seconds / REPEATS`` (and at least ``MIN_ROUNDS``); the
    other passes serve the same rounds again, regenerated from the seed so
    that only one round's inputs are held at a time.  Returns the number of
    rounds."""
    count, busy = 0, 0.0
    for requests in rounds(workload, seed):
        before = ledger.busy()
        going = serve_round(runner, requests, count * len(requests), ledger, deadline)
        busy += ledger.busy() - before
        count += 1
        if not going or count >= MIN_ROUNDS[workload] and busy >= seconds / REPEATS:
            break
    for _ in range(REPEATS - 1):
        for index, requests in zip(range(count), rounds(workload, seed)):
            if not serve_round(runner, requests, index * len(requests), ledger, deadline):
                return count
    return count


def rate(ledger):
    """Requests answered per busy second."""
    busy = ledger.busy()
    return ledger.answered() / busy if busy else 0.0


def unscaled(setups, ledger):
    """The time metrics from the latencies as measured."""
    latencies = list(ledger.latencies(ledger.wall).values())
    return {
        "setup_s": statistics.median(setups) if setups else None,
        "ops_per_s": ledger.answered() / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
    }


def end_to_end(setups, ledger, peak_rss_mb):
    latencies = list(ledger.latencies().values())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate(ledger), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(tracer, runner, untraced, traced):
    totals = layer_totals(tracer.spans)

    def get(name, key):
        return totals[name][key] if name in totals else 0

    steps = int(get("quotient.normal_form", "steps"))
    nf_self = get("quotient.normal_form", "self_s")
    rows = tracer.counts["generator_rows"]
    rank = int(get("oracle.ideal_degree_rank", "rank"))
    out = {}
    for name in ("quotient.normal_form", "quotient.g", "poly.mul", "poly.add",
                 "qsym.fundamental_qsym", "qsym.monomial_qsym", "combinat.refinements",
                 "oracle.ideal_degree_rank", "cli.parse_polynomial", "cli.render_polynomial"):
        out[f"{name}.calls"] = (int(get(name, "calls")), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("qsym.f_product", "combinat.shuffles", "combinat.vectors_of_degree",
                 "cli.main"):
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out.update({
        "quotient.steps": (steps, "count"),
        "quotient.steps_per_s": (steps / nf_self if nf_self else 0.0, "1/s"),
        "quotient.remainder_terms": (int(get("quotient.normal_form", "remainder_terms")), "count"),
        "quotient.g_terms": (int(get("quotient.g", "g_terms")), "count"),
        "qsym.fundamental_terms": (int(get("qsym.fundamental_qsym", "fundamental_terms")), "count"),
        "combinat.refinements_out": (int(get("combinat.refinements", "refinements_out")), "count"),
        "combinat.shuffles_out": (int(get("combinat.shuffles", "shuffles_out")), "count"),
        "combinat.is_dyck.calls": (int(get("combinat.is_dyck", "calls")), "count"),
        "oracle.columns": (tracer.counts["columns"], "count"),
        "oracle.generator_rows": (rows, "count"),
        "oracle.rank": (rank, "count"),
        "oracle.useful_row_ratio": (rank / rows if rows else 0.0, "ratio"),
        "cli.start_s": (getattr(runner, "start_s", 0.0), "s"),
        "cli.stdout_bytes": (getattr(runner, "stdout_bytes", 0), "bytes"),
        "trace.untraced_ops_per_s": (rate(untraced), "1/s"),
        "trace.traced_ops_per_s": (rate(traced), "1/s"),
    })
    u, t = out["trace.untraced_ops_per_s"][0], out["trace.traced_ops_per_s"][0]
    out["trace.overhead_ratio"] = (u / t - 1 if t else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def git_sha():
    """The commit of the checkout's own ``.git``, read from its files (so
    nothing outside the checkout is read), or "unknown" for an exported
    tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_recorded(workload, seed):
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if seed != data["default_seed"]:
        return data, None
    return data, data["workloads"].get(workload)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time to measure (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the reference "
                             "(default seed, --trace 0 only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsymq" / "__init__.py").is_file():
        print(f"error: no qsymq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    digest_data, recorded = load_recorded(args.workload, args.seed)
    if args.record_digests:
        if args.seed != digest_data["default_seed"] or args.trace:
            print("error: --record-digests needs the default seed and --trace 0",
                  file=sys.stderr)
            return 2
        recorded = None  # replaced, not compared
    signal.signal(signal.SIGALRM, on_alarm)

    workload, traced_run = args.workload, bool(args.trace)
    deadline = clock() + RUN_LIMIT_S
    runner = (WarmRunner if workload == "reduce-warm" else ProcessRunner)(workload)
    tracer = Tracer() if traced_run else None
    cpu = pin_to_fastest_cpu(runner.speed.probe)
    runner.speed.start()
    runner.setup_speed.start()
    runner.setup(tracer)

    ledger, traced_ledger = Ledger(recorded), Ledger(recorded)
    if not traced_run:
        count = serve(runner, workload, args.seed, args.seconds, ledger, deadline)
    else:
        # Each round is served untraced and traced, once each, so both passes
        # see the same load; the order alternates, so neither always finds
        # the caches warmed by the other.
        count = TRACE_ROUNDS
        for index, requests in zip(range(TRACE_ROUNDS), rounds(workload, args.seed)):
            passes = [(None, ledger), (tracer, traced_ledger)]
            if index % 2:
                passes.reverse()
            for pass_tracer, pass_ledger in passes:
                if pass_tracer is not None and workload == "reduce-warm":
                    tracer.install()
                serve_round(runner, requests, index * len(requests), pass_ledger,
                            deadline, pass_tracer)
    peak_kib = runner.peak_kib()
    failures = ledger.failures + traced_ledger.failures
    attempted = ledger.runs + traced_ledger.runs
    if traced_run:
        metrics = per_layer(tracer, runner, ledger, traced_ledger)
    else:
        metrics = end_to_end(runner.setups.scaled, ledger, peak_kib / 1024)
    digests = [ledger.digests.get(p) for p in range(max(ledger.scaled, default=-1) + 1)]

    if args.record_digests:
        digest_data["workloads"][workload] = digests
        DIGESTS.write_text(json.dumps(digest_data, indent=1) + "\n", encoding="utf-8")

    meta = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": traced_run, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "child_QSYMQ_MAX_N": CHILD_MAX_N[workload],
        "requests": len(ledger.scaled), "runs": attempted, "failed": len(failures),
        "rounds": count, "repeats": 1 if traced_run else REPEATS,
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "run_digest": checks.digest("".join(d or "-" for d in digests)),
        "digests_compared": ledger.compared,
        "setup_samples": runner.setups.scaled,
        "setup_samples_wall": runner.setups.wall,
        # the speed of the machine during the run (speed.py)
        "cpu": cpu,
        "probes": {role: {"probe": meter.probe.__name__, "mean_ms": 1000 * meter.mean_probe(),
                          "reference_ms": 1000 * REFERENCE_S[meter.probe]}
                   for role, meter in (("requests", runner.speed), ("set-ups", runner.setup_speed))},
        "unscaled": unscaled(runner.setups.wall, ledger) if ledger.scaled else None,
    }
    report(meta, metrics, ledger, failures)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "failures": failures}, indent=1), encoding="utf-8")
    if traced_run:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def report(meta, metrics, ledger, failures):
    count = meta["requests"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={int(meta['trace'])} "
          f"python={meta['python']} nproc={meta['nproc']} git={meta['git_sha'][:12]} "
          f"child QSYMQ_MAX_N={meta['child_QSYMQ_MAX_N']}")
    each = f"{count} requests of {meta['rounds']} rounds, each the median of {meta['repeats']} runs"
    notes = {
        "setup_s": f"median of {len(meta['setup_samples'])} set-ups",
        "ops_per_s": each + ", one in flight",
        "latency_p50_ms": f"n={count}",
        "latency_p90_ms": f"n={count}, {samples_beyond(count, 90)} beyond"
                          + ("" if has_tail(count, 90) else "; fewer than 10 beyond"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':34s} {meta['error_rate']:>14.6g} ratio  "
          f"{meta['failed']} of {meta['runs']} runs failed")
    print(f"  run digest {meta['run_digest']}, {meta['digests_compared']} answers "
          "compared with recorded digests")
    print(f"  on CPU {meta['cpu']}; times are scaled to the reference speed (speed.py): "
          + ", ".join(f"{role} by {p['probe']}, mean {p['mean_ms']:.3f} ms against "
                      f"{p['reference_ms']:.3f} ms" for role, p in meta["probes"].items()))
    if meta["unscaled"]:
        print("  as measured: " + ", ".join(
            f"{name} {value:.6g}" for name, value in meta["unscaled"].items()
            if value is not None))
    by_kind = {}
    for position, latency in ledger.latencies().items():
        by_kind.setdefault(ledger.kinds[position], []).append(latency)
    print("  median ms by class: " + ", ".join(
        f"{k} {1000 * statistics.median(v):.1f} (n={len(v)})" for k, v in sorted(by_kind.items()))
          + " (scaled)")
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
