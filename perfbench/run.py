"""Benchmark of geobracket: end-to-end metrics per workload, per-layer on request.

Run from the root of a checkout::

    python3 perfbench/run.py --workload identity-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload
    python3 perfbench/run.py --cross-check                          # tracer cross-check

One client runs the workload's ops closed-loop in this process: the next op
starts when the previous one has returned.  A run repeats whole rounds of
the workload's ops until ``--seconds`` have passed.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates an untraced
and a traced pass over the first rounds and prints per-layer metrics from
the traced passes (see ``tracer.py``), with the tracing overhead.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
provenance, the tail percentile, the failures and the known defects.

The program under test is imported from ``src/`` of the checkout; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# The keys of ``workloads.WORKLOADS``, which loads numpy and so is imported
# only after the BLAS thread count is fixed.
WORKLOAD_NAMES = ("identity-suite", "dsl-requests", "oracle")

_clock = time.perf_counter


def _pin_environment():
    """Fix the BLAS thread count before numpy is imported; import from src/."""
    if not (SRC / "geobracket" / "__init__.py").is_file():
        print(f"error: no geobracket sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cross-check", action="store_true",
                        help="traced pass over the draws of verify --seed 7 --trials 100")
    return parser.parse_args(argv)


# -- provenance ------------------------------------------------------------------


def provenance(args):
    import numpy

    sha = None  # without a git checkout, the source hash identifies the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "geobracket").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# -- measurement ---------------------------------------------------------------------


def make_workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, smoke=args.smoke)


def measure_setup(args):
    """Median wall time of fresh interpreters that import, build inputs, warm up."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times = [_timed_child(command, limit=150) for _ in range(SETUP_RUNS)]
    return statistics.median(times), times


def _timed_child(command, limit):
    """Wall time of a child process.  ``Popen.wait`` with a timeout polls with
    sleeps of up to 50 ms, which would show in the time, so a timer thread
    kills a child that overruns and the wait itself blocks."""
    start = _clock()
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    killer = threading.Timer(limit, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = _clock() - start
    if code != 0:
        raise RuntimeError(f"set-up run exited {code}: {' '.join(command)}")
    return elapsed


class Tally:
    """Latencies and failures of the ops run so far."""

    def __init__(self):
        self.latencies = []
        self.failures = []  # (label, problem)
        self.failed_ops = 0

    def run(self, op):
        start = _clock()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises counts as failed
            self.latencies.append(_clock() - start)
            self.fail(op.label, f"{type(exc).__name__}: {exc}"[:200])
            return
        self.latencies.append(_clock() - start)
        problem = op.judge(result)
        if problem is not None:
            self.fail(op.label, problem)

    def fail(self, label, problem):
        self.failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append((label, problem))


def run_rounds(workload, seconds, tally, order):
    """Whole rounds until ``seconds`` have passed; returns (rounds, elapsed).
    ``order`` receives the position in its round of every op run."""
    rounds, start = 0, _clock()
    while True:
        for number, op in enumerate(workload.round(rounds)):
            tally.run(op)
            order.append(number)
        rounds += 1
        elapsed = _clock() - start
        if elapsed >= seconds:
            return rounds, elapsed


def tail_stats(latencies, pct):
    """The ``pct`` percentile and the number of samples above it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for v in latencies if v > value)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args, workload, report):
    setup_s, setup_runs = measure_setup(args)
    workload.warm_up()
    if hasattr(workload, "probe_known_defects"):
        report["known_defects"] = _in_out_dir(workload.probe_known_defects)
    tally, order = Tally(), []
    rounds, elapsed = run_rounds(workload, args.seconds, tally, order)
    rss = peak_rss_mb()
    invalid = workload.validate()
    # A request whose checked output is wrong fails at every op that ran it.
    for number in order:
        if number in invalid:
            tally.fail(workload.requests[number][0], "; ".join(invalid[number]))
    lat = tally.latencies
    tail, beyond = tail_stats(lat, workload.tail_pct)
    report.update(
        {
            "rounds": rounds,
            "elapsed_s": elapsed,
            "setup_runs_s": setup_runs,
            "tail_percentile": workload.tail_pct,
            "tail_samples_beyond": beyond,
            "failed_fraction": tally.failed_ops / len(lat),
            "failures": tally.failures,
            "invalid_requests": {str(k): v for k, v in invalid.items()},
        }
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / elapsed, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, len(lat), tally.failed_ops, not invalid


def _in_out_dir(fn):
    """Run ``fn`` with the output directory as working directory, so that
    files an example writes (the README's ``--csv flow.csv``) stay there."""
    OUT.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(OUT)
    try:
        return fn()
    finally:
        os.chdir(previous)


def run_traced(args, workload, report):
    """Alternate untraced and traced passes over the first rounds."""
    from tracer import Tracer, check_span
    from workloads import IdentitySuite

    workload.warm_up()
    tracer = Tracer()
    spans_per_check = isinstance(workload, IdentitySuite)
    plain_times, traced_times, samples = [], [], []
    attempted = failed = 0
    start = _clock()
    while not plain_times or _clock() - start < args.seconds:
        tally = Tally()
        begin = _clock()
        for index in range(workload.trace_rounds):
            for op in workload.round(index):
                tally.run(op)
        plain_times.append(_clock() - begin)

        tracer.reset()
        tracer.install()
        begin = _clock()
        try:
            for index in range(workload.trace_rounds):
                for op in workload.round(index):
                    tracer.op_id += 1
                    if spans_per_check:
                        call = op.call
                        op.call = lambda call=call, label=op.label: tracer.traced_call(
                            check_span(label), call
                        )
                    tally.run(op)
        finally:
            traced_times.append(_clock() - begin)
            tracer.uninstall()
        samples.append(tracer.metrics())
        attempted += len(tally.latencies)
        failed += tally.failed_ops
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    metrics = {
        key: (statistics.median(sample[key][0] for sample in samples), unit)
        for key, (_, unit) in samples[0].items()
    }
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    report.update(
        {
            "trace_rounds_per_pass": workload.trace_rounds,
            "ops_per_pass": attempted // len(samples) // 2,
            "passes": len(samples),
            "untraced_pass_s": plain_times,
            "traced_pass_s": traced_times,
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    )
    return metrics, attempted, failed, True


def run_workload(args):
    report = provenance(args)
    workload = make_workload(args)
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, valid = runner(args, workload, report)
    correct = valid and failed == 0
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed, {'correct' if correct else 'INCORRECT'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; prints each result and a summary."""
    verdicts = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        verdicts[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": verdicts}))
    return 0


def cross_check():
    """Traced pass over exactly the draws of ``verify --seed 7 --trials 100``."""
    from tracer import Tracer
    from geobracket import verify
    from geobracket.randomized import trial_rng

    tracer = Tracer()
    tracer.install()
    try:
        verdicts = [check(trial_rng(7, name, index), 2)
                    for name, check in verify.ALL_CHECKS for index in range(100)]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    found = {key: metrics[key][0] for key in
             ("operators.compose_calls", "brackets.compose_per_jacobi", "brackets.compose_per_qcpb")}
    expected = {"operators.compose_calls": 56012, "brackets.compose_per_jacobi": 126,
                "brackets.compose_per_qcpb": 8}
    ok = found == expected and all(verdicts)
    print(json.dumps({"cross_check": "pass" if ok else "FAIL", "found": found,
                      "expected": expected}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    _pin_environment()
    if args.cross_check:
        return cross_check()
    if args.setup_probe:
        make_workload(args).warm_up()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
