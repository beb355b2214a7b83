"""Benchmark of the spcheck command, one closed-loop client in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up imports spcheck from ``src`` and
writes the workload's seeded input files under ``bench/.work``; it is
done five times and its median reported. The run then sends the
workload's fixed request list through ``spcheck.cli.main``, one request
at a time, in a fixed number of whole passes: ``--seconds`` divided by
the workload's nominal pass time, rounded, at least one. Every run with
the same ``--seconds`` times the same work. Every answer is checked
apart from the engines (see checks.py), in a child process, so that the
checker's memory stays out of the measured process.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUPS = 5
ORDER_SEED = 1
# Nominal seconds of one untraced pass over each workload's request list
# (2-core x86-64 machine, Python 3.11); they fix the number of passes.
PASS_SECONDS = {
    "key_discovery": 15.0,
    "key_repair": 11.0,
    "dep_search": 4.8,
    "oracle_verify": 8.5,
}
# The tail percentile is the highest one with this many requests beyond it.
TAIL_BEYOND = 10


def setup(name: str, seed: int):
    """Fresh import of spcheck, then the workload's input files."""
    for key in [k for k in sys.modules if k == "spcheck" or k.startswith("spcheck.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    cli = importlib.import_module("spcheck.cli")
    generators = importlib.import_module("spcheck.generators")
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    requests = workloads.WORKLOADS[name](work, seed, generators)
    # One fixed order for every seed that mixes the cost classes, so that
    # a slow phase of the machine, which lasts seconds, slows a few
    # requests of many classes rather than a whole class at once.
    random.Random(ORDER_SEED).shuffle(requests)
    return cli, requests


def send(cli, request, report: Path, tracer):
    """One request through the CLI entry point; returns (exit code or
    exception name, seconds)."""
    argv = request.argv(report)
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                outcome = cli.main(argv)
            else:
                outcome = tracer.call("request", cli.main, (argv,), {})
    except SystemExit as err:
        outcome = err.code
    except Exception as err:  # the client keeps going; the request counts as failed
        outcome = type(err).__name__
    return outcome, time.perf_counter() - started


def check(request, report: Path, outcome, checkers: dict) -> str | None:
    """None when the answer passes every check, else the reason."""
    table = request.table
    checker = checkers.get(table.path)
    if checker is None:
        checker = checkers[table.path] = checks.Checker(table.rows, table.arity)
    try:
        data = json.loads(report.read_text(encoding="utf-8"))
        entries = data["constraints"]
        if len(entries) != len(request.constraints):
            return "report lists the wrong number of constraints"
        for i, (entry, constraint) in enumerate(zip(entries, request.constraints)):
            expected = request.expected[i] if request.expected else None
            checker.entry(entry, constraint, expected)
        # Budget errors fail the entry check above, so every accepted
        # report must exit 1 when a constraint is violated and 0 otherwise.
        want = 1 if any(not e["holds"] for e in entries) else 0
        if outcome != want:
            return f"exit code {outcome}, the verdicts give {want}"
    except checks.CheckError as err:
        return str(err)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err!r}"
    return None


class CheckerProcess:
    """The answer checks, run in a forked child between requests.

    The child inherits the request list and keeps one ``checks.Checker``
    per table, so repeated passes pay for the costly matchings once. Its
    memory (parsed reports, matchings, witness replays) is its own and
    stays out of the parent's ``ru_maxrss``. The parent waits for each
    verdict before it sends the next request, so checks never run
    alongside a timed request. The run has one thread, so forking is safe.
    """

    def __init__(self, requests, report: Path):
        jobs_r, jobs_w = os.pipe()
        verdicts_r, verdicts_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(jobs_w)
            os.close(verdicts_r)
            status = 0
            try:
                checkers: dict = {}
                with open(jobs_r, encoding="utf-8") as jobs, \
                        open(verdicts_w, "w", encoding="utf-8") as verdicts:
                    for line in jobs:
                        i, outcome = json.loads(line)
                        reason = check(requests[i], report, outcome, checkers)
                        verdicts.write(json.dumps(reason) + "\n")
                        verdicts.flush()
            except BaseException:  # the child ends here and never returns to the parent's code
                traceback.print_exc()
                sys.stderr.flush()
                status = 1
            os._exit(status)
        os.close(jobs_r)
        os.close(verdicts_w)
        self.jobs = open(jobs_w, "w", encoding="utf-8")
        self.verdicts = open(verdicts_r, encoding="utf-8")

    def check(self, i: int, outcome) -> str | None:
        self.jobs.write(json.dumps([i, outcome]) + "\n")
        self.jobs.flush()
        line = self.verdicts.readline()
        if not line:
            raise RuntimeError("the checker process ended early")
        return json.loads(line)

    def close(self) -> None:
        self.jobs.close()
        self.verdicts.close()
        _, status = os.waitpid(self.pid, 0)
        if status != 0:
            raise RuntimeError(f"the checker process failed (status {status})")


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with TAIL_BEYOND samples beyond."""
    return max(1, n - TAIL_BEYOND)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spcheck" / "cli.py").is_file():
        print(f"error: no spcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup_times = []
    for _ in range(SETUPS):
        requests = None  # the previous set-up's tables, freed before the next
        started = time.perf_counter()
        cli, requests = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - started)

    report = WORK / args.workload / "report.json"
    checker = CheckerProcess(requests, report)
    try:
        # Only the checker needs the rows; drop the parent's copy before
        # the first request.
        for request in requests:
            request.table.rows = None
        gc.collect()
        result = measure(args, cli, requests, report, checker, setup_times)
    finally:
        checker.close()
    print(json.dumps(result))
    return 0


def measure(args, cli, requests, report: Path, checker: CheckerProcess,
            setup_times: list) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    latencies = [[] for _ in requests]
    attempted = failed = wrong = 0
    wall = cpu = 0.0
    for _ in range(passes):
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.key_constraints += sum(1 for c in request.constraints if c[0] == "key")
            if report.exists():
                report.unlink()
            cpu_started = time.process_time()
            outcome, seconds = send(cli, request, report, tracer)
            cpu += time.process_time() - cpu_started
            wall += seconds
            attempted += 1
            if not isinstance(outcome, int) or outcome in (2, 3):
                reason = f"exit {outcome}" if isinstance(outcome, int) else outcome
            else:
                if tracer is not None:
                    tracer.report_bytes += report.stat().st_size
                reason = checker.check(i, outcome)
                if reason is None:
                    latencies[i].append(seconds)
                    continue
                wrong += not request.known_fault
            failed += 1
            label = "failed (known fault)" if request.known_fault else "failed"
            print(f"request {i} {label}: {reason}", file=sys.stderr)

    succeeded = attempted - failed
    per_request = sorted(statistics.median(v) * 1000.0 for v in latencies if v)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed}
    req_per_s = succeeded / wall
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "req_per_s": {"value": req_per_s, "unit": "req/s"},
            "cpu_s": {"value": cpu / passes, "unit": "s"},
            "req_p50_ms": {"value": statistics.median(per_request), "unit": "ms"},
            "req_tail_ms": {"value": per_request[tail_rank(len(per_request)) - 1], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in tracer.metrics(passes).items()}
    n = len(per_request)
    print(f"{args.workload}: {passes} pass(es) of {len(requests)} requests, "
          f"{succeeded} answered, tail = p{100.0 * tail_rank(n) / n:.1f} of {n} "
          f"per-request medians, req_per_s {req_per_s:.4f}")
    return result


if __name__ == "__main__":
    sys.exit(main())
