"""Run one workload in this process and write its measurements as JSON.

run.py starts this file in a fresh process with the program's ``src`` on
PYTHONPATH and BLAS pinned to one thread.  The load is a closed loop with
one client: each case is one in-process ``pfspectra.cli.main(argv)`` call
with stdout captured, started only after the previous one returned.  The
case list is replayed in passes until the time budget is spent; with
tracing on, half the budget runs untraced and half traced.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads
from pfspectra import cli

SETUP_RUNS = 5
# Set-up as every CLI invocation pays it: import, parser, first schema load.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
from pfspectra import cli, formats
cli.build_parser()
formats.load_document(sys.argv[1], "spectral_data")
print(time.perf_counter() - t0)
"""
SETUP_DOC = {"freq_mult": [[1.0, 3]], "mult0": [], "mult": [[1.0, 0.7, 1], [1.0, -0.7, 1]],
             "perp": [[0.0, 1], [1.0, 1]], "dim_m0": 1, "dim_k0": 3}

# Report fields that carry a command's verdict; exit 0 means true.
VERDICT_KEYS = ("passed", "austere")
CSV_HEADER = ["family", "index", "value", "multiplicity"]


def option(argv, flag: str):
    """Value of --flag in argv, written as "--flag v" or "--flag=v"."""
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


def parse_report(case, stdout: str):
    """The parsed report; raises ValueError when it does not parse."""
    if option(case.argv, "--format") == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != CSV_HEADER:
            raise ValueError("CSV header missing")
        for row in rows[1:]:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"CSV row of {len(row)} fields")
            float(row[2])
        return rows
    report = json.loads(stdout)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def accuracy_margins(case, report) -> list:
    """log10(tol / err) for each truncation- or quadrature-limited check.

    Roundoff-level checks (group oracle, so9) are left out so that a
    reordering of floating-point work cannot read as lost accuracy.
    """
    argv = case.argv
    pairs = []
    if argv[0] == "oracle" and option(argv, "--mode") == "mu":
        tol_rel = float(option(argv, "--tol-rel"))
        pairs += [(tol_rel, e["rel_err"]) for b in report["blocks"] for e in b["entries"]
                  if e["descriptor"].startswith("mu")]
        pairs += [(report["residual_tol"], r) for r in report["eigenfunction_residuals"].values()]
    elif argv[0] == "oracle" and option(argv, "--mode") == "forms":
        pairs.append((report["tolerance"], report["worst_residual"]))
    elif argv[0] == "trace":
        pairs.append((report["tolerance"], report["paired_error"]))
    elif argv[0] == "transport" and option(argv, "--check") == "equivariance":
        pairs.append((report["tolerance"], report["worst_residual"]))
    return [math.log10(tol / err) for tol, err in pairs if err > 0]


class Outcomes:
    """Latencies, failures, stdout digests and margins of executed cases."""

    def __init__(self):
        self.latencies = []
        self.by_case = {}
        self.attempted = 0
        self.failures = {}  # case id -> [argv, reason, count]
        self.wrong = False
        self.digests = {}
        self.margins = []

    def fail(self, case, reason: str, wrong: bool) -> None:
        entry = self.failures.setdefault(case.id, [" ".join(case.argv), reason, 0])
        entry[2] += 1
        self.wrong |= wrong

    def run(self, case) -> None:
        """Execute one case, time it and check its output."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(case.argv))
        except SystemExit as exc:  # argparse rejects flags with exit 2
            code = exc.code
        except Exception as exc:  # a raising case fails; the pass goes on
            self.latencies.append(time.perf_counter() - start)
            self.attempted += 1
            self.fail(case, f"raised {type(exc).__name__}: {exc}", wrong=False)
            return
        self.latencies.append(time.perf_counter() - start)
        self.by_case.setdefault(case.id, []).append(self.latencies[-1])
        self.attempted += 1
        self.check(case, code, out.getvalue(), err.getvalue())

    def check(self, case, code, stdout: str, stderr: str) -> None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.digests.setdefault(case.id, digest)
        if code != case.expect:
            detail = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
            # A refusal (exit 2) of valid input is a failed operation; any
            # other exit-code mismatch is a wrong verdict.
            self.fail(case, f"exit {code}, expected {case.expect}: {detail}",
                      wrong=code != 2)
            return
        if digest != first:
            self.fail(case, "stdout differs from the first run of this case", wrong=True)
            return
        if code == 2:
            if stdout:
                self.fail(case, "report printed for refused input", wrong=True)
            return
        try:
            report = parse_report(case, stdout)
        except ValueError as exc:
            self.fail(case, f"malformed report: {exc}", wrong=True)
            return
        if isinstance(report, dict):
            verdict = next((report[k] for k in VERDICT_KEYS if k in report), None)
            if verdict is not None and verdict != (code == 0):
                self.fail(case, f"verdict {verdict} disagrees with exit {code}", wrong=True)
                return
            self.margins += accuracy_margins(case, report)


class SetupProbe:
    """Set-up times of fresh processes, sampled between passes.

    Spreading the samples over the run keeps one slow stretch of a shared
    machine from setting all of them.
    """

    def __init__(self, workdir: str, budget: float):
        self.doc = os.path.join(workdir, "setup_doc.json")
        with open(self.doc, "w", encoding="utf-8") as fh:
            json.dump(SETUP_DOC, fh)
        self.spacing = budget / SETUP_RUNS
        self.start = time.perf_counter()
        self.times = []

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, self.doc],
                              capture_output=True, text=True, timeout=60, check=True)
        self.times.append(float(proc.stdout.split()[-1]))

    def between_passes(self) -> None:
        due = time.perf_counter() - self.start >= len(self.times) * self.spacing
        if due and len(self.times) < SETUP_RUNS:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


def run_passes(cases, outcomes: Outcomes, budget: float, tracer=None, between=None) -> list:
    """Replay the case list until the next pass would overrun the budget."""
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        for case in cases:
            if tracer is not None:
                tracer.case = case.id
            outcomes.run(case)
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls


def tail(latencies) -> tuple:
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    return math.floor(100 * (n - 10) / n), ordered[n - 11]


def blas_info() -> dict:
    """BLAS library from numpy's build record and its live thread count."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", required=True, help="JSON-lines file for the spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pfspectra imported from {cli.__file__}, not from {src}")

    cases = workloads.make_cases(args.workload, args.seed, args.workdir)
    outcomes = Outcomes()
    budget = args.seconds / 2 if args.trace else args.seconds
    setup = None if args.trace else SetupProbe(args.workdir, budget)
    walls = run_passes(cases, outcomes, budget, between=setup and setup.between_passes)
    untraced = list(outcomes.latencies)
    setup_s = setup.median() if setup else None
    result = {"setup_times": setup.times if setup else None}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_walls = run_passes(cases, outcomes, budget, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(args.spans)
        layers = spans.layer_metrics(tracer, len(traced_walls))
        layers["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        result["layers"] = layers
        result["traced_passes"] = len(traced_walls)

    pct, tail_s = tail(untraced)
    result.update({
        "e2e": {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "case_p50_ms": 1000 * statistics.median(untraced),
            "case_tail_ms": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_ratio": sum(f[2] for f in outcomes.failures.values()) / outcomes.attempted,
            "accuracy_margin_decades": min(outcomes.margins) if outcomes.margins else math.nan,
        },
        "tail_percentile": pct,
        "samples": len(untraced),
        "passes": len(walls),
        "walls": walls,
        "by_case": outcomes.by_case,
        "attempted": outcomes.attempted,
        "failed": sum(f[2] for f in outcomes.failures.values()),
        "correct": not outcomes.wrong,
        "failures": [{"case": cid, "argv": a, "reason": r, "count": c}
                     for cid, (a, r, c) in sorted(outcomes.failures.items())],
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "cases": len(cases),
            "repeat_share": workloads.repeat_share(cases),
            "blas": blas_info(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
