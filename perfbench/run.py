"""pfspectra benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lie-geometry --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the result carries the end-to-end
metrics of an untraced run; with ``--trace 1`` it carries the per-layer
metrics of a traced run (see README.md).  Human-readable lines come
first: every metric with its unit, the run record and each failed case
with its reason.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKER_GRACE_S = 120

END_TO_END = (("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
              ("case_p50_ms", "ms", "lower"), ("case_tail_ms", "ms", "lower"),
              ("peak_rss_mb", "MB", "lower"), ("fail_ratio", "ratio", "lower"),
              ("accuracy_margin_decades", "decades", "higher"))
# fail_ratio is printed but left out of the result's metrics: it is 0 on
# clean workloads, and the result's attempted/failed fields carry it.
UNGATED = {"fail_ratio"}


def layer_unit(name: str) -> tuple:
    if name.endswith(".self_s"):
        return "s", "lower"
    if name.endswith(".peak_mb"):
        return "MB", "lower"
    if name == "transport.steps_per_s":
        return "1/s", "higher"
    if name == "oracle.eig_used_ratio":
        return "ratio", "higher"
    if name == "trace.overhead_ratio":
        return "ratio", "lower"
    return "count", "lower"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workdir: Path) -> dict:
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str((workdir / "inputs").relative_to(ROOT)), "--out", str(out),
           "--spans", str(OUT / f"spans-{args.workload}.jsonl")]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr.strip()}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "pfspectra" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res = run_worker(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: (value, *layer_unit(name)) for name, value in res["layers"].items()}
    else:
        metrics = {name: (res["e2e"][name], unit, better) for name, unit, better in END_TO_END}
    for name, (value, unit, better) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({better} is better)")
    if not args.trace:
        print(f"case_tail_ms is p{res['tail_percentile']} of {res['samples']} case samples "
              f"over {res['passes']} pass(es) of {res['record']['cases']} cases")
    for failure in res["failures"]:
        print(f"FAILED {failure['case']} x{failure['count']}: {failure['argv']}\n"
              f"    {failure['reason']}")
    print("record: " + json.dumps(res["record"], sort_keys=True))
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(res, indent=1))

    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items() if name not in UNGATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
