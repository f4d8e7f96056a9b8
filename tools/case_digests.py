"""Digest every benchmark case of a checkout, one line per case.

    python tools/case_digests.py SRC [--seeds 1 2 3] > digests.txt

SRC is the root of a checkout.  The script imports ``pfspectra`` from
SRC/src and the case lists from SRC/perfbench/workloads.py, then runs each
case of every workload and seed in this process through ``cli.main``, with
BLAS pinned to one thread as the benchmark runs it.  Each line reads

    workload seed case-id exit-code sha1-of-stdout

with the temporary directory that holds the case documents written as
``<tmp>`` before hashing, so two checkouts can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="root of the checkout to run")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(args.src).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads
    from pfspectra import cli

    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                for case in workloads.make_cases(workload, seed, tmp):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = cli.main(list(case.argv))
                        except SystemExit as exc:  # argparse's own exits
                            code = exc.code
                    digest = hashlib.sha1(out.getvalue().replace(tmp, "<tmp>").encode())
                    print(workload, seed, case.id, code, digest.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
