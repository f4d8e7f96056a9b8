"""Self-tests of the benchmark: case generation, spans and failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pfspectra import liecore, oracle  # noqa: E402


def case_list(workload, seed, workdir):
    """Cases with each input document's content in place of its path."""
    out = []
    for case in workloads.make_cases(workload, seed, str(workdir)):
        argv = [Path(a).read_text() if a.startswith(str(workdir)) else a for a in case.argv]
        out.append((argv, case.expect, case.size))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_cases_other_seed_other_cases(workload, tmp_path):
    first = case_list(workload, 3, tmp_path / "a")
    assert first == case_list(workload, 3, tmp_path / "a")
    assert first != case_list(workload, 4, tmp_path / "a")


def test_sphere_pair_span_has_build_so_child_and_excludes_it():
    tracer = spans.Tracer()
    tracer.install()
    try:
        oracle.sphere_pair(4)
    finally:
        tracer.uninstall()
    assert oracle.build_so is liecore.build_so  # originals restored
    names = [s[0] for s in tracer.spans]
    parent = names.index("oracle.sphere_pair")
    child = names.index("liecore.build_so")
    assert tracer.spans[child][3] == parent
    own = spans.self_times(tracer.spans)
    _, start, end, *_ = tracer.spans[parent]
    _, c_start, c_end, *_ = tracer.spans[child]
    assert own[parent] <= (end - start) - (c_end - c_start) + 1e-12
    assert own[parent] >= 0.0
    metrics = spans.layer_metrics(tracer, passes=1)
    assert metrics["oracle.sphere_pair.calls"] == 1
    assert metrics["liecore.build_so.calls"] == 1
    assert metrics["liecore.build_so.peak_mb"] > 0


def test_raising_case_counts_as_failed_and_pass_continues(monkeypatch):
    def fake_main(argv):
        if argv[0] == "boom":
            raise RuntimeError("boom")
        sys.stdout.write(json.dumps({"passed": True}) + "\n")
        return 0

    monkeypatch.setattr(worker.cli, "main", fake_main)
    cases = [workloads.Case(f"c{i}", (cmd,), 0, (cmd,)) for i, cmd in
             enumerate(["first", "boom", "last"])]
    outcomes = worker.Outcomes()
    walls = worker.run_passes(cases, outcomes, budget=0.0)
    assert len(walls) == 1
    assert outcomes.attempted == 3
    assert list(outcomes.failures) == ["c1"]
    assert outcomes.failures["c1"][1].startswith("raised RuntimeError")
    assert not outcomes.wrong  # an operation that failed, not a wrong answer


def test_verdict_disagreeing_with_exit_code_is_a_wrong_output():
    case = workloads.Case("c0", ("trace",), 0, ("trace",))
    outcomes = worker.Outcomes()
    outcomes.check(case, 0, json.dumps({"passed": False}), "")
    assert outcomes.wrong and "disagrees" in outcomes.failures["c0"][1]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value = worker.tail([float(i) for i in range(100)])
    assert (pct, value) == (90, 89.0)
    assert sum(v > value for v in range(100)) == 10
