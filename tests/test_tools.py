"""The repository tools run and print what they document."""

import importlib.util
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_digests_prints_one_line_per_case(tmp_path, capsys, monkeypatch):
    # the tool pins BLAS threads and extends sys.path; undo both afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert load_tool("case_digests").main([str(REPO_ROOT), "--seeds", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    import workloads  # on sys.path once the tool has run

    want = [(w, "1", case.id, str(case.expect)) for w in workloads.WORKLOADS
            for case in workloads.make_cases(w, 1, str(tmp_path / w))]
    assert [tuple(line[:4]) for line in lines] == want
    assert all(len(line) == 5 and len(line[4]) == 40 for line in lines)
