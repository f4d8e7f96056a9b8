"""Seeded case lists for the benchmark workloads.

A case is one CLI invocation together with the exit code it must end
with: 0 for a passed check or a plain report, 1 for a check that ran and
failed, 2 for input the program must refuse.

Every workload has a fixed size plan: the sizes that set a case's cost
(algebra size, cutoff, grid, sample count) are the same for every seed, so
runs with different seeds do comparable work and their timings can be
pooled.  The seed draws everything inside a size: each command's --seed,
oracle parameters, involution splits, spectral data documents, normals
and the case order.  Input documents are written into a directory the
caller names; the program sees only the generated argv and those files.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("lie-geometry", "spectral-truncation", "frame-transport")


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    expect: int
    size: tuple  # (command, size...): equal keys mark a repeated case


class _Plan:
    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.items = []
        self.docs = 0

    def seed(self) -> str:
        return str(self.rng.randrange(1_000_000))

    def doc(self, obj) -> str:
        path = os.path.join(self.workdir, f"doc{self.docs:03d}.json")
        self.docs += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def add(self, argv, size, expect: int = 0) -> None:
        self.items.append(([str(a) for a in argv], tuple(size), expect))


def make_cases(workload: str, seed: int, workdir: str) -> list:
    """The case list of one workload pass; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    os.makedirs(workdir, exist_ok=True)
    plan = _Plan(random.Random(f"{workload}/{seed}"), workdir)
    _BUILDERS[workload](plan)
    plan.rng.shuffle(plan.items)
    return [
        Case(f"c{i:02d}", tuple(argv), expect, size)
        for i, (argv, size, expect) in enumerate(plan.items)
    ]


def repeat_share(cases) -> float:
    """Share of cases whose command and size repeat an earlier case."""
    seen = set()
    repeats = 0
    for case in cases:
        repeats += case.size in seen
        seen.add(case.size)
    return repeats / len(cases)


# ---------------------------------------------------------------------------
# lie-geometry: algebra construction, Cartan splits and ad(xi) blocks
# ---------------------------------------------------------------------------


def _lie_geometry(plan: _Plan) -> None:
    rng = plan.rng
    for n in range(5, 11):
        plan.add(["decompose", "--n", n, "--seed", plan.seed()], ("decompose", n))
    # Split involutions diag(1^p, -1^q); ip_scale 1.0 hits a known
    # StructureError in cartan_decompose and is kept so that it shows.
    for n in (6, 8):
        for scale in (0.5, 1.0, 2.0):
            p = rng.randint(1, n - 1)
            inv = [[(1.0 if i < p else -1.0) if i == j else 0.0 for j in range(n)]
                   for i in range(n)]
            path = plan.doc({"n": n, "ip_scale": scale, "p": inv})
            plan.add(["decompose", "--input", path, "--seed", plan.seed()],
                     ("decompose-input", n, p, scale))
    # Negative control: an orthogonal p that is not an involution.
    n = rng.randint(4, 6)
    angle = rng.uniform(0.3, 2.8)
    rot = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    rot[0][0] = rot[1][1] = math.cos(angle)
    rot[0][1], rot[1][0] = -math.sin(angle), math.sin(angle)
    path = plan.doc({"n": n, "p": rot})
    plan.add(["decompose", "--input", path], ("decompose-input", n, "rotation"), expect=2)
    for l in (4, 5, 6, 7, 8, 5, 6):
        plan.add(["oracle", "--mode", "group", "--l", l, "--samples", 2, "--seed", plan.seed()],
                 ("oracle-group", l, 2))
    for l, grid in ((4, 512), (4, 1024), (5, 512), (5, 1024), (6, 2048)):
        plan.add(["oracle", "--mode", "forms", "--l", l, "--grid", grid, "--seed", plan.seed()],
                 ("oracle-forms", l, grid))
    for grid in (16, 64):
        plan.add(["so9", "--grid", grid], ("so9", grid))


# ---------------------------------------------------------------------------
# spectral-truncation: mu-block eigensolves, traces, enumeration, austerity
# ---------------------------------------------------------------------------

# (cutoff, nu range): the cutoff grows with the frequency so that every mu
# case sits at a comparable truncation error; the last row has the
# smallest cutoff/nu ratio and so the smallest accuracy margin.
_MU_PLAN = tuple((c, (0.0025 * c, 0.003 * c)) for c in (200, 250, 300, 400, 500, 600)) + (
    (800, (2.8, math.pi)),)


def _spectral_data(rng: random.Random, total_nu: float, symmetric: bool) -> dict:
    """Two-frequency spectral_data whose frequencies sum to total_nu.

    Fixing the frequency sum fixes how many eigenvalues clear a value
    floor, so the enumeration cost does not depend on the seed.  Tangent
    eigenvalues come in +-lambda pairs; the asymmetric variant gives the
    positive member of the first pair one extra direction.
    """
    share = rng.uniform(0.3, 0.7)
    nus = [round(total_nu * share, 12), round(total_nu * (1.0 - share), 12)]
    mult, freq_mult, perp = [], [], [[0.0, 1]]
    for k, nu in enumerate(nus):
        lam = round(rng.uniform(0.1, 2.0), 12)
        a = rng.randint(1, 2)
        plus = a + (1 if k == 0 and not symmetric else 0)
        normal = rng.randint(1, 2)
        mult += [[nu, lam, plus], [nu, -lam, a]]
        perp.append([nu, normal])
        freq_mult.append([nu, plus + a + normal])
    kappa = round(rng.uniform(0.1, 2.0), 12)
    return {
        "freq_mult": freq_mult,
        "mult0": [[kappa, 1], [-kappa, 1]],
        "mult": mult,
        "perp": perp,
        "dim_m0": 3,
        "dim_k0": rng.randint(0, 4),
    }


def _spectral_truncation(plan: _Plan) -> None:
    rng = plan.rng
    for cutoff, (lo, hi) in _MU_PLAN:
        nu = rng.uniform(lo, hi)
        lam = rng.uniform(-2.0, 2.0)
        # "--opt=value" keeps a leading minus sign from reading as an option.
        plan.add(["oracle", "--mode", "mu", f"--nu={nu!r}", f"--lambda={lam!r}",
                  "--cutoff", cutoff, "--tol-rel", "1e-2"], ("oracle-mu", cutoff))
    for m_cut in (10000, 20000, 30000, 50000, 100000):
        path = plan.doc(_spectral_data(rng, 1.0, symmetric=True))
        plan.add(["trace", "--data", path, "--m-cut", m_cut], ("trace", m_cut))
    for floor, symmetric in (("1e-2", True), ("5e-3", True), ("3e-3", True), ("2e-3", True),
                             ("1e-3", True), ("1e-2", False), ("3e-3", False),
                             ("1e-3", False)):
        path = plan.doc(_spectral_data(rng, 2.0, symmetric))
        plan.add(["austere", "--data", path, "--value-floor", floor],
                 ("austere", floor, symmetric), expect=0 if symmetric else 1)
    for n_max, m_max in ((20, 20), (50, 50), (100, 20), (100, 100), (200, 200)):
        path = plan.doc(_spectral_data(rng, 1.5, symmetric=True))
        plan.add(["spectrum", "--data", path, "--format", "csv",
                  "--n-max", n_max, "--m-max", m_max], ("spectrum", n_max, m_max))
    for m, n in ((2, 2), (2, 3), (2, 4)):
        plan.add(["product-sphere", "--m", m, "--n", n, "--samples", 8, "--seed", plan.seed()],
                 ("product-sphere", m, n))
    # Negative control: three factors with random normals are not austere.
    for n in (2, 3):
        plan.add(["product-sphere", "--m", 3, "--n", n, "--samples", 8, "--seed", plan.seed()],
                 ("product-sphere", 3, n), expect=1)
    for n in (3, 4):
        a, b = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        normal = [a, -a, b, -b]
        rng.shuffle(normal)
        plan.add(["product-sphere", "--m", 4, "--n", n, "--normal=" + ",".join(map(repr, normal))],
                 ("product-sphere", 4, n))


# ---------------------------------------------------------------------------
# frame-transport: the RK4 frame ODE, gauge action and coset chart
# ---------------------------------------------------------------------------


def _frame_transport(plan: _Plan) -> None:
    for n in range(3, 9):
        plan.add(["transport", "--check", "order", "--n", n, "--seed", plan.seed()],
                 ("transport-order", n))
    # Grids start at 512: at 256 the worst residual is set by a single
    # random path and moved the accuracy margin by +-0.25 decades per seed.
    for n, grid, samples in ((3, 512, 2), (3, 768, 3), (4, 512, 3), (4, 1024, 2), (5, 512, 2),
                             (5, 768, 4), (6, 512, 2), (6, 1024, 5), (8, 768, 3), (8, 1024, 3)):
        plan.add(["transport", "--check", "equivariance", "--n", n, "--grid", grid,
                  "--samples", samples, "--seed", plan.seed()],
                 ("transport-equivariance", n, grid, samples))
    for n, grid in ((3, 256), (3, 512), (4, 256), (4, 512), (5, 256), (5, 768), (6, 256),
                    (6, 1024), (7, 512), (8, 1024)):
        plan.add(["transport", "--check", "fiber", "--n", n, "--grid", grid,
                  "--seed", plan.seed()], ("transport-fiber", n, grid))


_BUILDERS = {
    "lie-geometry": _lie_geometry,
    "spectral-truncation": _spectral_truncation,
    "frame-transport": _frame_transport,
}
