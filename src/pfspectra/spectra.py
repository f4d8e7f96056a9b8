"""Closed-form eigenvalue families and regularized traces.

The shape operator of the path-space preimage of a curvature-adapted base
submanifold has four kinds of principal curvature families, held by
``PrincipalSpectrum`` as rows of plain numbers:

* 0, with infinite multiplicity (always present, so it has no rows);
* ``lambdas`` (lambda, mult) -- base eigenvalues carried by ad-kernel
  tangent directions;
* ``harmonics`` (nu, mult) -- nu/(n*pi) for n in Z\\{0}, from normal-space
  frequency blocks;
* ``mus`` (nu, lambda, mult) -- mu(nu, lambda, m) = nu / (arctan(nu/lambda)
  + m*pi) for m in Z, from tangent frequency blocks.  The values and both
  traces read one angle, in its principal branch, so negating lambda
  negates a family and its zeta trace terms bit for bit.

The finite-dimensional group-level picture replaces each (nu, lambda) block
by the pair kappa_pm = (lambda +- sqrt(lambda^2 + nu^2)) / 2.

Regularized traces: the symmetric partial sums of each mu family converge
to lambda (cotangent identity), and the zeta-style trace reduces per family
to Hurwitz zeta differences whose s -> 1 limit is again lambda by the
digamma reflection formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError, StructureError

VALUE_MERGE_TOL = 1e-12
CLUSTER_TOL = 1e-9  # default eigenvalue clustering of the austere checks
# Largest enumeration (rows or (value, mult) pairs) and trace sum (terms
# over all mu families) one call may ask for; each is counted in closed
# form before anything is allocated.
MAX_ENUMERATED_ROWS = 200_000
MAX_TRACE_TERMS = 4_000_000
# Most zeta trace probes; extrapolate_to_one's Neville table costs
# O(probes^2), one array expression per level.  Xeon, one BLAS thread, on a
# one-family document: the table takes 5 ms for 1000 probes and 23 ms for
# 3000, and `trace` with 1000 probes 0.02 s.
MAX_TRACE_PROBES = 1000
# Up to this many values the clusterer's in-order scan costs less than its
# array form.  Xeon, numpy 2.4, best of 5 x 2000 calls on sorted uniform
# values, distinct or in triples: the scan takes 13-19 us at 64 values and
# 19 us at 96, the array form 18-20 us at both and at 128, where the scan
# takes 26 us.
_SCAN_MAX = 96


def check_work(what: str, count: float, limit: int) -> None:
    if not count <= limit:
        raise DomainError(f"{what} asks for {count:.3g} entries, more than the limit of {limit}")


def mu(nu: float, lam: float, m):
    """Eigenvalue mu(nu, lambda, m) = nu / (arctan(nu/lambda) + m*pi).

    The arctangent is ``_mu_angle``'s: the principal branch, with
    arctan(nu/0) := pi/2.  For lambda = 0 the negation symmetry acts by
    m -> -m - 1 on the index; for lambda != 0 it is
    -mu(nu, lam, m) == mu(nu, -lam, -m), bit for bit.  An integer array m
    gives the array of values, each bit for bit the scalar one.
    """
    if nu <= 0:
        raise DomainError(f"frequency nu must be positive, got {nu}")
    return nu / (_mu_angle(nu, lam) + m * math.pi)


def kappa(nu: float, lam: float):
    """Group-level eigenvalue pair (kappa_plus, kappa_minus) for a block.

    kappa_pm = (lam +- sqrt(lam^2 + nu^2)) / 2; their product is -nu^2/4.
    Where the root overflows, lam and nu are large enough that halving them
    is exact, and the pair is lam/2 +- hypot(lam/2, nu/2); kappa_plus is inf
    only where it exceeds the largest float.
    """
    if nu <= 0:
        raise DomainError(f"frequency nu must be positive, got {nu}")
    root = math.hypot(lam, nu)
    if math.isinf(root):
        half = math.hypot(lam / 2.0, nu / 2.0)
        return lam / 2.0 + half, lam / 2.0 - half
    return _half_sum(lam, root), _half_sum(lam, -root)


def _half_sum(a: float, b: float) -> float:
    """(a + b) / 2, halving each term first where a + b overflows: both are
    large then, so halving is exact and the rounded result the same."""
    total = a + b
    return total / 2.0 if math.isfinite(total) else a / 2.0 + b / 2.0


# ---------------------------------------------------------------------------
# Spectral data of the base submanifold
# ---------------------------------------------------------------------------


def _group_starts(v: np.ndarray, tol: float):
    """Start positions of the groups of the ascending values v.

    A value joins the current group while v - head <= tol * max(1, |head|),
    head being the group's first value.  That rule is an in-order scan, run
    as written on short inputs and on inputs with a non-finite end.  Longer
    ones are proposed groups by one searchsorted on v + bound, cut where no
    earlier value reaches past; each group is then checked against the rule
    (its last value joins its head, the next value does not).  The rounded
    difference is monotone in v, so when every group passes, the starts are
    the scan's and come as an index array; otherwise the scan runs and
    returns them as a list.
    """
    n = len(v)
    if n > _SCAN_MAX and math.isfinite(v[0]) and math.isfinite(v[-1]):
        ends = np.searchsorted(v, v + tol * np.maximum(1.0, np.abs(v)), side="right")
        cuts = np.flatnonzero(np.maximum.accumulate(ends) == np.arange(1, n + 1)) + 1
        starts = np.concatenate(([0], cuts[:-1]))
        head = v[starts]
        room = tol * np.maximum(1.0, np.abs(head))
        # a difference past the float range is inf, which no group joins
        with np.errstate(over="ignore"):
            joins = v[cuts - 1] - head <= room
            parts = (cuts == n) | ~(v[np.minimum(cuts, n - 1)] - head <= room)
        if (joins & parts).all():
            return starts
    starts = []
    for i, x in enumerate(v.tolist()):
        if not starts or not x - head <= tol * max(1.0, abs(head)):
            head = x
            starts.append(i)
    return starts


def cluster_indices(values, tol: float):
    """Index groups of nearly equal values, in ascending value order.

    The values are sorted, and each one joins the current group while
    |v - head| <= tol * max(1, |head|), where head is the group's first
    (smallest) value; otherwise it starts a new group.  Callers pick each
    group's representative themselves.
    """
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals, kind="stable")
    bounds = [*_group_starts(vals[order], tol), len(vals)]
    order = order.tolist()
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class EigenMultiset:
    """Distinct eigenvalues with positive integer multiplicities."""

    entries: tuple  # ((value, mult), ...) sorted by value

    @classmethod
    def from_pairs(cls, pairs, tol: float = CLUSTER_TOL) -> "EigenMultiset":
        """Cluster (value, mult) pairs; no multiplicity is expanded.

        Values group by ``cluster_indices`` and each group's multiplicities
        add up, as exact integers.  A group of equal values (a single pair
        included) keeps that value exactly; any other group takes the
        multiplicity-weighted mean.
        """
        columns = tuple(zip(*pairs))
        if not columns:
            return cls(())
        values, mults = columns
        mults = list(map(int, mults))
        if min(mults) < 1:
            raise DomainError("multiplicities must be positive")
        vals = np.array(values, dtype=float)
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        starts = np.asarray(_group_starts(v, tol))
        stops = np.append(starts[1:], len(v))
        # int64 sums while no sum can overflow, Python ints beyond that.
        exact = np.int64 if max(mults) * len(mults) < 2**63 else object
        m = np.array(mults, dtype=exact)[order]
        value = v[starts]
        mixed = np.flatnonzero(value != v[stops - 1])
        for g, a, b in zip(mixed.tolist(), starts[mixed].tolist(), stops[mixed].tolist()):
            # Weights scaled to at most 1 cannot overflow, and equal weights
            # give the plain mean bit for bit.
            w = m[a:b].astype(float)
            value[g] = np.average(v[a:b], weights=w / w.max())
        return cls(tuple(zip(value.tolist(), np.add.reduceat(m, starts).tolist())))


@dataclass(frozen=True)
class SubmanifoldSpectralData:
    """Multiplicity bookkeeping for a curvature-adapted base submanifold.

    ``freq_mult`` lists the positive ad-frequencies with their total
    multiplicities m(nu); ``mult0`` maps lambda -> m(0, lambda) (ad-kernel
    tangent directions), ``mult`` maps (nu, lambda) -> m(nu, lambda), and
    ``perp`` maps nu (including 0) -> m(nu, perp) for normal directions.
    A frequency appears at most once in ``freq_mult`` and in ``perp``, and
    every positive frequency of ``mult`` and ``perp`` is in ``freq_mult``.
    """

    freq_mult: tuple  # ((nu, m(nu)), ...) nu > 0 descending
    mult0: tuple  # ((lambda, mult), ...)
    mult: tuple  # ((nu, lambda, mult), ...)
    perp: tuple  # ((nu, mult), ...) including nu = 0
    dim_m0: int
    dim_k0: int

    def __post_init__(self):
        for name, rows in (("freq_mult", self.freq_mult), ("perp", self.perp)):
            nus = sorted(nu for nu, _ in rows)
            repeated = [a for a, b in zip(nus, nus[1:]) if a == b]
            if repeated:
                raise DomainError(f"{name} lists frequency nu={repeated[0]:.6g} more than once")
        freq = {nu: m for nu, m in self.freq_mult}
        if any(nu <= 0 for nu in freq):
            raise DomainError("freq_mult must only contain positive frequencies")
        perp = dict(self.perp)
        unlisted = {nu for nu, _, _ in self.mult} | {nu for nu in perp if nu != 0.0}
        unlisted -= freq.keys()
        if unlisted:
            raise StructureError(f"block nu={min(unlisted):.6g} has no freq_mult entry")
        tangent_by_nu = {}
        for nu, lam, m in self.mult:
            if m < 0:
                raise DomainError("multiplicities must be nonnegative")
            tangent_by_nu[nu] = tangent_by_nu.get(nu, 0) + m
        for nu, m in freq.items():
            total = tangent_by_nu.get(nu, 0) + perp.get(nu, 0)
            if total != m:
                raise StructureError(
                    f"block nu={nu:.6g}: tangent {tangent_by_nu.get(nu, 0)} + perp "
                    f"{perp.get(nu, 0)} != m(nu) = {m}"
                )
        total0 = sum(m for _, m in self.mult0) + perp.get(0.0, 0)
        if total0 != self.dim_m0:
            raise StructureError(
                f"kernel block: tangent {sum(m for _, m in self.mult0)} + perp "
                f"{perp.get(0.0, 0)} != dim m_0 = {self.dim_m0}"
            )

    @classmethod
    def from_maps(cls, freq_mult, mult0, mult, perp, dim_m0, dim_k0):
        return cls(
            tuple(sorted(((float(n), int(m)) for n, m in freq_mult), reverse=True)),
            tuple(sorted((float(l), int(m)) for l, m in mult0)),
            tuple(sorted((float(n), float(l), int(m)) for n, l, m in mult)),
            tuple(sorted((float(n), int(m)) for n, m in perp)),
            int(dim_m0),
            int(dim_k0),
        )

    @classmethod
    def sphere_like(cls, nu, lam_mults, codim, dim_k0):
        """Rank-one data: single frequency, all tangent directions at that nu.

        ``lam_mults`` lists (lambda, mult) of the base shape operator; the
        normal space contributes one ad-kernel direction (the normal xi
        itself) plus codim - 1 frequency-nu directions.
        """
        if codim < 1:
            raise DomainError("codimension must be at least 1")
        lam_mults = EigenMultiset.from_pairs(lam_mults, VALUE_MERGE_TOL).entries
        m_nu = sum(m for _, m in lam_mults) + (codim - 1)
        return cls.from_maps(
            freq_mult=[(nu, m_nu)],
            mult0=[],
            mult=[(nu, lam, m) for lam, m in lam_mults],
            perp=[(0.0, 1), (nu, codim - 1)],
            dim_m0=1,
            dim_k0=dim_k0,
        )


# ---------------------------------------------------------------------------
# Eigenvalue families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalSpectrum:
    """The full principal-curvature spectrum: 0, which is implicit, and the
    rows of each other family kind, as the module docstring lists them."""

    lambdas: tuple = ()
    harmonics: tuple = ()
    mus: tuple = ()

    def __post_init__(self):
        for row in (*self.lambdas, *self.harmonics, *self.mus):
            if row[-1] < 1:
                raise DomainError("families must have multiplicity >= 1")

    def to_json(self) -> dict:
        return {"families": [
            {"kind": "zero"},
            *({"kind": "lambda", "lambda": lam, "mult": m} for lam, m in self.lambdas),
            *({"kind": "harmonic", "nu": nu, "mult": m} for nu, m in self.harmonics),
            *({"kind": "mu", "nu": nu, "lambda": lam, "mult": m} for nu, lam, m in self.mus),
        ]}


def assemble_pf_spectrum(data: SubmanifoldSpectralData) -> PrincipalSpectrum:
    """Principal curvatures of the path-space preimage from block data.

    Zero always appears (infinite multiplicity).  Each ad-kernel tangent
    eigenvalue lambda survives as-is with multiplicity m(0, lambda); each
    frequency block contributes a harmonic family on its normal part and a
    mu family per tangent eigenvalue.
    """
    return PrincipalSpectrum(
        tuple((lam, m) for lam, m in data.mult0 if m > 0),
        tuple((nu, m) for nu, m in data.perp if nu > 0 and m > 0),
        tuple((nu, lam, m) for nu, lam, m in data.mult if m > 0),
    )


def assemble_group_spectrum(data: SubmanifoldSpectralData) -> EigenMultiset:
    """Finite spectrum of the group-level preimage: {0, lambda, kappa_pm}.

    The multiplicity of 0 counts the zero-modes inside the tangent space
    k + T N: dim k_0 plus one normal frequency direction per block (the
    paired x-partners of normal y's).  Ad-kernel normal directions are not
    tangent to the preimage and therefore contribute nothing.
    """
    pairs = []
    zero_mult = data.dim_k0 + sum(m for nu, m in data.perp if nu > 0)
    if zero_mult > 0:
        pairs.append((0.0, zero_mult))
    for lam, m in data.mult0:
        if m > 0:
            pairs.append((lam, m))
    for nu, lam, m in data.mult:
        if m > 0:
            kp, km = kappa(nu, lam)
            pairs.append((kp, m))
            pairs.append((km, m))
    return EigenMultiset.from_pairs(pairs, VALUE_MERGE_TOL)


# ---------------------------------------------------------------------------
# Series and traces
# ---------------------------------------------------------------------------


def cot_series(a: float, n_terms: int):
    """Partial and closed form of sum_{n>=1} 1/(n^2 - a^2).

    The closed form is 1/(2a^2) - (pi/(2a)) * cot(pi*a); integer a is a pole.
    Half-integer a makes the cotangent vanish exactly and is handled exactly.
    """
    if a == round(a):
        raise PoleError(f"cot series has a pole at integer a = {a}")
    if n_terms < 1:
        raise DomainError("need at least one term")
    n = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(1.0 / (n * n - a * a)))
    two_a = 2.0 * a
    if two_a == round(two_a):  # half-integer: cot(pi*a) = 0 exactly
        closed = 1.0 / (2.0 * a * a)
    else:
        closed = 1.0 / (2.0 * a * a) - (math.pi / (2.0 * a)) / math.tan(math.pi * a)
    return partial, closed


def _mu_angle(nu: float, lam: float) -> float:
    """phi = arctan(nu/lambda) in its principal branch, pi/2 at lambda = 0."""
    phi = math.pi / 2 if lam == 0 else math.atan(nu / lam)
    if not abs(phi) > 0.0:  # nan, or an angle that underflows to +-0
        raise DomainError(f"arctan(nu/lambda) is not in (0, pi) at nu = {nu:g}, lambda = {lam:g}")
    return phi


def r_trace(spectrum: PrincipalSpectrum, m_cut: int):
    """Symmetrized trace: pair each eigenvalue with its reflected partner.

    Returns (partial, limit_estimate).  ``partial`` sums the lambda families
    exactly plus each mu family over |m| <= m_cut; harmonic families cancel
    exactly.  ``limit_estimate`` replaces every mu partial sum with its
    analytic limit lambda (cotangent identity), so it equals the trace of
    the base shape operator.  Each mu family sums ``mu(nu, lam, m)`` over
    |m| <= m_cut, and for lambda < 0 over m = 1 - m_cut..m_cut + 1: that
    is |m| <= m_cut for the angle arctan(nu/lambda) + pi, taken in (0, pi).
    """
    if m_cut < 0:
        raise DomainError("m_cut must be nonnegative")
    check_work("trace sum", (2 * m_cut + 1) * len(spectrum.mus), MAX_TRACE_TERMS)
    partial = 0.0
    limit = 0.0
    for lam, mult in spectrum.lambdas:
        partial += lam * mult
        limit += lam * mult
    for nu, lam, mult in spectrum.mus:
        shift = int(lam < 0)
        ms = np.arange(shift - m_cut, shift + m_cut + 1, dtype=float)
        # an overflow reaches the report as inf or nan, which the report refuses
        with np.errstate(over="ignore", invalid="ignore"):
            partial += mult * float(np.sum(mu(nu, lam, ms)))
        limit += lam * mult
    return partial, limit


def zeta_trace(spectrum: PrincipalSpectrum, s_probes):
    """Zeta-regularized trace probes sum(pos^s) - sum(|neg|^s) per s.

    Harmonic families cancel exactly.  With f = arctan(nu/lambda)/pi from
    ``_mu_angle`` and b = 1 if lambda < 0 else 0, a mu family's positive
    values are nu/pi / (f + b + k) and its negative ones -nu/pi / (1 - b -
    f + k), k >= 0, so it reduces to the Hurwitz zeta difference
    (nu/pi)^s * [zeta_H(s, f + b) - zeta_H(s, 1 - b - f)]; as s -> 1 this
    tends to nu*cot(pi f) = lambda by the digamma reflection formula.  Both
    arguments are positive, and negating lambda swaps them exactly.
    """
    if len(s_probes) > MAX_TRACE_PROBES:
        raise DomainError(f"trace takes at most {MAX_TRACE_PROBES} probes, got {len(s_probes)}")
    import scipy.special

    values = []
    for s in s_probes:
        if s <= 1:
            raise DomainError(f"zeta trace probes need s > 1, got {s}")
        total = 0.0
        try:
            for lam, mult in spectrum.lambdas:
                if lam != 0.0:
                    total += math.copysign(abs(lam) ** s, lam) * mult
            for nu, lam, mult in spectrum.mus:
                frac, below = _mu_angle(nu, lam) / math.pi, float(lam < 0)
                # Python floats: inf - inf is a silent nan, refused by the report.
                diff = (float(scipy.special.zeta(s, frac + below))
                        - float(scipy.special.zeta(s, (1.0 - below) - frac)))
                total += mult * (nu / math.pi) ** s * diff
        except OverflowError:
            raise DomainError(f"zeta trace probe s={s!r} overflows a float") from None
        values.append(total)
    return values


def extrapolate_to_one(s_probes, values) -> float:
    """Neville extrapolation of trace probes to s = 1, a table level at a time."""
    xs = [s - 1.0 for s in s_probes]
    tab = np.array(values, dtype=float)
    if tab.size == 0:
        raise DomainError("need at least one probe")
    # Neville divides by differences of s - 1: equal probes share it, and so
    # can distinct ones above 2**53, where s - 1 rounds.
    seen = {}
    for s, x in zip(s_probes, xs):
        if x in seen:
            raise DomainError(f"trace probes s={seen[x]!r} and s={s!r} give the same s - 1")
        seen[x] = s
    xs = np.array(xs, dtype=float)
    # Non-finite entries spread silently, as in Python floats; the report refuses them.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(1, len(tab)):
            tab = tab[1:] + (tab[1:] - tab[:-1]) * xs[level:] / (xs[:-level] - xs[level:])
    return float(tab[0])


def mu_eigenfunction_coeffs(nu: float, lam: float, m: int, n_max: int):
    """Fourier coefficients of the mu(nu, lam, m) eigenfunction.

    With the constant-component normalization c = 1, the sine and cosine
    coefficients for mode n are

        b_n = -2 r^2 / (n^2 - r^2),     a_n = -n*pi*b_n*mu/nu,

    where r = nu / (pi * mu(nu, lam, m)).  Returns (c, a, b) with a, b
    indexed by n = 1..n_max.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    val = mu(nu, lam, m)
    if val == 0.0:
        raise DomainError(f"mu({nu:.3g}, {lam:.3g}, {m}) underflows to 0; it has no eigenfunction")
    # r = phi/pi + m is moderate, but pi * mu can overflow near the float limit
    scaled = math.pi * val
    r = nu / scaled if math.isfinite(scaled) else nu / math.pi / val
    if abs(r - round(r)) < 1e-12:
        raise PoleError(f"resonant index r = {r} (integer); coefficients blow up")
    n = np.arange(1, n_max + 1, dtype=float)
    b = -2.0 * r * r / (n * n - r * r)
    a = -n * math.pi * b * val / nu
    return 1.0, a, b


# ---------------------------------------------------------------------------
# Enumeration (shared by the austere checker and the CSV export)
# ---------------------------------------------------------------------------


class SpectrumRow(NamedTuple):
    family: str
    index: int | None
    value: float
    mult: object  # int or the string "inf"


def enumerate_rows(spectrum: PrincipalSpectrum, n_max: int, m_max: int):
    """Concrete eigenvalue rows with harmonic |n| <= n_max, mu |m| <= m_max.

    Rows are sorted by |value| descending; the zero family appears last with
    symbolic multiplicity "inf".
    """
    if n_max < 0 or m_max < 0:
        raise DomainError("enumeration windows must be nonnegative")
    count = (1 + len(spectrum.lambdas) + 2 * n_max * len(spectrum.harmonics)
             + (2 * m_max + 1) * len(spectrum.mus))
    check_work("enumeration window", count, MAX_ENUMERATED_ROWS)
    # Index ranges only for the families present: a window on an absent
    # family costs nothing, however wide.
    n_max *= bool(spectrum.harmonics)
    m_max *= bool(spectrum.mus)
    ns = np.concatenate((np.arange(-n_max, 0), np.arange(1, n_max + 1)))
    ms = np.arange(-m_max, m_max + 1)
    rows = [SpectrumRow("lambda", None, lam, mult) for lam, mult in spectrum.lambdas]
    for nu, mult in spectrum.harmonics:
        values = nu / (ns * math.pi)
        rows += map(SpectrumRow, repeat("harmonic"), ns.tolist(), values.tolist(), repeat(mult))
    for nu, lam, mult in spectrum.mus:
        # A value past the float range becomes inf; the CLI refuses to print it.
        with np.errstate(over="ignore"):
            values = mu(nu, lam, ms)
        rows += map(SpectrumRow, repeat("mu"), ms.tolist(), values.tolist(), repeat(mult))
    if rows:
        # A stable sort on the key (-|value|, family, index or 0).
        families, indices, values, _ = zip(*rows)
        order = np.lexsort(([i or 0 for i in indices], families, -np.abs(values)))
        rows = [rows[k] for k in order.tolist()]
    rows.append(SpectrumRow("zero", None, 0.0, "inf"))
    return rows


def enumerate_by_floor(spectrum: PrincipalSpectrum, value_floor: float):
    """All eigenvalues with |value| >= value_floor, with multiplicities.

    A magnitude window is symmetric under negation, so restricting a
    negation-invariant spectrum this way stays negation-invariant -- unlike
    index windows, whose boundary rows can lack partners (the lambda = 0 mu
    family pairs m with -m-1).  Pairs come family by family: lambdas,
    harmonics (n = 1, 2, ... with +n before -n), then each mu family from
    m = 0 upwards and from m = -1 downwards, each run ending at its first
    value below the floor.
    """
    if value_floor <= 0:
        raise DomainError("value_floor must be positive")
    # A family has at most one value of magnitude >= floor (zero included),
    # plus 2 nu / (pi floor) more if it is a harmonic or mu family.
    nus = [nu for nu, _ in spectrum.harmonics] + [nu for nu, _, _ in spectrum.mus]
    count = 1 + len(spectrum.lambdas) + len(nus) + sum(
        2.0 * nu / (math.pi * value_floor) for nu in nus
    )
    check_work("value floor", count, MAX_ENUMERATED_ROWS)
    pairs = [(lam, mult) for lam, mult in spectrum.lambdas if abs(lam) >= value_floor]
    for nu, mult in spectrum.harmonics:
        n = np.arange(1, math.floor(nu / (math.pi * value_floor)) + 1)
        plus = nu / (n * math.pi)
        # nu / (-n pi) is the exact negative of nu / (n pi).
        pairs += zip(np.column_stack((plus, -plus)).ravel().tolist(), repeat(mult))
    for nu, lam, mult in spectrum.mus:
        # |phi + m pi| > (|m| - 1) pi: at |m| = reach the value is a whole
        # step below the floor, so both runs stop inside these indices.
        reach = math.floor(nu / (math.pi * value_floor)) + 3
        for m in (np.arange(0, reach + 1), np.arange(-1, -reach - 1, -1)):
            values = mu(nu, lam, m)
            run = int(np.argmin(np.abs(values) >= value_floor))
            pairs += zip(values[:run].tolist(), repeat(mult))
    return pairs
