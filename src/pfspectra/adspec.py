"""Frequency decomposition of a Cartan pair under ad(xi).

For xi in m, the operator ad(xi) maps k to m and back, and -ad(xi)^2 is
symmetric positive semidefinite on each piece.  Its positive eigenvalues
nu^2 split k and m into matching blocks k_nu, m_nu of equal dimension,
linked by the isometry x -> -(1/nu)[xi, x].  This module computes the
frequencies nu, the kernel pieces k_0 and m_0, and orthonormal paired
bases (x_i, y_i) satisfying

    [xi, x_i] = -nu * y_i,      [xi, y_i] = nu * x_i.

Everything is derived from one singular value decomposition of ad(xi)
restricted to k -> m, so the pairing is exact up to floating point noise.
The decomposition runs on xi scaled by a power of two to norm about 1,
which is exact; the frequencies are scaled back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .liecore import CartanDecomposition, Subspace
from .spectra import cluster_indices

# Measured on n = 2..40 (last-axis, half and rotated half splits, four seeds):
# gaps of sigma / sigma_max within a frequency are below 1e-15, gaps between
# distinct frequencies above 1e-7.  The tolerance sits midway, in decades.
CLUSTER_REL_TOL = 1e-11
KERNEL_REL_TOL = 1e-8
XI_MEMBERSHIP_TOL = 1e-10
PAIRING_TOL = 1e-6


def _scaled_xi(cd: CartanDecomposition, xi: np.ndarray):
    """(xi * 2**s, s) with s = -round(log2 |xi|), after checking that xi is
    a nonzero vector of m.  At |xi| near 1e-160 the squared norms of
    brackets are subnormal and lose digits; at norm about 1 they do not."""
    alg = cd.algebra
    with np.errstate(over="ignore"):
        nrm = alg.norm(xi)
        if nrm in (0.0, np.inf) and xi.any() and np.isfinite(xi).all():
            # The squared norm underflowed or overflowed: take the norm of xi
            # scaled exactly by a power of two from its largest entry, then
            # scale it back.
            e = -math.frexp(np.abs(xi).max())[1]
            nrm = float(np.ldexp(alg.norm(np.ldexp(xi, e)), -e))
    if not 0.0 < nrm < np.inf:
        raise DomainError(f"xi must have a finite nonzero norm, got {nrm:.3e}")
    s = -round(math.log2(nrm))
    xi = np.ldexp(xi, s)
    nrm = alg.norm(xi)
    leak = alg.norm(xi - cd.m.project_coords(xi))
    if leak > XI_MEMBERSHIP_TOL * nrm:
        raise DomainError(f"xi is not in m (relative residual {leak / nrm:.3e})")
    return xi, s


def _ad_block(cd: CartanDecomposition, xi: np.ndarray) -> np.ndarray:
    """Matrix of ad(xi): k -> m in the orthonormal bases of cd."""
    alg = cd.algebra
    images = alg.ad_matrix(xi) @ cd.k.basis.T  # columns: [xi, k_b] in algebra coords
    return alg.inner(cd.m.basis, images.T)


def _cluster(sigma: np.ndarray, xi_norm: float):
    """Group singular values into frequency clusters, nu descending; fold tiny ones into 0."""
    kernel_cut = KERNEL_REL_TOL * xi_norm
    near = [s for s in sigma if kernel_cut < s <= 10 * kernel_cut]
    if near:
        warnings.warn(
            f"{len(near)} singular value(s) within a decade of the kernel cutoff; "
            "frequency multiplicities may be unstable",
            stacklevel=3,
        )
    # Scanned in descending order; the order of equal values fixes the
    # order of each block's basis vectors.  Clustered as sigma / sigma_max,
    # so the tolerance is relative to the largest frequency at every scale.
    order = np.argsort(sigma)[::-1]
    order = order[sigma[order] > kernel_cut]
    groups = cluster_indices(-sigma[order] / sigma.max(initial=kernel_cut), CLUSTER_REL_TOL)
    return [(float(np.mean(sigma[order[g]])), order[g]) for g in groups]


@dataclass(frozen=True)
class FrequencyBlock:
    """One frequency nu with matched orthonormal bases of k_nu and m_nu."""

    nu: float
    x_basis: np.ndarray  # (mult, dim) rows spanning k_nu
    y_basis: np.ndarray  # (mult, dim) rows spanning m_nu, y_i = -(1/nu)[xi, x_i]

    @property
    def mult(self) -> int:
        return len(self.x_basis)


@dataclass(frozen=True)
class AdEigenstructure:
    """Full frequency data of ad(xi) for a Cartan pair."""

    cd: CartanDecomposition
    xi: np.ndarray  # (dim,) coordinates
    blocks: tuple  # FrequencyBlock, nu descending
    k0_basis: np.ndarray  # (dim_k0, dim) rows spanning ker ad(xi) in k
    m0_basis: np.ndarray  # (dim_m0, dim) rows spanning ker ad(xi) in m
    xi_norm: float  # |xi|, computed at norm about 1 and scaled back

    @property
    def dim_k0(self) -> int:
        return len(self.k0_basis)

    @property
    def dim_m0(self) -> int:
        return len(self.m0_basis)

    def frequency_multiplicities(self):
        return [(b.nu, b.mult) for b in self.blocks]


def paired_bases(cd: CartanDecomposition, xi: np.ndarray) -> AdEigenstructure:
    """Orthonormal paired bases for every frequency block of ad(xi)."""
    xi = np.asarray(xi, dtype=float)
    unit_xi, s = _scaled_xi(cd, xi)
    alg = cd.algebra
    c = _ad_block(cd, unit_xi)
    dim_m, dim_k = c.shape
    if min(dim_m, dim_k) == 0:
        u, sigma, vt = np.eye(dim_m), np.zeros(0), np.eye(dim_k)
    else:
        u, sigma, vt = np.linalg.svd(c, full_matrices=True)
    unit_norm = alg.norm(unit_xi)
    clusters = _cluster(sigma, unit_norm)

    blocks = []
    for nu, idxs in clusters:
        xs = vt[idxs] @ cd.k.basis
        imgs = alg.bracket(unit_xi, xs)
        norms = alg.norm(imgs)
        scale = norms / nu
        worst = np.argmax(np.abs(scale - 1.0))
        nu = math.ldexp(nu, -s)
        if abs(scale[worst] - 1.0) > PAIRING_TOL:
            raise StructureError(
                f"pairing failed at nu={nu:.6g}: |[xi,x]|/nu = {scale[worst]:.8f} "
                "(cluster tolerance may have merged distinct frequencies)"
            )
        ys = -imgs / norms[:, None]
        # The y's must come out orthonormal; anything else means the block
        # does not behave like a symmetric-pair eigenspace.
        Subspace(alg, ys)  # raises unless orthonormal
        blocks.append(FrequencyBlock(nu, xs, ys))

    used = {j for _, idxs in clusters for j in idxs}
    k0 = vt[[j for j in range(dim_k) if j not in used]] @ cd.k.basis
    m0 = u[:, [j for j in range(dim_m) if j not in used]].T @ cd.m.basis

    # Completeness: blocks plus kernels must exhaust k and m.
    total_k = sum(b.mult for b in blocks) + len(k0)
    total_m = sum(b.mult for b in blocks) + len(m0)
    if total_k != cd.k.dim or total_m != cd.m.dim:
        raise StructureError(
            f"frequency blocks do not exhaust the pair: k {total_k}/{cd.k.dim}, "
            f"m {total_m}/{cd.m.dim}"
        )
    return AdEigenstructure(cd, xi, tuple(blocks), k0, m0, math.ldexp(unit_norm, -s))
