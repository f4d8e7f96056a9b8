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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .liecore import CartanDecomposition, Element, Subspace
from .spectra import cluster_indices

CLUSTER_REL_TOL = 1e-6
KERNEL_REL_TOL = 1e-8
XI_MEMBERSHIP_TOL = 1e-10
PAIRING_TOL = 1e-6


def _check_xi(cd: CartanDecomposition, xi: Element) -> None:
    if xi.algebra is not cd.algebra:
        raise DomainError("xi belongs to a different algebra")
    nrm = xi.norm()
    if nrm == 0.0:
        raise DomainError("xi must be nonzero")
    resid = xi.coords - cd.m.project_coords(xi.coords)
    leak = np.sqrt(max(cd.algebra.inner_coords(resid, resid), 0.0))
    if leak > XI_MEMBERSHIP_TOL * nrm:
        raise DomainError(f"xi is not in m (relative residual {leak / nrm:.3e})")


def _ad_block(cd: CartanDecomposition, xi: Element) -> np.ndarray:
    """Matrix of ad(xi): k -> m in the orthonormal bases of cd."""
    alg = cd.algebra
    admat = alg.ad_matrix(xi)
    images = admat @ cd.k.basis.T  # columns: [xi, k_b] in algebra coords
    return cd.m.basis @ alg.gram @ images


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
    # order of each block's basis vectors.
    order = np.argsort(sigma)[::-1]
    order = order[sigma[order] > kernel_cut]
    groups = cluster_indices(-sigma[order], CLUSTER_REL_TOL)
    return [(float(np.mean(sigma[order[g]])), order[g]) for g in groups]


@dataclass(frozen=True)
class FrequencyBlock:
    """One frequency nu with matched orthonormal bases of k_nu and m_nu."""

    nu: float
    x_basis: tuple  # Elements of k_nu
    y_basis: tuple  # Elements of m_nu, y_i = -(1/nu)[xi, x_i]

    @property
    def mult(self) -> int:
        return len(self.x_basis)


@dataclass(frozen=True)
class AdEigenstructure:
    """Full frequency data of ad(xi) for a Cartan pair."""

    cd: CartanDecomposition
    xi: Element
    blocks: tuple  # FrequencyBlock, nu descending
    k0_basis: tuple  # Elements spanning ker ad(xi) in k
    m0_basis: tuple  # Elements spanning ker ad(xi) in m

    @property
    def frequencies(self):
        return [b.nu for b in self.blocks]

    @property
    def dim_k0(self) -> int:
        return len(self.k0_basis)

    @property
    def dim_m0(self) -> int:
        return len(self.m0_basis)

    def multiplicity(self, nu: float, tol: float = 1e-9) -> int:
        for b in self.blocks:
            if abs(b.nu - nu) <= tol * max(1.0, abs(nu)):
                return b.mult
        return 0

    def frequency_multiplicities(self):
        return [(b.nu, b.mult) for b in self.blocks]

    def to_json(self) -> dict:
        return {
            "xi": list(self.xi.coords),
            "blocks": [
                {
                    "nu": b.nu,
                    "x_basis": [list(x.coords) for x in b.x_basis],
                    "y_basis": [list(y.coords) for y in b.y_basis],
                }
                for b in self.blocks
            ],
            "k0_basis": [list(x.coords) for x in self.k0_basis],
            "m0_basis": [list(y.coords) for y in self.m0_basis],
        }

    @classmethod
    def from_json(cls, cd: CartanDecomposition, data: dict) -> "AdEigenstructure":
        alg = cd.algebra
        blocks = tuple(
            FrequencyBlock(
                float(b["nu"]),
                tuple(alg.element(v) for v in b["x_basis"]),
                tuple(alg.element(v) for v in b["y_basis"]),
            )
            for b in data["blocks"]
        )
        return cls(
            cd,
            alg.element(data["xi"]),
            blocks,
            tuple(alg.element(v) for v in data["k0_basis"]),
            tuple(alg.element(v) for v in data["m0_basis"]),
        )


def frequency_spectrum(cd: CartanDecomposition, xi: Element):
    """Distinct frequencies nu > 0 of ad(xi) with multiplicities, nu descending."""
    _check_xi(cd, xi)
    c = _ad_block(cd, xi)
    sigma = np.linalg.svd(c, compute_uv=False) if min(c.shape) else np.zeros(0)
    return [(nu, len(ix)) for nu, ix in _cluster(sigma, xi.norm())]


def paired_bases(cd: CartanDecomposition, xi: Element) -> AdEigenstructure:
    """Orthonormal paired bases for every frequency block of ad(xi)."""
    _check_xi(cd, xi)
    alg = cd.algebra
    c = _ad_block(cd, xi)
    dim_m, dim_k = c.shape
    if min(dim_m, dim_k) == 0:
        u, sigma, vt = np.eye(dim_m), np.zeros(0), np.eye(dim_k)
    else:
        u, sigma, vt = np.linalg.svd(c, full_matrices=True)
    xi_norm = xi.norm()
    clusters = _cluster(sigma, xi_norm)

    blocks = []
    used = set()
    for nu, idxs in clusters:
        xs, ys = [], []
        for j in idxs:
            used.add(j)
            x_coords = vt[j] @ cd.k.basis
            x = alg.element(x_coords)
            img = Element(alg, alg.bracket_coords(xi.coords, x_coords))
            scale = img.norm() / nu
            if abs(scale - 1.0) > PAIRING_TOL:
                raise StructureError(
                    f"pairing failed at nu={nu:.6g}: |[xi,x]|/nu = {scale:.8f} "
                    "(cluster tolerance may have merged distinct frequencies)"
                )
            ys.append(Element(alg, -img.coords / img.norm()))
            xs.append(x)
        # The y's must come out orthonormal; anything else means the block
        # does not behave like a symmetric-pair eigenspace.
        ymat = np.array([y.coords for y in ys])
        gram = ymat @ alg.gram @ ymat.T
        if np.abs(gram - np.eye(len(ys))).max() > 1e-8:
            raise StructureError(f"paired basis at nu={nu:.6g} is not orthonormal")
        blocks.append(FrequencyBlock(nu, tuple(xs), tuple(ys)))

    k0 = [alg.element(vt[j] @ cd.k.basis) for j in range(dim_k) if j not in used]
    m0 = [alg.element(u[:, j] @ cd.m.basis) for j in range(dim_m) if j not in used]

    # Completeness: blocks plus kernels must exhaust k and m.
    total_k = sum(b.mult for b in blocks) + len(k0)
    total_m = sum(b.mult for b in blocks) + len(m0)
    if total_k != cd.k.dim or total_m != cd.m.dim:
        raise StructureError(
            f"frequency blocks do not exhaust the pair: k {total_k}/{cd.k.dim}, "
            f"m {total_m}/{cd.m.dim}"
        )
    return AdEigenstructure(cd, xi, tuple(blocks), tuple(k0), tuple(m0))


def frequency_isomorphism(ad: AdEigenstructure, nu: float, x: Element) -> Element:
    """Apply x -> -(1/nu)[xi, x]; on k_nu this is the isometry onto m_nu."""
    if nu <= 0:
        raise DomainError(f"frequency must be positive, got {nu}")
    alg = ad.cd.algebra
    return Element(alg, -alg.bracket_coords(ad.xi.coords, x.coords) / nu)


def subspace_of(ad: AdEigenstructure, which: str) -> Subspace:
    """Orthonormal Subspace spanned by the ad-kernel piece 'k0' or 'm0'."""
    alg = ad.cd.algebra
    if which == "k0":
        vecs = [x.coords for x in ad.k0_basis]
    elif which == "m0":
        vecs = [y.coords for y in ad.m0_basis]
    else:
        raise DomainError(f"unknown subspace selector {which!r}")
    return Subspace(alg, np.array(vecs).reshape(len(vecs), alg.dim))
