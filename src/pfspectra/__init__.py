"""Principal curvature spectra of parallel-transport preimages.

The package computes and cross-verifies the eigenvalue structure of shape
operators for preimages of submanifolds under the parallel transport map
over compact symmetric spaces: frequency decompositions of ad(xi),
closed-form eigenvalue families with truncated-operator oracles,
regularized traces, austere/arid symmetry deciders, and the discretized
gauge action with its transport ODE.

scipy is imported at first use, inside the functions that call it: imported
at module level, it and jsonschema made the set-up of one CLI call (import,
parser, one document load) take 0.51 s instead of 0.21 s (median of 9 fresh
processes, one BLAS thread).  Documents are checked by the package's own
schema walker (``formats.validate_document``), not jsonschema, which cuts
that set-up's median by 20-30%, from 0.15 to 0.10-0.12 s in two sittings
and from 0.21 to 0.16 s in two slower ones (15 fresh processes per side and
sitting, no compiled bytecode, 2-core Xeon; BENCH_setup_validator.json).
"""

from .adspec import (
    AdEigenstructure,
    FrequencyBlock,
    paired_bases,
)
from .errors import (
    ChartError,
    DimensionError,
    DomainError,
    FormatError,
    GeometryError,
    PoleError,
    StructureError,
)
from .liecore import (
    CartanDecomposition,
    MatrixLieAlgebra,
    Subspace,
    build_so,
    cartan_decompose,
    gram_schmidt,
)
from .oracle import (
    PERP_LABEL,
    CurvatureAdaptedData,
    DecomposedPath,
    FourierBasisLabel,
    MatchReport,
    OracleReport,
    TimeGrid,
    TruncatedOperator,
    build_harmonic_block,
    build_mu_block,
    compare_spectra,
    finite_group_oracle,
    grid_l2_norm,
    group_shape_matrix,
    label_closed_form,
    label_decomposed_path,
    match_multisets,
    mu_block_residual,
    shape_apply_raw,
    sphere_geometry,
    sphere_pair,
    split_geometry,
    split_pair,
)
from .spectra import (
    EigenMultiset,
    PrincipalSpectrum,
    SubmanifoldSpectralData,
    assemble_group_spectrum,
    assemble_pf_spectrum,
    cot_series,
    enumerate_by_floor,
    enumerate_rows,
    extrapolate_to_one,
    kappa,
    mu,
    mu_eigenfunction_coeffs,
    r_trace,
    zeta_trace,
)
from .symmetrycheck import (
    BUILTIN_ROOT_SYSTEMS,
    SO9Example,
    WeylStratum,
    arid_orbit_candidate_check,
    austere_check_enumerated,
    austere_check_finite,
    austere_check_pf,
    isolated_directions,
    product_sphere_austere,
    product_sphere_shape,
    sample_product_normals,
    so9_arid_verify,
    so9_build,
    so9_conjugation_matrix,
    so9_normal_matrix,
    so9_swap_matrix,
    stratum_membership,
    subspace_preserved,
    weyl_strata,
)
from .transport import (
    PathGrid,
    TransportSolution,
    check_transport_work,
    coset_log,
    differentiate_path,
    equivariance_residual,
    equivariance_residuals,
    fiber_tangent_residual,
    fiber_tangent_residuals,
    gauge_act,
    phi_k,
    random_algebra_path,
    random_group_path,
    solve_transport,
    transport_endpoint,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
