"""Exact-arithmetic toolkit for sheaf-counting numerics on elliptic
Weierstrass Calabi-Yau threefolds over Fano surfaces.

Everything is computed over the rationals: lattice intersection theory on
the base and the threefold, slope/Gieseker comparisons for vertical torsion
sheaves, the relative Fourier-Mukai transform on numerical invariants,
stability thresholds and wall bounds for elliptic K3 pencils, and the
modular generating series packaging the counting invariants.
"""

from .base_geometry import (
    BaseClass,
    BaseSurface,
    enumerate_subeffective,
    is_ample_base,
    is_effective_base,
    make_base,
    pair_base,
    preset_names,
    zero_class,
)
from .dt_invariants import (
    InvariantTable,
    check_k_invariance,
    dt_from_omega,
    dt_table_from_omega,
    fm_relabel,
    gv_from_z,
    omega_from_dt,
    omega_table_from_dt,
)
from .errors import InvariantViolation
from .fourier_mukai import (
    fm_dim1_to_dim2,
    fm_dim2_to_dim1,
    k3_view,
    pencil_invariants,
    phi_inverse,
    phi_map,
    roundtrip_check,
    tensor_shift,
    tensor_unshift,
)
from .modular import ZSeriesResult, eisenstein, eta24, inv_eta24, sigma_table, z_series
from .qseries import QSeries, agree_through, collapse, sieve
from .stability import (
    Dim1Chern,
    Dim2Chern,
    EtaWall,
    K3Invariants,
    KahlerParams,
    Ordering,
    SElement,
    bogomolov_Delta,
    check_destabilizer,
    chi_dim2,
    compute_s1,
    compute_t2,
    delta_additivity_deficit,
    delta_discriminant,
    delta_nonnegative,
    enumerate_Gamma,
    enumerate_S,
    enumerate_Sprime,
    eta_wall,
    f_s_value,
    gamma_parts,
    jh_constraints,
    nu_dim2,
    restriction_chi,
    section_restriction,
    slope_dim1,
    slope_dim2,
    wall_bound_ts,
)
from .weierstrass import (
    CurveX,
    DivisorX,
    fiber,
    intersection_matrix_X,
    is_ample_X,
    is_effective_curve_X,
    k3_pencil_relations,
    mult_div_div,
    pair_div_curve,
    polarization,
    pullback,
    section_push,
    theta,
    triple,
)

__version__ = "0.1.0"
