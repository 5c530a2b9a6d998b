"""Dielectric subwavelength resonances and Mie scattering for high-index
spherical nanoparticles: special functions, multipole fields, Mie series,
complex resonance search, quasi-static eigenstructure, Cartesian moments
and a data-emitting CLI."""

from .fields import FieldSample, IncidentWave, farfield_pattern, harmonic_exterior, jacobi_anger_partial, multipole_field, plane_wave
from .mie import (
    CoefficientAsymptotics,
    CrossSectionReport,
    MieTable,
    ResonanceError,
    ScatterConfig,
    coefficient_asymptotics,
    cross_sections,
    far_field,
    mie_coefficients,
    mie_denominators,
    scattered_field,
)
from .multipole import (
    BallQuadrature,
    DecomposedField,
    MomentTensor,
    SphereQuadrature,
    amplitude_from_moments,
    ball_quadrature,
    electric_moment,
    magnetic_moment,
    sphere_quadrature,
)
from .quasistatic import (
    DipolePair,
    EigenModeLabel,
    PoleError,
    ResonantMoments,
    SphereEigenvalue,
    averaged_cross_sections,
    blowup_coefficient,
    dipole_approximation,
    eigenmode,
    mode_potential_integral,
    resonant_moments,
    scatter_fn_explicit,
    scatter_fn_general,
    sphere_spectrum,
)
from .resonance import (
    ContrastModel,
    MullerNoConvergence,
    RegimeError,
    ResonanceRoot,
    cluster_resonances,
    find_resonance,
    first_order_correction,
    muller_root,
    quasi_static_prediction,
    resonance_function,
    sweep_resonance,
)
from .specfun import (
    angles_to_unit,
    bessel_zero,
    harmonic_table,
    radial_pair,
    riccati_H,
    riccati_J,
    small_arg_leading,
    sph_bessel_j,
    sph_bessel_y,
    sph_hankel1,
    sph_harmonic,
    vsh_UV,
    vsh_table,
)

__version__ = "0.1.0"
