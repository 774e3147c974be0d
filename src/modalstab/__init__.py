"""Modal-decomposition boundary stabilization of the heat equation on the
disk and ball: spectrum enumeration, lifting, gain synthesis, spectral
Galerkin simulation, and decay verification.

The runtime needs numpy only.  The environment variable MODALSTAB_THREADS
caps BLAS parallelism.  It is applied here, before any submodule loads
numpy, because the BLAS library reads its thread settings when it loads;
thread variables that are already set take precedence.
"""

import os


def _apply_thread_cap() -> None:
    cap = os.environ.get("MODALSTAB_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_apply_thread_cap()

from .basis import (Domain, ModeTable, SpectrumSummary, enumerate_modes,
                    project_function)
from .controller import (GainSet, StabilityReport, auto_scale_gains,
                         hurwitz_margin, scaled_gain_set, synthesize,
                         validate_gains)
from .diagnostics import (GridEvaluator, NormSeries, compute_norm_series,
                          decay_rate_fit, gn_exponents, gn_ratio,
                          verify_claims)
from .lifting import commutation_check, lifting_coefficients, xi_coefficients
from .simulator import (ClosedLoopSystem, PolynomialSpec, Trajectory,
                        assemble_closed_loop, integrate, open_loop,
                        project_initial_condition, reduced_dynamics_fit)
from .special import (QuadratureRule, bessel_j, bessel_j_zero,
                      quadrature_rule, real_spherical_harmonic,
                      spherical_bessel_j, spherical_bessel_zero)

__version__ = "0.1.0"
