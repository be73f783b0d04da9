"""Spectral laboratory for equivariant geometric wave equations on
hyperbolic space: harmonic-map families, their linearized half-line
operators, certified gap spectra and threshold resonances, and the
radial wave evolution that exhibits the dynamical consequences.
"""

from .errors import (BoundOutOfRange, CFLViolation, DomainError,
                     EigenvalueMissing, FitUnreliable, GapspecError,
                     InconsistentCertificate, NoEigenmode,
                     QuadratureNotConverged, SeriesRadiusExceeded,
                     StepSizeUnderflow, TailNotAsymptotic, TooFewSamples)
from .harmonic_maps import (SPHERE, YANG_MILLS, EnergyBreakdown, GeometrySpec,
                            amplitude_bound, endpoint, energy_closed_form,
                            energy_quadrature, eval_Q, eval_Q_prime,
                            metric_g, metric_g_double_prime, metric_g_prime,
                            sphere, yang_mills)
from .ode_engine import (RenormalizedSolution, ShootingTrace, StartData,
                         StepMesh, ThresholdFit, count_zeros, endpoint_state,
                         fit_threshold, integrate, renormalized_f,
                         series_start, tail_start_decaying)
from .operators import (EUCLIDEAN, FROM_HALF_LINE, HALF_LINE, LARGE_K,
                        PHYSICAL_R, RESCALED, RESCALED_RHO, TO_HALF_LINE,
                        CoordinateMap, OperatorSpec,
                        apply_operator, conjugation_transform,
                        continuum_edge, convexity_margin, coordinate_maps,
                        effective_potential, euclidean, half_line, large_k,
                        omega_weight, potential_V, rescaled, zero_mode)
from .spectral import (GapEigenvalue, LargeKReport, MigrationReport,
                       SpectralReport, SweepReport, count_eigenvalues_below,
                       find_gap_eigenvalues, largek_gap_scan,
                       migration_curve, sweep_lambda)
from .wave_sim import (CustomProfile, GapEigenmode, GaussianBump, RunResult,
                       SpectrumSummary, WaveState, energy, init_state,
                       nonlinear_energy, nonlinear_source, probe_spectrum,
                       run, step)

__version__ = "0.1.0"
