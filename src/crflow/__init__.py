"""crflow: a numerical laboratory for Chern-Ricci and Kahler-Ricci flows.

Pointwise complex geometry (Chern connection, torsion, curvature, holomorphic
sectional curvature), flow integration in metric and potential form on
periodic and radial charts, and a harness of estimate checks (ODE barriers,
scalar-curvature bounds, trace evolution, normalized-flow convergence) run
against closed-form model geometries.
"""

from .charts import ChartDomain
from .chen import ChenResult, chen_bound, chen_ode_oracle, chen_sweep
from .curvature import (CurvaturePackage, HscReport, chern_connection,
                        chern_curvature, hsc_max, kahler_identity_residual,
                        nabla_bar_torsion_norm, torsion)
from .cutoff import (CompletionSpec, CutoffSpec, FrakF, conformal_completion,
                     f_eval, frakF_properties_check, phi_eval)
from .errors import (ConfigError, CrflowError, DegenerateMetricError,
                     DerivativeOrderError, DomainError, FlowBreakdownError,
                     InputsNotKEError, ManifestError, PreconditionError)
from .estimates import (BarrierConfig, EstimateReport, UniquenessDiag,
                        ke_convergence_check, potential_monotonicity_check,
                        scalar_evolution_residual_radial,
                        scalar_lower_bound_check, trace_barrier_check,
                        uniqueness_F_check)
from .flow import FlowState, cfl_bound, run_torus_flow
from .metrics import (MetricProvider, ScalarField, conformal_metric, euclidean,
                      bergman_ball, list_metrics, mobius_pullback,
                      poincare_disk, resolve_metric, scaled, torsion_example,
                      with_fd_backend)
from .radial import (NormalizedFlowState, RadialRun, normalize,
                     run_normalized_radial, run_radial_flow)
from .scenarios import load_config, run_scenario, verify_all
from .traces import TraceDiagnostics, royden_check, trace_and_terms

__version__ = "0.1.0"
