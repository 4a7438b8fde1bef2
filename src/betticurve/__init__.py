"""Monte Carlo curves of topological invariants of random geometric complexes,
validated against an exact closed-form oracle on the circle."""

from .circle_oracle import (CircleOracleEval, circle_homotopy_prob,
                            circle_oracle_curve, irwin_hall_g)
from .complexes import (Filtration, SimplicialComplex, cech_complex_circle,
                        cech_complex_euclidean, cech_filtration_circle, edge_count,
                        export_simplices, min_enclosing_ball, vr_complex,
                        vr_filtration)
from .errors import PrecisionLimitError, SimplexBudgetError, UnsupportedDomainError
from .estimator import (ConvergenceTable, CurveEstimate, LipschitzDiagnostic,
                        convergence_study, estimate_curve, lipschitz_diagnostic,
                        max_discrete_slope)
from .homology import (InvariantSpec, betti, betti_curve, betti_invariant,
                       betti_oracle_bruteforce, connected_components,
                       euler_characteristic, euler_curve, euler_invariant)
from .manifolds import (CoveringRadiusEstimate, DegeneracyReport, ManifoldModel,
                        PointSample, ball_measure, circle, covering_radius,
                        covering_tail_bound, detect_degeneracies, flat_torus,
                        geodesic_distance, mix_seed, pairwise_distances, sample,
                        sphere2)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
