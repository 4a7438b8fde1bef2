"""Monte Carlo curves of topological invariants of random geometric complexes,
validated against an exact closed-form oracle on the circle."""

from .circle_oracle import circle_homotopy_prob
from .complexes import (Filtration, SimplicialComplex, cech_complex_circle,
                        cech_filtration_circle, vr_complex, vr_core_filtration,
                        vr_euler_curve, vr_filtration)
from .errors import SimplexBudgetError, UnsupportedDomainError, WorkerError
from .estimator import (ConvergenceTable, CurveEstimate, convergence_study,
                        estimate_curve, max_discrete_slope)
from .homology import (InvariantSpec, betti, betti_curve, betti_invariant,
                       betti_oracle_bruteforce, connected_components,
                       euler_characteristic, euler_curve, euler_invariant)
from .manifolds import (CoveringRadiusEstimate, ManifoldModel, PointSample, circle,
                        covering_radius, covering_tail_bound, flat_torus, mix_seed,
                        pairwise_distances, sample, sphere2)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
