"""Solution families of the composition law S(x + S(x)y) = S(x)S(y) on
concrete commutative unital algebras, with the induced group structure,
structure/classification theory, exponential tilting, and a CLI.
"""

from .algebra import (AlgebraDescriptor, AlgebraKind, Element, complex_plane,
                      grid_interval, hadamard)
from .errors import (ConstraintViolated, DimensionMismatch, DomainExhausted,
                     InvalidTriple, LogBranchViolation, NoConvergence,
                     NotDifferentiable, NotInGroup, NotInRange, NotInvertible,
                     NotOmegaHomogeneous, NotOrthogonalIdempotents,
                     PopaAlgebraError, UnitNotInGroup, UnsupportedDimension)
from .solutions import (CanonicalSolution, ComplexReImSolution,
                        DegenerateExpSolution, DegenerateForm,
                        GoldieResidualReport, GsSolution, IdempotentSolution,
                        LinearCandidate, LinearSolution, PartitionSolution,
                        PartitionSpec, adjustor,
                        check_omega_homogeneity, circle_inv, circle_op,
                        decomposition_check, dichotomy_check, gamma, gamma_fd,
                        popa_isomorphism_check, rho_of, solution_from_json,
                        verify_gs)
from .special import (StSolution, WjSolutionOracle, WjTriple,
                      count_roots_negative_strip, st_roots, wj_extract,
                      wj_verify, xi_root)
from .structure import (SigmaMatrix, StructureReport, TwoDClass,
                        TwoDClassification, analyse_sigma, classify_2d,
                        factorize, kernel_subspace, recover_partition,
                        validate_sigma)
from .tilting import (Direction, RatioLimitResult, TiltResult,
                      UnboundednessVerdict, lambda_scale, radiality_check,
                      ratio_limit_check, tilt_T, tilt_inverse, tilt_path,
                      tilt_solve_fixed_point, unboundedness_direction)

__version__ = "0.1.0"
