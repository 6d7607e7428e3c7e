"""Constructive norm-attainment toolkit.

Finite-dimensional normed spaces and lattice sums, operator corrections
that restore norm attainment with certified error budgets, witness
pipelines for convex series, convexity and monotonicity moduli, and a
seeded scenario harness with byte-reproducible reports.
"""

from .absolute import (AbsoluteNorm2, NormValidation, boundary_completion,
                       dual_pair, lemma_fact_delta, validate_absolute_norm)
from .ahsp import (AhspWitness, EtaPolicy, PolyhedralPlaneAhspOracle,
                   UniformlyConvexAhspOracle, ahp_oracle_uniformly_convex,
                   ahsp_oracle_for, direct_sum_space, direct_sum_witness,
                   eta_policy, finite_dim_witness, plane_ahsp_oracle,
                   restrict_witness, verify_ahsp_witness, witness_from_json)
from .alignment import AligningIsometry, align_isometry, verify_isometry
from .bpb import (BpbCorrection, BpbInstance, ConvexSeries, FilterResult,
                  ParameterCascade, cascade_l1sum, correct_operator_l1sum,
                  default_component_oracle, filter_large_real_part,
                  verify_bpb_correction)
from .certs import Certificate, all_passed, check, ensure, summarize
from .errors import (BpbkitError, ConfigError, DegenerateInput,
                     DimensionError, GenerationFailed, HypothesisError,
                     InternalInvariantError, InvalidModulus, NotANorm,
                     NotOnSphere, NotUniformlyConvex, NotUniformlyMonotone,
                     OracleViolation, RangeError, WitnessSearchFailed)
from .harness import (Report, Scenario, TrialRecord, generate_instance,
                      run_scenario, scenario_from_json)
from .lattice_sums import (LatticeSumPolicy, NormingElement,
                           build_norming_element, duality_isometry_check,
                           kothe_dual_norm, lattice_sum_policy,
                           lattice_sum_space, lattice_sum_witness,
                           sampled_dual_norm)
from .lattices import (Absolute2Lattice, FiniteLattice, LpLattice,
                       WeightedL1Lattice, lattice_from_params)
from .moduli import (ModulusCurve, convexity_curve, convexity_modulus,
                     monotonicity_curve, monotonicity_modulus)
from .spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace, LpSpace,
                     Operator, OperatorNormResult, PlaneSpace, NormedSpace,
                     operator_norm, space_from_json, vector_from_json,
                     vector_to_json)
from .util import TOL_SPHERE, canonical_json

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
