"""Exact-arithmetic toolkit for symmetry and stability of toric Fano varieties.

Given a complete fan (or just the rays of a Fano one), the package
computes the anticanonical polytope, continuous and quantized
barycenters, Ehrhart data, roots, lattice automorphism groups, stability
thresholds, the structure data of the automorphism group, and checks the
chain of implications tying all of these together.  Every number is an
exact integer or Fraction.
"""

from .chain import ChainReport, verify_implication_chain
from .demazure import (
    ClassGroup,
    DemazureReport,
    class_group,
    demazure_report,
    graded_dimension,
    root_automorphism,
    variable_classes,
)
from .errors import (
    InvariantViolation,
    NonFanoError,
    NonLatticePolytopeError,
    ParseError,
    ToricSymError,
    UnboundedPolytopeError,
    ValidationError,
)
from .families import futaki_rays, generate_futaki
from .fan import (
    Fan,
    face_fan_from_polytope,
    is_complete,
    is_fano,
    is_simplicial,
    is_smooth,
    polytope_from_fan,
    validate_fan,
)
from .fileio import parse_fan_file, parse_polytope_file, write_fan_file
from .latticecount import (
    BarycenterRationalFunction,
    EhrhartPolynomial,
    EnumerationPlan,
    RigidityVerdict,
    barycenter_rational_function,
    build_plan,
    count_lattice_points,
    ehrhart_polynomial,
    enumerate_lattice_points,
    plan_for_polytope,
    quantized_barycenter,
    rigidity_verdict,
)
from .linalg import (
    SmithDecomposition,
    invariant_factors,
    is_unimodular,
    smith_normal_form,
    solve_rational,
)
from .polytope import (
    HPolytope,
    Polytope,
    VPolytope,
    contains,
    dilate,
    is_lattice_polytope,
    polytope_from_vertices,
    vertices_from_inequalities,
    volume_and_barycenter,
)
from .stability import (
    StabilityReport,
    alpha_invariant,
    delta_invariant,
    delta_k,
    dual_norm,
    metric_verdicts,
)
from .symmetry import (
    LatticeAutGroup,
    RootData,
    SymmetryClassification,
    aut0_subgroup,
    classify_symmetry,
    fan_automorphisms,
    fixed_subspace,
    polytope_automorphisms,
    roots,
)

__version__ = "0.1.0"
