"""spjopt: rewrite select-project-join plans for minimum intermediate size growth.

Given an SPJ plan and unary key constraints, the pipeline builds a relational
representation of the plan, chases it, takes its core, and synthesizes a
well-behaved equivalent plan whose intermediate relations grow with the
smallest possible exponent in the input's maximum relation size; every stage
is independently checkable at desk scale.
"""

from .constraints import ChaseResult, KeySet, chase, satisfies_keys
from .colorwidth import (
    ColorSolution,
    WidthReport,
    color_number,
    color_values,
    cwidth_of_decomposition,
    optimal_cwidth,
)
from .errors import (
    ArityError,
    DegenerateInputError,
    FormatError,
    KeyConstraintError,
    PlanSyntaxError,
    ResourceCapError,
    SignatureError,
    SpjError,
)
from .plans import (
    Basic,
    EvalTrace,
    Join,
    Plan,
    Project,
    Select,
    evaluate_naive,
    evaluate_well_behaved,
    is_well_behaved,
    parse_plan,
    print_plan,
    theta_of,
)
from .represent import (
    Caps,
    PDecomposition,
    PRepresentation,
    TreeDecomposition,
    build_representation,
    check_tree_decomposition,
)
from .structures import (
    Hypergraph,
    OpenStructure,
    Signature,
    Structure,
    compute_core,
    find_homomorphism,
    homs_relation,
    hypergraph_of,
)
from .synthesis import (
    EquivalenceWitness,
    FdElimination,
    SynthesisResult,
    chased_core,
    check_equivalence,
    eliminate_fds,
    equivalence_witness,
    intermediate_degree_bound,
    optimize,
    output_degree,
    subplan_degrees,
    synthesize_plan,
)
from .witness import WitnessFamily, bag_witness, product_witness

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "Basic",
    "Caps",
    "ChaseResult",
    "ColorSolution",
    "DegenerateInputError",
    "EquivalenceWitness",
    "EvalTrace",
    "FdElimination",
    "FormatError",
    "Hypergraph",
    "Join",
    "KeyConstraintError",
    "KeySet",
    "OpenStructure",
    "PDecomposition",
    "PRepresentation",
    "Plan",
    "PlanSyntaxError",
    "Project",
    "ResourceCapError",
    "Select",
    "Signature",
    "SignatureError",
    "SpjError",
    "Structure",
    "SynthesisResult",
    "TreeDecomposition",
    "WidthReport",
    "WitnessFamily",
    "bag_witness",
    "build_representation",
    "chase",
    "chased_core",
    "check_equivalence",
    "check_tree_decomposition",
    "color_number",
    "color_values",
    "compute_core",
    "cwidth_of_decomposition",
    "eliminate_fds",
    "equivalence_witness",
    "evaluate_naive",
    "evaluate_well_behaved",
    "find_homomorphism",
    "homs_relation",
    "hypergraph_of",
    "intermediate_degree_bound",
    "is_well_behaved",
    "optimal_cwidth",
    "optimize",
    "output_degree",
    "parse_plan",
    "print_plan",
    "product_witness",
    "satisfies_keys",
    "subplan_degrees",
    "synthesize_plan",
    "theta_of",
]
