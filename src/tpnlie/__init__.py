"""Exact structure-constant workbench for transposed Poisson n-Lie algebras.

Represents finite-dimensional algebras by rational structure constants,
verifies the defining and derived identities by exhaustive basis-tuple
enumeration, and builds derivation-driven arity extensions and towers.
"""

from .axioms import (
    CheckReport,
    IdentityId,
    check_identity,
    run_suite,
    sampled_verdict,
)
from .construct import TowerStep, build_tower, derivation_bracket, extend_bracket
from .core import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    InputError,
    ProductTensor,
    Rational,
    SkewBracket,
    basis_vectors,
    bracket_apply,
    canonicalize,
    multiply,
    rat,
)
from .corpus import (
    CorpusInstance,
    Finding,
    binary_sweep_corpus,
    formal_derivative,
    hunt_counterexample,
    make_tensor_trunc,
    make_truncated_poly,
    make_zero_bracket_system,
    poly_derivation,
    random_system,
    tensor_diagonal_derivation,
    ternary_sweep_corpus,
)
from .files import (
    finding_to_dict,
    load_system,
    report_to_dict,
    save_finding,
    save_system,
    system_from_dict,
    system_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSystem",
    "CheckReport",
    "CorpusInstance",
    "DerivationMatrix",
    "ElementVector",
    "Finding",
    "IdentityId",
    "InputError",
    "ProductTensor",
    "Rational",
    "SkewBracket",
    "TowerStep",
    "basis_vectors",
    "binary_sweep_corpus",
    "bracket_apply",
    "build_tower",
    "canonicalize",
    "check_identity",
    "derivation_bracket",
    "extend_bracket",
    "finding_to_dict",
    "formal_derivative",
    "hunt_counterexample",
    "load_system",
    "make_tensor_trunc",
    "make_truncated_poly",
    "make_zero_bracket_system",
    "multiply",
    "poly_derivation",
    "random_system",
    "rat",
    "report_to_dict",
    "run_suite",
    "sampled_verdict",
    "save_finding",
    "save_system",
    "system_from_dict",
    "system_to_dict",
    "tensor_diagonal_derivation",
    "ternary_sweep_corpus",
]
