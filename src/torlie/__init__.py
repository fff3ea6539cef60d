"""Exact twisted 2-toroidal Lie algebras and presentation verification."""

from .coeff import CycNum, omega_pow
from .kahler import Bs, Bt, C0, KahlerElem, KSym, reduce_b_da
from .liealg import LieAlgebra, LieElem, get_algebra
from .presentation import (
    GenSym,
    RelationId,
    RelationReport,
    enumerate_cases,
    proof_cases,
    psi_image,
    relation_sides,
    span_check,
    verify_all,
)
from .rootdata import (
    AlgebraSpec,
    ConfigError,
    build_cartan,
    enumerate_roots,
    folded_simple_roots,
    highest_root,
    root_form,
    sigma_root,
)
from .toroidal import (
    LoopElem,
    ToroidalElem,
    fix_project,
    loop_bracket,
    sigma_bar,
    toroidal_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "Bs", "Bt", "C0", "ConfigError", "CycNum", "GenSym",
    "KSym", "KahlerElem", "LieAlgebra", "LieElem", "LoopElem",
    "RelationId", "RelationReport", "ToroidalElem", "build_cartan",
    "enumerate_cases", "enumerate_roots", "fix_project",
    "folded_simple_roots", "get_algebra", "highest_root", "loop_bracket",
    "omega_pow", "proof_cases", "psi_image", "reduce_b_da",
    "relation_sides", "root_form", "sigma_bar", "sigma_root",
    "span_check", "toroidal_bracket", "verify_all",
]
