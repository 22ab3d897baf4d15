"""spinorlab: numerical operator algebra and discrete-symmetry verification
for relativistic wave equations in momentum space."""

from .clifford import GammaSet, gamma_set, pauli, spin_matrix, verify_clifford
from .equations import (EQUATION_NAMES, UNITARY_NAMES, EquationSpec,
                        UnitarySpec, catalog_equation, catalog_unitary,
                        verify_projectors, verify_transform)
from .linalg import expm, polar_unitary, svd_nullspace
from .opcalc import (DiffOp1, OperatorField, as_batch, conjugate_by_unitary,
                     diffop_commutator, sample_momenta, stacked_jet)
from .poincare import (GENERATOR_NAMES, algebra_residual, generator_set,
                       helicity_field, irrep_content)
from .position import (POSITION_NAMES, position_closed_form,
                       position_from_unitary, verify_position)
from .symmetry import (ClassificationReport, Intertwiner, NonInvariance,
                       SymmetryElement, classify_equation, group_elements,
                       intertwine_condition, solve_intertwiner)

__version__ = "0.1.0"

__all__ = [
    "GammaSet", "gamma_set", "pauli", "spin_matrix", "verify_clifford",
    "EQUATION_NAMES", "UNITARY_NAMES", "EquationSpec", "UnitarySpec",
    "catalog_equation", "catalog_unitary", "verify_projectors",
    "verify_transform", "expm", "polar_unitary", "svd_nullspace",
    "DiffOp1", "OperatorField", "as_batch", "conjugate_by_unitary",
    "diffop_commutator", "sample_momenta", "stacked_jet", "GENERATOR_NAMES",
    "algebra_residual", "generator_set", "helicity_field", "irrep_content",
    "POSITION_NAMES", "position_closed_form", "position_from_unitary",
    "verify_position",
    "ClassificationReport", "Intertwiner", "NonInvariance", "SymmetryElement",
    "classify_equation", "group_elements", "intertwine_condition",
    "solve_intertwiner",
]
