"""Exact graded-commutative algebra and monopole projectors over the supersphere.

The package provides an exact symbolic engine for Grassmann algebras with a
diamond involution, supermatrix calculus (supertranspose, supertrace,
superdeterminant), graded differential forms, and the full monopole
construction over the (2,2)-dimensional supersphere: group element,
coordinates, normalized supervectors, projectors, connections, curvature,
Chern 2-superforms and exact integer Chern numbers via Berezin integration.
"""

from .scalars import Scalar, rat
from .algebra import (EVEN, ODD, Element, GeneratorTable, RewriteSystem,
                      SuperAlgebraError, UnknownGeneratorError, AlgebraMismatchError,
                      ParityError, InvertibilityError, graded_inverse)
from .matrices import (BlockShape, SuperMatrix, EVEN_FIRST, ODD_FIRST, ShapeError,
                       graded_bracket, sdet, exp_nilpotent)
from .forms import SuperForm, DifferentialIdeal, d
from .trig import (TrigPoly, PhaseHalfAngle, integrate_half_angle, wallis_integrate,
                   ChartError)
from .monopole import (group_space, base_space, group_element,
                       osp_fixtures, coordinate_images, inversion_identities,
                       psi, psi_body, pairing, projector, connection_form,
                       connection_closed_form, chern_form,
                       chern_form_canonical, chern_closed_form, chern_form_body,
                       coordinate_chern_form,
                       check_equivariance, section_to_equivariant,
                       element_to_base, projector_to_base,
                       nilpotent_exp_report, group_identities_report,
                       sphere_relation_check, PsiVector, Projector,
                       supertrace_p_dp_dp)
from .berezin import (chern_number, chern_integral, berezin_integral,
                      berezin_chern_number, chart_pullback, group_section_chart,
                      ExactnessError)
from .linear import solve_exact, expand_in_basis

__version__ = "0.1.0"
