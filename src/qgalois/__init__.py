"""qgalois: exact symbolic workbench for quantum-group comodule algebras,
strong connections, and associated noncommutative vector bundles over Q(q)."""

from .scalars import QRat, PoleError, q_power, qrat
from .ncalg import Generator, NCPoly, Presentation, PresentationError, RewriteRule, \
    TerminationError
from .tensors import LegMismatchError, TensorElem
from .report import Check, Report
from .structure import Character, Coaction, HopfData, Morphism, antipode, antipode_inv, \
    attach_hopf, coproduct, counit, verify_hopf_axioms
from .comodule import Corepresentation, contragredient, corep_equivalence, cotensor_basis, \
    invariant_subspace, left_coaction, regular_coaction, verify_coaction, \
    verify_corepresentation
from .connection import CoalgebraSpan, CoverageError, SpanClosureError, \
    StrongConnection, check_equivariance, check_strong_connection, pullback_connection
from .cherngalois import Functional, Projector, ProjectorError, PullbackCertificate, \
    align_blocks, connection_expansion, cotensor_compare, projector, \
    projector_similarity, pullback_projector, sigma, trace_rank, verify_pullback_theorem
from .join import JoinDegreeError, JoinElement, TPoly, chi_collapse, \
    chi_equivariance, counit_character, join_bump, join_coaction, \
    join_coaction_membership, join_coassociativity, join_membership, join_path, \
    join_product, join_unit, sample_join_elements
from .presfile import PresentationFileError, Workspace, parse_element, \
    parse_expression, parse_tensor, parse_workspace
from . import presets

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
