"""Computer algebra for (a,b)-modules: free modules over truncated power
series in b with an endomorphism a satisfying ab - ba = b^2.

Exact rational arithmetic throughout; every reported value is either exact
at the stated series precision or an explicit error.
"""

from .errors import (AbmodError, ADegreeExceeded, BadAlpha, DuplicateName,
                     HostMismatch, NoEmbeddingFound, NonSquare, NotAStable,
                     NotAUnit, NotGeometric, NotNormal, NotRegular,
                     ParseError, PrecisionExhausted, UnknownName,
                     ValidationFailed)
from .series import DEFAULT_PREC, TruncSeries, rat, rat_str
from .ratpoly import RationalPolynomial
from .operators import AbOperator, op_normalize
from .modules import (AbModule, ModuleElement, build_xi_tensor, direct_sum,
                      module_e_lambda, module_from_matrix,
                      module_from_left_form, xi_module)
from .lattices import (Lattice, full_lattice, is_normal, lattice_reduce,
                       normal_hull, quotient_module, sub_module_structure,
                       zero_lattice)
from .saturation import (SaturationResult, bernstein_polynomial, is_geometric,
                         saturate)
from .frescos import (Fresco, FrescoPresentation, bernstein_via_formula,
                      fresco_from_presentation, generated_submodule, jh_split)
from .decomposition import (Filtration, HigherBernstein, PrimitiveSplit,
                            class_mod_z, eigen_elements, higher_bernstein,
                            is_semisimple, primitive_split, semisimple_part,
                            semisimple_filtration)
from .asymptotics import (DiffSystem, Embedding, ExpansionTerm,
                          LogPowerFunction, embed_into_xi,
                          from_differential_system, realize_expansion,
                          singular_term_report)
from .session import Session, parse_session, run_session

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
