"""Exact Vassiliev invariants of torus knots up to order six.

The pipeline: expand the torus-knot HOMFLY, Kauffman and Akutsu-Wadati
polynomials as truncated power series in x over exact rationals, solve exact
linear systems for the invariant tables, and verify the closed forms,
dependency relations and integrality properties that those tables satisfy.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (AnsatzMismatch, CancellationFailure, DegreeExceeded,
                     DivisionByZeroSeries, Inconsistent, NotAKnot, RankDeficient,
                     SingularBracket, TorusVassError, TruncationUnderflow,
                     UnsupportedInput)
from .series import TruncSeries, series_div, series_exp_linear
from .linalg import ExactPoly, LinearSolution, interpolate_poly
from .knots import (UNKNOT, CanonicalTorusKnot, TorusKnot, canonical_knots,
                    canonicalize)
from .groups import (Family, GroupInstance, GroupFactorVector, group_factors,
                     product, so_n, su2, su_n)
from .invariants import (akutsu_wadati_normalized, homfly_normalized,
                         kauffman_normalized, normalized_series, qpower,
                         unknot_factor, unnormalized_series)
from .tables import (InvariantTable, SHARPNESS_PAIRS, TREFOIL_NORMALIZERS,
                     beta_from_alpha_tilde, closed_form_alpha, closed_form_alpha_tilde,
                     closed_form_beta)
from .extract import (AnsatzFit, ExtractionReport, compare_fit_to_printed,
                      default_instantiation_plan, extract_alpha, extract_alpha_tilde,
                      fit_ansatz)
from .analysis import (AuxiliaryScalars, DEPENDENCY_RELATIONS, MODULAR_PERIOD, ScanReport,
                       auxiliary_scalars, dependency_relations_check,
                       distinguishing_check, integrality_scan, lissajous_obstruction,
                       noncoprime_witnesses, normalization_sharpness,
                       proposition_modular_checks)

#: the names imported above; the submodules those imports bind are not API
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
