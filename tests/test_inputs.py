"""Every input kind has one check, run before any cache: a knot index, a group
parameter, an order or a scan bound that is not an int raises
UnsupportedInput, whatever the caches hold.  The package's ``__all__`` names
its API and nothing else."""

import inspect
from fractions import Fraction as F

import pytest

import torusvass as tv
from torusvass import extract, groups, invariants
from torusvass.errors import TorusVassError, UnsupportedInput
from torusvass.groups import Family
from torusvass.knots import as_knot

#: (entry point, an int it accepts): each call takes the value under test
ENTRY_POINTS = {
    # knots: the value is n of (n, 3)
    "TorusKnot.validate": (lambda v: tv.TorusKnot(v, 3).validate(), 2),
    "as_knot": (lambda v: as_knot((3, v)), 2),
    "canonicalize": (lambda v: tv.canonicalize(v, 3), 2),
    "closed_form_alpha_tilde": (lambda v: tv.closed_form_alpha_tilde((v, 3)), 2),
    "closed_form_alpha": (lambda v: tv.closed_form_alpha((v, 3)), 2),
    "closed_form_beta": (lambda v: tv.closed_form_beta((v, 3)), 2),
    "homfly_normalized knot": (lambda v: tv.homfly_normalized((v, 3), 2), 2),
    "kauffman_normalized knot": (lambda v: tv.kauffman_normalized((3, v), 5), 2),
    "akutsu_wadati_normalized knot": (lambda v: tv.akutsu_wadati_normalized((v, 3), 1), 2),
    "normalized_series knot": (lambda v: tv.normalized_series((v, 3), tv.product(2, 1)), 2),
    "unnormalized_series knot": (lambda v: tv.unnormalized_series((v, 3), tv.so_n(5)), 2),
    "extract_alpha_tilde": (lambda v: tv.extract_alpha_tilde((v, 3)), 2),
    "extract_alpha": (lambda v: tv.extract_alpha((v, 3)), 2),
    "lissajous_obstruction": (lambda v: tv.lissajous_obstruction((v, 3)), 2),
    "auxiliary_scalars": (lambda v: tv.auxiliary_scalars((v, 3)), 2),
    "dependency_relations_check grid": (
        lambda v: tv.dependency_relations_check(grid=[(v, 3)]), 2),
    # group parameters
    "su_n": (tv.su_n, 2),
    "so_n": (tv.so_n, 5),
    "su2": (tv.su2, 1),
    "product N": (lambda v: tv.product(v, 1), 2),
    "product j": (lambda v: tv.product(2, v), 1),
    "GroupInstance": (lambda v: tv.GroupInstance(Family.SU_N, N=v), 2),
    "homfly_normalized N": (lambda v: tv.homfly_normalized((2, 3), v, 2), 3),
    "kauffman_normalized N": (lambda v: tv.kauffman_normalized((2, 3), v, 2), 4),
    "akutsu_wadati_normalized j": (lambda v: tv.akutsu_wadati_normalized((2, 3), v, 2), 1),
    # orders
    "homfly_normalized order": (lambda v: tv.homfly_normalized((2, 3), 3, v), 2),
    "kauffman_normalized order": (lambda v: tv.kauffman_normalized((2, 3), 5, v), 2),
    "akutsu_wadati_normalized order": (lambda v: tv.akutsu_wadati_normalized((2, 3), 2, v), 2),
    "normalized_series order": (lambda v: tv.normalized_series((2, 3), tv.product(2, 1), v), 2),
    "unnormalized_series order": (lambda v: tv.unnormalized_series((3, 4), tv.so_n(7), v), 2),
    "unknot_factor": (lambda v: tv.unknot_factor(tv.su_n(3), v), 2),
    "unknot_factor product": (lambda v: tv.unknot_factor(tv.product(2, 1), v), 2),
    "qpower": (lambda v: tv.qpower(1, 1, v), 2),
    # scan bounds
    "distinguishing_check": (tv.distinguishing_check, 3),
    "integrality_scan": (tv.integrality_scan, 2),
    "dependency_relations_check max_n": (lambda v: tv.dependency_relations_check(max_n=v), 3),
    # bounds with no floor: every int is accepted, and 0 finds nothing
    "canonical_knots": (lambda v: list(tv.canonical_knots(v)), 5),
    "noncoprime_witnesses": (tv.noncoprime_witnesses, 6),
    "proposition_modular_checks": (tv.proposition_modular_checks, 10),
}


def _clear_caches():
    invariants._kernel.cache_clear()
    groups.group_factors.cache_clear()
    extract._plan.cache_clear()
    extract._ready.cache_clear()


def _not_ints(good: int) -> list:
    """Values equal to good, or next to it, of every type but int."""
    return [float(good), good + 0.5, F(good), F(2 * good + 1, 2), True, False,
            str(good), None]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_only_ints_pass_cold_and_warm(name):
    call, good = ENTRY_POINTS[name]
    _clear_caches()
    for value in _not_ints(good):
        with pytest.raises(UnsupportedInput):
            call(value)
    # warm every cache with the int keys the values above equal, then ask again
    call(good)
    for key in (0, 1):
        try:
            call(key)
        except TorusVassError:
            pass
    for value in _not_ints(good):
        with pytest.raises(UnsupportedInput):
            call(value)
    _clear_caches()


@pytest.mark.parametrize("knot", [2.0, None, "23", (2, 3, 4), (2,), F(2), 23])
def test_a_knot_is_a_torus_knot_or_a_pair(knot):
    with pytest.raises(UnsupportedInput):
        tv.closed_form_beta(knot)
    with pytest.raises(UnsupportedInput):
        tv.homfly_normalized(knot, 2)


def test_a_canonical_knot_is_a_knot():
    canonical = tv.canonicalize(5, -3)
    assert as_knot(canonical) == tv.TorusKnot(5, -3)
    assert tv.closed_form_beta(canonical) == tv.closed_form_beta((5, -3))
    assert tv.dependency_relations_check(grid=[canonical]).passed


#: every name the package exports: its API, with no submodule in it
API = {
    "AnsatzFit", "AnsatzMismatch", "AuxiliaryScalars", "CancellationFailure",
    "CanonicalTorusKnot", "DEPENDENCY_RELATIONS", "DegreeExceeded", "DivisionByZeroSeries",
    "ExactPoly", "ExtractionReport", "Family", "GroupFactorVector", "GroupInstance",
    "Inconsistent", "InvariantTable", "LinearSolution", "MODULAR_PERIOD", "NotAKnot",
    "RankDeficient", "SHARPNESS_PAIRS", "ScanReport", "SingularBracket", "TREFOIL_NORMALIZERS",
    "TorusKnot", "TorusVassError", "TruncSeries", "TruncationUnderflow", "UNKNOT",
    "UnsupportedInput", "akutsu_wadati_normalized", "auxiliary_scalars",
    "beta_from_alpha_tilde", "canonical_knots", "canonicalize", "closed_form_alpha",
    "closed_form_alpha_tilde", "closed_form_beta", "compare_fit_to_printed",
    "default_instantiation_plan", "dependency_relations_check", "distinguishing_check",
    "extract_alpha", "extract_alpha_tilde", "fit_ansatz", "group_factors",
    "homfly_normalized", "integrality_scan", "interpolate_poly", "kauffman_normalized",
    "lissajous_obstruction", "noncoprime_witnesses", "normalization_sharpness",
    "normalized_series", "product", "proposition_modular_checks", "qpower", "series_div",
    "series_exp_linear", "so_n", "su2", "su_n", "unknot_factor", "unnormalized_series",
}


def test_all_lists_the_api_only():
    assert sorted(tv.__all__) == tv.__all__
    assert set(tv.__all__) == API
    assert not [name for name in tv.__all__ if inspect.ismodule(getattr(tv, name))]
    assert "annotations" not in tv.__all__
