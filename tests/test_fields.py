import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinconc.errors import CapacityError
from spinconc.fields import (
    SPIN,
    Alphabet,
    LocalFunction,
    build_function,
    delta_vector,
    magnetization,
    majority,
    pair_product,
    pattern_indicator,
    single_spin,
    total_spin,
    value_grid,
)
from spinconc.lattice import segment_sites

from .oracles import mean_value, naive_variation, pattern_match, sign_of_sum


def test_spin_alphabet():
    assert SPIN.size == 2
    assert SPIN.values == (-1.0, 1.0)
    assert SPIN.index("+") == 1


def test_sum_of_spins_delta_norm():
    sites = segment_sites(7)
    g = total_spin(sites)
    dv = delta_vector(g, sites, SPIN)
    assert np.allclose(dv.per_site, 2.0)
    assert dv.l2_squared == pytest.approx(4 * 7)
    assert dv.l1 == pytest.approx(14.0)


def test_magnetization_normalized_delta():
    sites = segment_sites(5)
    dv = delta_vector(magnetization(sites), sites, SPIN)
    assert np.allclose(dv.per_site, 2.0 / 5.0)


def _variation(g, volume, x, alphabet=SPIN):
    """delta_vector's entry at site x of the volume."""
    return delta_vector(g, volume, alphabet).per_site[tuple(volume).index(x)]


def test_variation_zero_off_dependency():
    sites = segment_sites(4)
    g = single_spin((2,))
    assert _variation(g, sites, (0,)) == 0.0
    assert _variation(g, sites, (2,)) == 2.0


def test_majority_variation_matches_bruteforce():
    sites = segment_sites(3)
    g = majority(sites)
    for x in sites:
        want = naive_variation(sign_of_sum, list(g.sites), x, SPIN.values)
        assert _variation(g, sites, x) == pytest.approx(want)
    # flipping one vote changes the sign by at most 2 and exactly 2 somewhere
    assert _variation(g, sites, (0,)) == pytest.approx(2.0)


def test_pattern_indicator_variation():
    sites = segment_sites(3)
    g = pattern_indicator(sites, ["+", "-", "+"])
    for x in sites:
        want = naive_variation(pattern_match((1.0, -1.0, 1.0)), list(g.sites), x, SPIN.values)
        assert _variation(g, sites, x) == pytest.approx(want) == 1.0


def test_pair_product_variation():
    g = pair_product((0,), (1,))
    assert _variation(g, segment_sites(2), (0,)) == pytest.approx(2.0)


@settings(max_examples=40)
@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_rescaling_scales_variation(c):
    sites = segment_sites(3)
    base = majority(sites)
    scaled = LocalFunction("scaled", base.sites, lambda m: c * base.fn(m))
    for x in sites:
        assert _variation(scaled, sites, x) == pytest.approx(abs(c) * _variation(base, sites, x))


def test_triangle_inequality_for_sums():
    sites = segment_sites(3)
    g = majority(sites)
    h = pattern_indicator(sites, ["+", "+", "+"])
    s = LocalFunction("sum", sites, lambda m: g.fn(m) + h.fn(m))
    for x in sites:
        assert (_variation(s, sites, x)
                <= _variation(g, sites, x) + _variation(h, sites, x) + 1e-12)


def test_enumeration_cap():
    sites = segment_sites(30)
    g = LocalFunction("wide", sites, lambda m: m.sum(axis=1))
    with pytest.raises(CapacityError):
        delta_vector(g, sites, SPIN)


def test_separable_terms_bypass_cap():
    # same function declared as a sum over disjoint single sites: exact and cheap
    sites = segment_sites(30)
    g = total_spin(sites)
    assert _variation(g, sites, (17,)) == pytest.approx(2.0)


def test_span_is_the_range_of_the_full_grid():
    # grouped observables sum their groups' ranges; each matches max - min
    # over every configuration, and a wide grouped sum stays cheap
    sites = segment_sites(5)
    ternary = Alphabet(("a", "b", "c"), (-1.0, 0.5, 2.0))
    for g, alphabet in ((magnetization(sites), SPIN), (total_spin(sites), SPIN),
                        (majority(sites), SPIN), (pair_product(sites[0], sites[3]), SPIN),
                        (pattern_indicator(sites[:2], ["+", "-"]), SPIN),
                        (total_spin(sites), ternary), (majority(sites[:3]), ternary)):
        assert g.span(alphabet) == pytest.approx(np.ptp(value_grid(g, alphabet)), abs=1e-15)
    assert total_spin(segment_sites(30)).span(SPIN) == 60.0
    with pytest.raises(CapacityError):
        LocalFunction("wide", segment_sites(30), lambda m: m.sum(axis=1)).span(SPIN)


def test_delta_vector_requires_volume_support():
    g = single_spin((9,))
    with pytest.raises(ValueError):
        delta_vector(g, segment_sites(3), SPIN)


def test_eval_batch_consistency():
    sites = segment_sites(3)
    fns = [(magnetization(sites), mean_value), (majority(sites), sign_of_sum),
           (pattern_indicator(sites, ["-", "-", "+"]), pattern_match((-1.0, -1.0, 1.0)))]
    rng = np.random.default_rng(0)
    mat = rng.choice([-1.0, 1.0], size=(40, 3))
    for g, scalar in fns:
        slow = np.array([scalar(tuple(r)) for r in mat])
        assert np.allclose(g.fn(mat), slow)


def test_build_function_from_spec():
    sites = segment_sites(4)
    g = build_function({"kind": "magnetization"}, sites)
    assert g.name == "magnetization"
    g2 = build_function({"kind": "single_spin", "site": [2]}, sites)
    assert g2.sites == ((2,),)
    g3 = build_function({"kind": "majority", "count": 3}, sites)
    assert len(g3.sites) == 3
    with pytest.raises(ValueError):
        build_function({"kind": "nope"}, sites)


def test_ternary_alphabet_variation():
    abc = Alphabet(("a", "b", "c"), (0.0, 1.0, 3.0))
    sites = ((0,), (1,))
    g = LocalFunction("first", sites, lambda m: m[:, 0])
    assert _variation(g, sites, (0,), abc) == pytest.approx(3.0)
    assert _variation(g, sites, (1,), abc) == 0.0
