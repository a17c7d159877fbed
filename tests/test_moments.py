import math
import warnings

import mpmath
import pytest

from divisorlab import series
from divisorlab.divisor import EULER_GAMMA, hyperbola_D
from divisorlab.moments import (
    WindowSpec,
    abs_moment,
    moment,
    moment_main_term,
    moment_profile,
    window_moment,
)
from divisorlab.series import estimate_constant

TWO_GAMMA_MINUS_ONE = 2 * EULER_GAMMA - 1


def _oracle_unit_interval(m, power=None, abs_power=None):
    """mpmath quadrature of Delta**k or |Delta|**A over [m, m+1), split at the
    branch root when the smooth branch changes sign inside the interval."""
    D = hyperbola_D(m)

    def g(x):
        return D - x * mpmath.log(x) - TWO_GAMMA_MINUS_ONE * x

    pieces = [mpmath.mpf(m), mpmath.mpf(m + 1)]
    if g(m) * g(m + 1) < 0:
        root = mpmath.findroot(g, m + 0.5)
        pieces.insert(1, root)
    total = mpmath.mpf(0)
    f = (lambda x: g(x) ** power) if power is not None else (lambda x: abs(g(x)) ** abs_power)
    for a, b in zip(pieces, pieces[1:]):
        total += mpmath.quad(f, [a, b])
    return float(total)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_unit_interval_quadrature_matches_mpmath(k):
    prof = moment_profile([k], [], [1001], lo=1000)
    want = _oracle_unit_interval(1000, power=k)
    assert prof[1001][("pow", k)] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("A", [1.0, 3.5, 35.0 / 4.0])
def test_abs_quadrature_with_sign_crossing(A):
    # [995, 996] contains a zero of the smooth branch of Delta
    m = 995
    assert math.copysign(1, _oracle_unit_interval(m, power=1)) > 0  # sanity
    prof = moment_profile([], [A], [m + 1], lo=m)
    want = _oracle_unit_interval(m, abs_power=A)
    # fractional powers are only finitely smooth at the root, so the split
    # quadrature converges fast but not to machine precision
    assert prof[m + 1][("abs", A)] == pytest.approx(want, rel=1e-6)


def test_profile_additive_over_checkpoints():
    prof = moment_profile([2], [], [500, 1000], block=128)
    single = moment_profile([2], [], [1000], block=128)
    assert prof[1000][("pow", 2)] == single[1000][("pow", 2)]
    tail = moment_profile([2], [], [1000], lo=500, block=128)
    assert prof[500][("pow", 2)] + tail[1000][("pow", 2)] == pytest.approx(
        prof[1000][("pow", 2)], rel=1e-12)


def test_profile_thread_count_does_not_change_values():
    a = moment_profile([2, 8], [1.5], [20000], block=1024, threads=1)
    b = moment_profile([2, 8], [1.5], [20000], block=1024, threads=4)
    assert a == b


def test_profile_abs_limit_freezes_abs_integrals():
    prof = moment_profile([1], [1.5], [1000, 2000], block=256, abs_limit=1000)
    full = moment_profile([1], [1.5], [1000], block=256)
    assert prof[2000][("abs", 1.5)] == prof[1000][("abs", 1.5)]
    assert prof[1000][("abs", 1.5)] == full[1000][("abs", 1.5)]
    assert prof[2000][("pow", 1)] != prof[1000][("pow", 1)]


def test_moment_first_close_to_quarter_x():
    r = moment(1, 10 ** 5)
    assert r.main_term == 2.5 * 10 ** 4
    assert abs(r.integral - r.main_term) < 20 * (10 ** 5) ** 0.75


def test_moment_main_terms():
    assert moment_main_term(1, 100.0) == 25.0
    assert moment_main_term(5, 100.0) == 0.0
    assert moment_main_term(8, 2.0, 16) == 0.0  # integral of x^2 from 2 to 2
    assert moment_main_term(4, 10.0, 16) == pytest.approx(
        3 * estimate_constant("C2", 16).estimate / (64 * math.pi ** 4) * 100.0)


@pytest.mark.parametrize("k, names", [(1, []), (2, []), (3, ["C1"]), (4, ["C2"]),
                                      (5, []), (8, ["C7", "C4"])])
def test_main_term_asks_only_for_its_constants(monkeypatch, k, names):
    asked = []

    def recording(name, Y=None):
        asked.append((name, Y))
        return estimate_constant(name, 16)

    monkeypatch.setattr(series, "estimate_constant", recording)
    moment_main_term(k, 100.0)
    assert asked == [(name, None) for name in names]


def test_moment_validation():
    with pytest.raises(ValueError):
        moment(0, 100.0)
    with pytest.raises(ValueError):
        moment(9, 100.0)
    with pytest.raises(ValueError):
        moment(2, 1.0)
    with pytest.raises(ValueError):
        abs_moment(-1.0, 100.0)


def test_abs_moment_even_integer_matches_power_moment():
    assert abs_moment(2.0, 3000.0).integral == moment(2, 3000.0).integral


def test_window_spec_admissibility():
    assert WindowSpec(X=10 ** 6, H=10 ** 4).admissible
    assert not WindowSpec(X=10 ** 6, H=10.0).admissible
    assert not WindowSpec(X=10 ** 6, H=2 * 10 ** 6).admissible


def test_window_moment_equals_difference_of_full_moments():
    spec = WindowSpec(X=2000.0, H=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = window_moment(spec, 2)
    full = moment(2, 3000.0).integral - moment(2, 2000.0).integral
    assert w.integral == pytest.approx(full, rel=1e-12)


def test_window_moment_warns_when_inadmissible():
    with pytest.warns(UserWarning):
        window_moment(WindowSpec(X=10 ** 6, H=10.0), 2)
