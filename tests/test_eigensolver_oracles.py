"""The determinant kernel, the reported roots and the gap-only search box
against routes that share no code with the solver.

The oracle determinant is the 2x2 boundary determinant of the conditions
f(a) = f(b) and f(a) = sum_i w_i f(x_i), expanded directly in mpmath.  The
expansion cancels catastrophically (products of size exp(|Re q| (b - a))
meet in a difference of size 1), so it runs with enough guard digits to
keep 30 correct ones.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jumpdiff.eigensolver import (
    Box,
    CharDeterminant,
    _count_with_dilation,
    _gap_window,
    _solve_counted,
    auto_re_max,
    count_zeros,
    find_spectrum,
    gap_curve,
)
from jumpdiff.errors import BoxTooSmall, ContourThroughZero, JumpdiffError
from jumpdiff.model import DEFAULT_CONFIG, validate_spec
from tests.test_eigensolver import centred_spectrum
from tests.test_model import make_spec

DIGITS = 30
PI2 = math.pi**2
THREE_ATOMS = ((0.2, 0.3), (0.45, 0.5), (0.8, 0.2))


def mp_det(spec, lam):
    """Unscaled boundary determinant at lambda, to the working precision."""
    sig2 = mp.mpf(spec.sigma) ** 2
    mu = mp.mpf(spec.mu)
    lam = mp.mpc(lam)
    q = mp.sqrt(mu**2 - 2 * sig2 * lam) / sig2
    guard = int(2 * abs(mp.re(q)) * spec.length / math.log(10)) + 10
    with mp.extradps(guard):
        q = mp.sqrt(mu**2 - 2 * sig2 * lam) / sig2
        gamma = mu / sig2

        def c(x):
            d = mp.mpf(x) - spec.a
            return mp.exp(-gamma * d) * mp.cosh(q * d)

        def s(x):
            d = mp.mpf(x) - spec.a
            return mp.exp(-gamma * d) * (mp.sinh(q * d) / q if q != 0 else d)

        avg_c = mp.fsum(w * c(x) for x, w in spec.nu.atoms)
        avg_s = mp.fsum(w * s(x) for x, w in spec.nu.atoms)
        value = s(spec.b) * (1 - avg_c) - (1 - c(spec.b)) * avg_s
    return +value


def test_oracle_matches_shooting_convention():
    # the same determinant the shooting oracle of test_eigensolver assembles
    from tests.test_eigensolver import shooting_det
    spec = make_spec(mu=3.0, atoms=((0.3, 0.4), (0.6, 0.6)))
    for lam in (1.0, 40.0, 90.0):
        with mp.workdps(DIGITS):
            value = mp_det(spec, lam)
        assert float(mp.re(value)) == pytest.approx(
            shooting_det(spec, lam), rel=1e-6, abs=1e-12)


def _kernel_points(spec):
    lam_star = spec.mu**2 / (2.0 * spec.sigma**2)
    far = [0.5 + 0.1j, 50.0 - 30.0j, 300.0 + 200.0j, 2000.0 - 2000.0j,
           -100.0 + 2900.0j, 2900.0 + 0.0j, 1500.0 + 2500.0j]
    # every term takes its series branch within 1e-9 of lambda* = mu^2 / (2
    # sigma^2); some do at 1e-5, none at 0.01, where the exact branch of the
    # derivative cancels most
    near = [lam_star + 1e-10, lam_star - 3e-10 + 5e-10j, lam_star + 1e-9j,
            lam_star + 1e-5, lam_star + 0.01, lam_star - 0.01j]
    return far + near


@pytest.mark.parametrize("mu", [0.0, 20.0, -120.0])
@pytest.mark.parametrize("atoms", [((0.5, 1.0),), THREE_ATOMS], ids=["centred", "three-atom"])
def test_kernel_value_and_derivative_match_mpmath(mu, atoms):
    spec = make_spec(mu=mu, atoms=atoms)
    f = CharDeterminant(spec)
    for lam in _kernel_points(spec):
        det, mag, ddet = f.with_derivative(np.array([lam]))
        # both at the kernel's exp(-s) scale
        with mp.workdps(DIGITS):
            scale = mp.exp(-f.log_scale(lam))
            want = complex(mp_det(spec, lam) * scale)
            want_d = complex(mp.diff(lambda z: mp_det(spec, z), mp.mpc(lam)) * scale)
        assert abs(det[0] - want) <= 1e-12 * mag[0], lam
        # a term's derivative is its size times d / (sigma^2 |q|), or d^2 / sigma^2
        # as q -> 0
        abs_q = abs(np.sqrt(spec.mu**2 - 2.0 * spec.sigma**2 * lam + 0j)) / spec.sigma**2
        d_mag = mag[0] * spec.length * min(spec.length, 1.0 / abs_q) / spec.sigma**2
        assert abs(ddet[0] - want_d) <= 1e-10 * d_mag, lam
        assert f.with_scale(np.array([lam]))[0][0] == det[0]


def test_log_scale_recovers_the_unscaled_determinant_under_reflection():
    for spec in (make_spec(b=2.0, sigma=1.3, mu=-7.0, atoms=((0.3, 1.0),)),
                 make_spec(a=-1.0, b=2.0, sigma=0.7, mu=-4.0,
                           atoms=((0.2, 0.5), (1.5, 0.5)))):
        f = CharDeterminant(spec)
        for lam in (0.5 + 0.1j, 300.0 + 200.0j):
            got = f(lam) * math.exp(f.log_scale(lam))
            with mp.workdps(DIGITS):
                want = complex(mp_det(spec, lam))
            assert abs(got - want) <= 1e-12 * abs(want)


def _assert_high_precision_roots(spec) -> int:
    """Every reported eigenvalue within 1e-9 relative of a 30-digit root
    started there; returns how many were reported."""
    rep = find_spectrum(spec, auto_re_max(spec))
    f = CharDeterminant(spec)
    for e in rep.eigenvalues:
        # a constant divisor, the determinant's generic size near the start,
        # brings findroot's absolute tolerance to the right scale
        size = float(f.with_scale(np.array([e.value]))[1][0]) * math.exp(f.log_scale(e.value))
        with mp.workdps(DIGITS):
            root = complex(mp.findroot(lambda z: mp_det(spec, z) / size, mp.mpc(e.value)))
        assert abs(root - e.value) <= 1e-9 * max(1.0, abs(root)), (e.value, root)
    return len(rep.eigenvalues)


def test_benchmark_three_atom_eigenvalues_are_roots():
    # the non-centred case of the spectrum benchmark: reflection branch, 12 zeros
    assert _assert_high_precision_roots(make_spec(mu=-30.0, atoms=THREE_ATOMS)) == 12


def test_edge_atom_eigenvalues_are_roots():
    assert _assert_high_precision_roots(make_spec(mu=7.0, atoms=((0.006, 0.4), (0.6, 0.6)))) > 1


# ---------------------------------------------------------------------------
# The gap-only search box
# ---------------------------------------------------------------------------

def test_gap_curve_long_interval_extreme_drift():
    # the automatic box underflows the determinant here (ContourThroughZero);
    # the certified box is a few hundred units tall and does not
    spec = make_spec(b=10.0, atoms=((5.0, 1.0),))
    (mu, gap, is_real), = gap_curve(spec, [200.0])
    assert gap == pytest.approx(8 * PI2 / 100.0, rel=1e-10)
    assert not is_real


SPECS = {
    "unit": make_spec(atoms=((0.5, 1.0),)),
    "L2-sigma1.3": make_spec(b=2.0, sigma=1.3, atoms=((1.0, 1.0),)),
    "two-atom": make_spec(atoms=((0.25, 0.5), (0.75, 0.5))),
    "three-atom": make_spec(atoms=THREE_ATOMS),
}
DRIFTS = [0.0, 4.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 60.0, 80.0, 120.0, -120.0,
          -30.0, 200.0]
CASES = ([pytest.param(spec, DRIFTS, id=name) for name, spec in SPECS.items()]
         + [pytest.param(make_spec(b=10.0, atoms=((5.0, 1.0),)),
                         [0.0, 0.5, 1.0, 2.0, 5.0, -5.0, 10.0], id="L10")])


@pytest.mark.parametrize("spec, drifts", CASES)
def test_gap_curve_matches_the_full_box(spec, drifts):
    for mu, gap, is_real in gap_curve(spec, drifts):
        s = spec.with_mu(mu)
        rep = find_spectrum(s, auto_re_max(s))
        assert gap == pytest.approx(rep.gap, rel=1e-10), mu
        assert is_real == rep.gap_is_real, mu
        if s.is_centered_delta:
            exact = min(v.real for v in centred_spectrum(
                s.length, s.sigma, mu, rep.search_box) if v != 0)
            assert gap == pytest.approx(exact, rel=1e-10), mu


def _q(spec, lam):
    return np.sqrt(spec.mu**2 - 2.0 * spec.sigma**2 * lam + 0j) / spec.sigma**2


@st.composite
def specs(draw):
    length = draw(st.floats(0.5, 3.0))
    sigma = draw(st.floats(0.5, 2.0))
    mu = draw(st.floats(-60.0, 60.0))
    n = draw(st.integers(1, 3))
    locs = sorted(set(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))))
    weights = draw(st.lists(st.floats(0.2, 1.0), min_size=len(locs), max_size=len(locs)))
    total = sum(weights)
    return make_spec(b=length, sigma=sigma, mu=mu,
                     atoms=tuple((x * length, w / total) for x, w in zip(locs, weights)))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs())
def test_every_zero_lies_in_the_certified_strip(spec):
    # a box 20 times taller than wide reaches far past the certified height
    re_max = 16.0 * spec.sigma**2 * PI2 / spec.length**2
    x = CharDeterminant(spec).re_q_bound()
    try:
        rep = find_spectrum(spec, re_max, 20.0 * re_max)
    except BoxTooSmall:
        return
    for e in rep.eigenvalues:
        # roots are located to about 1e-12 relative; a centred atom puts a
        # whole family on Re q = |mu| / sigma^2, where X is tight
        assert abs(_q(spec, e.value).real) < x * (1.0 + 1e-9), e.value


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(length=st.sampled_from([1.0, 2.0]), sigma=st.sampled_from([1.0, 1.3]),
       mu=st.floats(-150.0, 150.0), re_min=st.floats(-5.0, 3000.0),
       width=st.floats(0.5, 600.0), im_min=st.floats(-2000.0, 2000.0),
       height=st.floats(0.5, 800.0))
# the corner (2702, 0) is 0.1 from the triple zero at 2702.1: |det| / mag there
# is 4e-10, below CONTOUR_MIN_MODULUS_REL, and no dilation moves it far enough
@example(length=2.0, sigma=1.3, mu=0.0, re_min=2697.0, width=5.0, im_min=0.0, height=1.0)
def test_count_zeros_matches_the_centred_closed_form(length, sigma, mu, re_min, width,
                                                     im_min, height):
    # the count is that of the box the contour finally ran along, which a
    # zero on or near the edge moves outward by up to one percent
    spec = make_spec(b=length, sigma=sigma, mu=mu, atoms=((0.5 * length, 1.0),))
    box = Box(re_min, re_min + width, im_min, im_min + height)
    try:
        w, used = _count_with_dilation(CharDeterminant(spec), box)
    except ContourThroughZero:
        return
    assert w.count == len(centred_spectrum(length, sigma, mu, used)), used


# ---------------------------------------------------------------------------
# Fuzzing the solver
# ---------------------------------------------------------------------------

@st.composite
def fuzz_specs(draw, edges=True):
    """1-4 atoms, some within 1e-3 of an edge unless ``edges`` is false, and
    a drift with |mu| L / sigma^2 <= 200."""
    length = draw(st.floats(0.5, 3.0))
    sigma = draw(st.floats(0.5, 2.0))
    peclet = draw(st.floats(-200.0, 200.0))
    n = draw(st.integers(1, 4))
    place = st.floats(0.01, 0.99)
    if edges:
        place = st.one_of(place, st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6))
    locs = draw(st.lists(place, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return validate_spec(make_spec(b=length, sigma=sigma, mu=peclet * sigma**2 / length,
                                   atoms=tuple((x * length, w / total)
                                               for x, w in zip(locs, weights))))


def _assert_complete(solve, spec) -> None:
    """The report of ``solve()`` accounts for every zero of its search box,
    each polished, with a finite gap, unless the solve raises a typed error."""
    try:
        rep = solve()
    except JumpdiffError:
        return
    assert math.isfinite(rep.gap)
    assert sum(e.multiplicity for e in rep.eigenvalues) == count_zeros(spec, rep.search_box)
    assert all(e.residual <= DEFAULT_CONFIG.newton_residual for e in rep.eigenvalues)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_specs())
def test_fuzzed_specs_solve_completely_or_raise_typed_errors(spec):
    # the gap-only solve of gap_curve up to |mu| L / sigma^2 = 200, and the
    # full automatic box up to 60
    f = CharDeterminant(spec)
    _assert_complete(lambda: _solve_counted(f, *_gap_window(f)), spec)
    if abs(spec.mu) * spec.length / spec.sigma**2 <= 60.0:
        _assert_complete(lambda: find_spectrum(spec, auto_re_max(spec)), spec)


def _mp_strip_sum(spec, x):
    """Sum of the moduli of the terms besides 1 in e^{-qL} 2 q e^{gL} D at
    Re q = x, for the drift made positive by reflecting the atoms, in mpmath."""
    L, g = mp.mpf(spec.length), abs(mp.mpf(spec.mu)) / mp.mpf(spec.sigma) ** 2
    total = mp.exp(-2 * x * L)
    for loc, w in spec.nu.atoms:
        d = mp.mpf(loc) - spec.a if spec.mu >= 0.0 else spec.b - mp.mpf(loc)
        total += w * (mp.exp((g - x) * (L - d)) + mp.exp(g * (L - d) - x * (L + d))
                      + mp.exp(-(g + x) * d) + mp.exp(-g * d - x * (2 * L - d)))
    return total


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_specs(edges=False))
def test_re_q_bound_matches_an_mpmath_bisection(spec):
    # X bounds the strip: the terms sum below 1 there, up to the rounding of
    # the floating-point sum that was tested (each exponent, of size up to
    # (g + 2 X) L, is rounded relative to its size), and X is where they
    # cross 1.  An atom within 1e-6 L of an edge makes terms of slope
    # -1e-6 L in x, which leave the crossing uncertain by 1e-10 and are left out
    x = CharDeterminant(spec).re_q_bound()
    size = (abs(spec.mu) / spec.sigma**2 + 2.0 * x) * spec.length
    with mp.workdps(40):
        assert _mp_strip_sum(spec, mp.mpf(x)) < 1 + 1e-15 * (1.0 + size)
        lo, hi = mp.mpf(0), mp.mpf(1)
        while _mp_strip_sum(spec, hi) >= 1:
            lo, hi = hi, 2 * hi
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if _mp_strip_sum(spec, mid) < 1 else (mid, hi)
        assert x == pytest.approx(float(hi), rel=1e-12)
