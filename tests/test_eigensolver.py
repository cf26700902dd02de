import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jumpdiff import eigensolver
from jumpdiff.eigensolver import (
    Box,
    CharDeterminant,
    _assemble_eigenvalues,
    _moment_starts,
    _polish,
    _winding_count,
    auto_re_max,
    count_zeros,
    find_spectrum,
    gap_curve,
)
from jumpdiff.errors import BoxTooSmall, ConfigError, ContourThroughZero, JumpdiffError
from jumpdiff.model import DEFAULT_CONFIG, ComplexEigenvalue, unit_spec, validate_spec
from tests.conftest import CountingDet
from tests.test_model import make_spec

PI2 = math.pi**2


def shooting_det(spec, lam: float) -> float:
    """Boundary determinant from numerically integrated ODE solutions.

    Independent of the closed-form evaluation: integrates the second-order
    equation for the two canonical initial conditions and assembles the same
    two boundary functionals.
    """
    def ode(_t, f):
        return [f[1], -2.0 * (spec.mu * f[1] + lam * f[0]) / spec.sigma**2]

    points = sorted(set(spec.nu.locations) | {spec.b})
    cols = []
    for f0 in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(ode, (spec.a, spec.b), f0, t_eval=points,
                        rtol=1e-11, atol=1e-13)
        values = dict(zip(points, sol.y[0]))
        nu_avg = sum(w * values[x] for x, w in spec.nu.atoms)
        cols.append((f0[0] - values[spec.b], f0[0] - nu_avg))
    return cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]


def test_determinant_zero_at_origin():
    for spec in (unit_spec(0.0), unit_spec(7.0), unit_spec(-3.0),
                 make_spec(mu=2.0, atoms=((0.2, 0.3), (0.7, 0.7)))):
        assert abs(CharDeterminant(spec)(0.0)) < 1e-13


def test_determinant_zero_at_driftfree_gap(spec0):
    assert abs(CharDeterminant(spec0)(2 * PI2)) < 1e-9


def test_determinant_nonzero_off_spectrum(spec0):
    val = CharDeterminant(spec0)(1.0)
    assert abs(val) > 1e-3
    assert np.sign(val.real) == np.sign(shooting_det(spec0, 1.0))


def test_determinant_finite_on_huge_lambda():
    for mu in (0.0, 50.0, 100.0):
        spec = unit_spec(mu)
        for lam in (1e6, -1e6, 1e6j, 1e5 + 9e5j):
            val = CharDeterminant(spec)(lam)
            assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_determinant_matches_shooting_oracle(rng):
    for _ in range(20):
        mu = float(rng.uniform(0.0, 25.0))
        sigma = float(rng.uniform(0.6, 1.6))
        if rng.random() < 0.5:
            atoms = ((0.5, 1.0),)
        else:
            locs = np.sort(rng.uniform(0.1, 0.9, size=2))
            atoms = ((float(locs[0]), 0.5), (float(locs[1]), 0.5))
        spec = make_spec(sigma=sigma, mu=mu, atoms=atoms)
        lam = float(rng.uniform(0.0, 250.0))
        det = CharDeterminant(spec)
        got = complex(det(lam)) * math.exp(det.log_scale(lam))
        want = shooting_det(spec, lam)
        assert got.imag == pytest.approx(0.0, abs=1e-9 * abs(got))
        assert got.real == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_determinant_continuous_across_double_root_point(spec20):
    # lambda* = mu^2 / (2 sigma^2) = 200 is the double-root point of the
    # characteristic polynomial; the determinant must be smooth there
    lam_star = 200.0
    vals = [CharDeterminant(spec20)(lam_star + d) for d in (-1e-5, 0.0, 1e-5)]
    assert abs(vals[1] - 0.5 * (vals[0] + vals[2])) < 1e-10 * max(abs(v) for v in vals)


def test_count_zeros_examples(spec0):
    assert count_zeros(spec0, Box(1.0, 25.0, -5.0, 5.0)) == 1
    assert count_zeros(spec0, Box(-0.5, 0.5, -0.5, 0.5)) == 1
    assert count_zeros(spec0, Box(0.5, 15.0, -5.0, 5.0)) == 0
    # every zero is real at mu = 0; passing the double zeros along the real
    # axis once aliased a full turn of phase into a count of 1
    assert count_zeros(spec0, Box(0.0, 250.0, 1.0, 2.0)) == 0
    assert count_zeros(spec0, Box(0.0, 250.0, 1.0, 20.0)) == 0
    assert count_zeros(spec0, Box(0.0, 250.0, -2.0, -1.0)) == 0


def test_count_zeros_split_consistency(spec20):
    box = Box(-0.7, 150.0, -400.0, 400.0)
    total = count_zeros(spec20, box)
    lower = Box(box.re_min, box.re_max, box.im_min, 17.3)
    upper = Box(box.re_min, box.re_max, 17.3, box.im_max)
    assert total == count_zeros(spec20, lower) + count_zeros(spec20, upper)


def test_find_spectrum_driftfree(spec0):
    # at re_max = 1300 the real double zeros once broke a split count
    for re_max in (100.0, 1300.0):
        rep = find_spectrum(spec0, re_max)
        assert rep.gap == pytest.approx(2 * PI2, abs=1e-6)
        assert rep.gap_is_real
        assert_centred_spectrum(rep, spec0)


def test_find_spectrum_plateau(spec20):
    rep = find_spectrum(spec20, 200.0)
    assert rep.gap == pytest.approx(8 * PI2, abs=1e-4)
    assert not rep.gap_is_real


def test_spectrum_conjugation_closure():
    for spec in (unit_spec(20.0), unit_spec(0.0),
                 make_spec(mu=5.0, atoms=((0.25, 0.5), (0.75, 0.5)))):
        rep = find_spectrum(spec, auto_re_max(spec))
        values = [e.value for e in rep.eigenvalues]
        for v in values:
            assert any(abs(v.conjugate() - w) < 1e-7 for w in values)


def test_zero_eigenvalue_always_reported():
    for mu in (0.0, 7.0, 20.0):
        rep = find_spectrum(unit_spec(mu), 120.0)
        zero = [e for e in rep.eigenvalues if abs(e.value) < 1e-6]
        assert len(zero) == 1
        assert zero[0].multiplicity == 1


def test_residuals_below_polish_tolerance(spec20):
    rep = find_spectrum(spec20, 200.0)
    assert all(e.residual < 1e-10 for e in rep.eigenvalues)
    assert all(e.value.real >= -1e-9 for e in rep.eigenvalues)


def test_polish_evaluates_each_point_once(spec20):
    # a Newton step's value at z is the residual of the step before, and the
    # last step lands on the iterate before it
    det = CountingDet(spec20)
    start = complex(8 * PI2 + 0.5, 4 * math.pi * 20.0 + 0.5)
    box = Box(start.real - 1.0, start.real + 1.0, start.imag - 1.0, start.imag + 1.0)
    (z, r, _), = _polish(det, [(box, 1, box.center)])
    assert r < DEFAULT_CONFIG.newton_residual
    assert abs(z - complex(8 * PI2, 4 * math.pi * 20.0)) < 1e-3
    assert len(det.points) == len(set(det.points))


@pytest.mark.parametrize("mu,jobs", [
    (20.0, [(Box(-1.5, 8.5, -4.0, 8.0), 1, complex(3.5, 2.0)),
            (Box(77.0, 81.0, 249.0, 253.0), 1, complex(79.5, 251.0)),
            (Box(215.0, 225.0, -1.0, 1.0), 1, complex(221.0, 0.3)),
            (Box(100.0, 101.0, 10.0, 11.0), 1, complex(100.5, 10.5))]),
    (0.0, [(Box(-1.5, 8.5, -4.0, 8.0), 1, complex(3.5, 2.0)),
           (Box(8 * PI2 - 1.0, 8 * PI2 + 1.0, -1.0, 1.0), 3, complex(8 * PI2 + 0.3, 0.2))]),
], ids=["mu=20", "threefold-mu=0"])
def test_polish_runs_each_iterate_by_its_own_stop_rules(mu, jobs):
    # iterates polished together end where each ends polished alone, in as
    # many kernel calls as the longest of them: the zero eigenvalue (stops at
    # resolution), a complex and a real zero, an iterate that leaves its box
    # with a large residual, and a threefold zero at mu = 0
    together = CountingDet(unit_spec(mu))
    polished = _polish(together, jobs)
    calls = []
    for job, (z, r, step) in zip(jobs, polished):
        alone = CountingDet(unit_spec(mu))
        (z1, r1, step1), = _polish(alone, [job])
        calls.append(alone.calls)
        assert z == pytest.approx(z1, rel=1e-12, abs=1e-12)
        assert r == pytest.approx(r1, rel=1e-3, abs=1e-16)
        assert step == pytest.approx(step1, rel=1e-3, abs=1e-16)
        assert job[0].contains(z)
        if r < DEFAULT_CONFIG.newton_residual:
            assert min(abs(z - zero) for zero in (0.0, 8 * PI2, complex(8 * PI2, 80 * math.pi),
                                                  200 + 2 * PI2)) < 1e-3
    assert together.calls == max(calls)
    assert polished[0][1] < DEFAULT_CONFIG.newton_residual


@pytest.mark.parametrize("mu", [0.0, 4.0, 20.0])
def test_zero_eigenvalue_polish_stops_at_resolution(mu):
    # the residual of the zero eigenvalue sinks into subnormal numbers; the
    # polish must stop once its step is at floating-point resolution, well
    # before the Newton iteration cap; at mu = 0 the first exact Newton step
    # from the centre reaches Im z = -3.56, so the box reaches below that
    det = CountingDet(unit_spec(mu))
    box = Box(-1.5, 8.5, -4.0, 8.0)
    (z, r, _), = _polish(det, [(box, 1, box.center)])
    assert abs(z) < 1e-12
    assert r < DEFAULT_CONFIG.newton_residual
    assert det.calls <= 40


@pytest.mark.parametrize("mu,box", [
    (0.0, Box(0.0, 250.0, 1.0, 2.0)),
    (20.0, Box(-0.7, 150.0, -400.0, 400.0)),
    (120.0, Box(7000.0, 7500.0, -3000.0, 3000.0)),
])
def test_winding_count_one_kernel_call_per_round(mu, box):
    # an interval's refinement test reads only its two ends, so every
    # interval cut in a round is a half of one cut in the round before: R
    # rounds leave the finest interval at the initial step / 2^R, and one
    # kernel call per round makes 1 + R calls in all
    det = CountingDet(unit_spec(mu))
    _winding_count(det, box)
    n = eigensolver.CONTOUR_INITIAL_SAMPLES
    assert det.sizes[0] == 4 * n + 1
    rounds = det.calls - 1
    assert rounds >= 1
    pts = np.array(det.points)
    finest = math.inf
    for on_edge, along, length in (
            (pts.imag == box.im_min, pts.real, box.width),
            (pts.real == box.re_max, pts.imag, box.height),
            (pts.imag == box.im_max, pts.real, box.width),
            (pts.real == box.re_min, pts.imag, box.height)):
        finest = min(finest, np.diff(np.unique(along[on_edge])).min() / (length / n))
    assert finest == pytest.approx(2.0**-rounds, rel=1e-6)


def test_power_sums_place_the_zeros(spec20):
    # the moment starts of a box lie within 1e-2 half-diagonals of each
    # closed-form zero it holds, from one zero (8 pi^2 + 80 pi i at mu = 20)
    # to four (two of the real family 200 + 2 pi^2 m^2 and a complex pair)
    f = CharDeterminant(spec20)
    for box, count in ((Box(58.96, 108.96, 226.33, 291.33), 1),
                       (Box(50.0, 110.0, -300.0, 300.0), 2),
                       (Box(150.0, 450.0, -60.0, 60.0), 3),
                       (Box(250.0, 400.0, -600.0, 600.0), 4)):
        zeros = centred_spectrum(1.0, 1.0, 20.0, box)
        w = _winding_count(f, box)
        assert w.count == len(zeros) == count
        starts = _moment_starts(box, w)
        assert len(starts) == count
        for z in zeros:
            assert min(abs(s - z) for s in starts) <= 1e-2 * 0.5 * box.diag, (z, starts)


def test_gap_curve_kernel_call_budget(kernel_calls):
    # polishing from the moment start instead of the box centre halved the
    # kernel calls of the 8-drift unit sweep (600 before)
    gap_curve(unit_spec(), [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0])
    assert kernel_calls.total() <= 300, kernel_calls


def test_full_box_kernel_call_budget(kernel_calls):
    # the mu = 120 full box took 1,082 kernel calls polishing from box centres
    spec = unit_spec(120.0)
    find_spectrum(spec, auto_re_max(spec))
    assert kernel_calls.total() <= 541, kernel_calls


def test_gap_curve_newton_budget(kernel_calls):
    # one-point Newton steps took 124 kernel calls; polishing every start
    # of a solve together takes 41
    gap_curve(unit_spec(), [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0])
    assert kernel_calls["newton"] <= 51, kernel_calls


def test_full_box_newton_budget(kernel_calls):
    # 178 one-point Newton calls on the mu = 120 full box, 14 batched ones
    spec = unit_spec(120.0)
    find_spectrum(spec, auto_re_max(spec))
    assert kernel_calls["newton"] <= 18, kernel_calls


def test_gap_curve_winding_budget(wound_boxes):
    # boxes with up to four zeros polish from their moments instead of
    # splitting: 30 windings when only one- and two-zero boxes did
    gap_curve(unit_spec(), [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0])
    assert len(wound_boxes) <= 20


def test_full_box_winding_budget(wound_boxes):
    # 75 windings when only one- and two-zero boxes polished from moments
    spec = unit_spec(120.0)
    find_spectrum(spec, auto_re_max(spec))
    assert len(wound_boxes) <= 48


THREE_ATOM_SPEC = make_spec(mu=-30.0, atoms=((0.2, 0.3), (0.45, 0.5), (0.8, 0.2)))


@pytest.mark.parametrize("spec", [unit_spec(120.0), THREE_ATOM_SPEC],
                         ids=["mu=120", "three-atom-mu=-30"])
def test_no_search_below_the_real_axis(wound_boxes, spec):
    # a box wholly below the axis is wound to check its parent's split, and
    # then left: its zeros are the conjugates of zeros found above the axis
    find_spectrum(spec, auto_re_max(spec))
    below = [b for b in wound_boxes if b.im_max < 0.0]
    assert below
    for outer in below:
        for box in wound_boxes:
            inside = (outer.re_min <= box.re_min and box.re_max <= outer.re_max
                      and outer.im_min <= box.im_min and box.im_max <= outer.im_max)
            assert box == outer or not inside, (outer, box)


def test_assemble_reports_each_upper_zero_with_its_conjugate():
    raw = [(complex(-1e-12, 3e-13), 1, 2e-15), (complex(50.0, 2e-11), 1, 1e-15),
           (complex(80.0, 40.0), 2, 3e-14), (complex(80.0, -40.0), 2, 4e-14)]
    eigs = _assemble_eigenvalues(raw, 6, 100.0, DEFAULT_CONFIG.newton_residual)
    assert eigs == (ComplexEigenvalue(complex(-1e-12, 0.0), 1, 2e-15),
                    ComplexEigenvalue(complex(50.0, 0.0), 1, 1e-15),
                    ComplexEigenvalue(complex(80.0, -40.0), 2, 3e-14),
                    ComplexEigenvalue(complex(80.0, 40.0), 2, 3e-14))


@pytest.mark.parametrize("count", [4, 6])
def test_assemble_checks_the_winding_count(count):
    raw = [(0j, 1, 1e-15), (complex(80.0, 40.0), 2, 3e-14)]
    assert len(_assemble_eigenvalues(raw, 5, 100.0, DEFAULT_CONFIG.newton_residual)) == 3
    with pytest.raises(JumpdiffError, match="winds around"):
        _assemble_eigenvalues(raw, count, 100.0, DEFAULT_CONFIG.newton_residual)


def random_spec(rng):
    """1-4 atoms at least 0.02 L from the edges, |mu| L / sigma^2 <= 60."""
    length = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
    sigma = float(rng.choice([0.5, 1.0, 2.0]))
    a = float(rng.uniform(-2.0, 2.0))
    n = int(rng.integers(1, 5))
    locs = np.sort(rng.uniform(a + 0.02 * length, a + 0.98 * length, size=n))
    weights = rng.uniform(0.1, 1.0, size=n)
    mu = float(rng.uniform(-60.0, 60.0)) * sigma**2 / length
    return validate_spec(make_spec(a=a, b=a + length, sigma=sigma, mu=mu,
                                   atoms=tuple(zip(locs, weights / weights.sum()))))


@pytest.mark.parametrize("seed", range(20))
def test_random_spec_spectrum_complete(seed):
    # every zero the search box winds around is reported, polished, and the
    # gap-only solve finds the same gap
    spec = random_spec(np.random.default_rng([20261019, seed]))
    rep = find_spectrum(spec, auto_re_max(spec))
    assert sum(e.multiplicity for e in rep.eigenvalues) == count_zeros(spec, rep.search_box)
    assert all(e.residual <= DEFAULT_CONFIG.newton_residual for e in rep.eigenvalues)
    [(_, gap, gap_is_real)] = gap_curve(spec, [spec.mu])
    assert gap == pytest.approx(rep.gap, rel=1e-12)
    assert gap_is_real == rep.gap_is_real


def test_zero_eigenvalue_below_axis_at_large_drift():
    # lambda = 0 polishes to -1.2e-9 here; the sign test must use the same
    # scale-relative tolerance that recognises lambda = 0
    spec = make_spec(mu=140.9, atoms=((0.999536, 1.0),))
    rep = find_spectrum(spec, auto_re_max(spec))
    [(_, gap, gap_is_real)] = gap_curve(spec, [140.9])
    assert gap == pytest.approx(9931.412955388589, rel=1e-12)
    assert gap == pytest.approx(rep.gap, rel=1e-12)
    assert gap_is_real and rep.gap_is_real


@pytest.mark.parametrize("sigma, atom", [(0.5, 0.499953861383885), (0.617591101116841, 0.499995)],
                         ids=["newton-step", "conjugate-in-box"])
def test_edge_atom_splits_real_zeros_into_close_pairs(sigma, atom):
    # at mu = 0 an atom this close to b splits each real zero 2 pi^2 k^2
    # sigma^2 / L^2 into two, 6e-4 to 3.6e-3 apart.  newton-step: between
    # two of them an iterate of residual 1.3e-11 passed newton_residual, and
    # only its long last step shows it is no zero.  conjugate-in-box: the
    # zero 120.4649 polishes to 4.3e-7 below the axis, past the real-axis
    # tolerance, but its conjugate would be a zero closer than the cluster
    # size, so it is real
    spec = make_spec(b=0.5, sigma=sigma, atoms=((atom, 1.0),))
    rep = find_spectrum(spec, auto_re_max(spec))
    assert sum(e.multiplicity for e in rep.eigenvalues) == count_zeros(spec, rep.search_box)
    assert all(e.value.imag == 0.0 for e in rep.eigenvalues)


def centred_spectrum(length, sigma, mu, box):
    """Exact eigenvalues of a centred single atom inside the box, repeated
    by multiplicity.

    With the atom at the midpoint, 2 q exp(gamma L) D = 2 sinh(qL/2)
    (2 cosh(qL/2) - 2 cosh(gamma L/2)), so the zeros are 0, the real family
    mu^2/(2 sigma^2) + 2 pi^2 m^2 sigma^2 / L^2 (m >= 1) and the pairs
    8 pi^2 k^2 sigma^2 / L^2 +- 4 pi k mu i / L (k >= 1).
    """
    values = [0j]
    m = 1
    while (v := mu**2 / (2 * sigma**2) + 2 * PI2 * m**2 * sigma**2 / length**2) <= box.re_max:
        values.append(complex(v))
        m += 1
    k = 1
    while (v := 8 * PI2 * k**2 * sigma**2 / length**2) <= box.re_max:
        values += [complex(v, 4 * math.pi * k * mu / length),
                   complex(v, -4 * math.pi * k * mu / length)]
        k += 1
    return [v for v in values if box.contains(v)]


def assert_centred_spectrum(rep, spec):
    """The reported eigenvalues, with multiplicity, are the closed form's."""
    found = [e.value for e in rep.eigenvalues for _ in range(e.multiplicity)]
    want = centred_spectrum(spec.length, spec.sigma, spec.mu, rep.search_box)
    assert len(found) == len(want)
    for v in want:
        nearest = min(found, key=lambda w: abs(w - v))
        assert abs(nearest - v) <= 1e-6 * max(1.0, abs(v)), (v, nearest)
        found.remove(nearest)


@pytest.mark.parametrize("length,sigma", [(1.0, 1.0), (2.0, 1.3)])
@pytest.mark.parametrize("mu", [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 30.0,
                                60.0, 80.0, 120.0, -120.0, 200.0])
def test_find_spectrum_matches_centred_closed_form(length, sigma, mu):
    spec = make_spec(b=length, sigma=sigma, mu=mu, atoms=((0.5 * length, 1.0),))
    assert_centred_spectrum(find_spectrum(spec, auto_re_max(spec)), spec)


@pytest.mark.parametrize("length,sigma", [(1.0, 1.0), (2.0, 1.3)])
def test_coupling_bound_rate_is_the_gap(length, sigma):
    # the centred closed form puts the gap at the smaller of the lowest real
    # eigenvalue and the first complex pair, which is the coupling bound
    from jumpdiff.analytic import coupling_tail_bound_rate
    spec = make_spec(b=length, sigma=sigma, atoms=((0.5 * length, 1.0),))
    mus = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0]
    for mu, gap, _ in gap_curve(spec, mus):
        assert coupling_tail_bound_rate(spec.with_mu(mu)) == pytest.approx(gap, rel=1e-9)


def test_threshold_off_the_dyadic_grid():
    # threshold_locate's bracket [0, 4 mu*] puts mu* = 2 sqrt(3) pi on a
    # bisection point; on [0, 3 mu*] it is not, so this bisection has to
    # resolve the plateau onset itself
    from jumpdiff.analytic import conjectured_threshold, theoretical_gap
    spec = unit_spec()
    target = theoretical_gap(spec)
    mu_star = conjectured_threshold(spec)

    def on_plateau(mu):
        gap = gap_curve(spec, [mu])[0][1]
        return abs(gap - target) < 1e-4 * target

    lo, hi = 0.0, 3.0 * mu_star
    while hi - lo > 1e-4 * mu_star:
        mid = 0.5 * (lo + hi)
        if on_plateau(mid):
            hi = mid
        else:
            lo = mid
    assert abs(hi - mu_star) / mu_star < 5e-4


def test_box_too_small(spec0):
    with pytest.raises(BoxTooSmall):
        find_spectrum(spec0, 1.0)


@pytest.mark.parametrize("re_max,im_max", [
    (0.0, None), (-1.0, None), (math.nan, None), (math.inf, None),
    (100.0, 0.0), (100.0, -5.0), (100.0, math.nan), (100.0, math.inf),
])
def test_find_spectrum_rejects_bad_box(spec0, re_max, im_max):
    with pytest.raises(ConfigError):
        find_spectrum(spec0, re_max, im_max)


@pytest.mark.parametrize("box", [
    Box(25.0, 1.0, -5.0, 5.0), Box(1.0, 25.0, 5.0, -5.0), Box(1.0, 1.0, -5.0, 5.0),
    Box(1.0, math.nan, -5.0, 5.0), Box(1.0, 25.0, -math.inf, 5.0),
])
def test_count_zeros_rejects_bad_box(spec0, box):
    with pytest.raises(ConfigError):
        count_zeros(spec0, box)


def test_count_zeros_counts_exactly_the_box_given():
    # the top edge runs along the real axis, through the closed form's real
    # zeros; a box dilated off them holds 8 zeros where this one holds 6
    spec = make_spec(b=2.0, mu=6.3e-7, atoms=((1.0, 1.0),))
    box = Box(271.2, 631.5, -150.7, 0.0)
    assert len(centred_spectrum(2.0, 1.0, 6.3e-7, box)) == 6
    with pytest.raises(ContourThroughZero, match=r"re_min=271\.2, re_max=631\.5"):
        count_zeros(spec, box)


def test_contour_refinement_budget(monkeypatch):
    # the mu = 20 box needs more than 200 samples to resolve its phase
    monkeypatch.setattr(eigensolver, "CONTOUR_MAX_SAMPLES", 200)
    with pytest.raises(ContourThroughZero, match="refinement budget exhausted"):
        count_zeros(unit_spec(20.0), Box(-0.7, 150.0, -400.0, 400.0))
    with pytest.raises(ContourThroughZero,
                       match=f"after {eigensolver.CONTOUR_DILATIONS} dilations"):
        find_spectrum(unit_spec(20.0), 150.0)


def test_gap_curve_rejects_empty_grid():
    with pytest.raises(ConfigError):
        gap_curve(unit_spec(), [])


def test_gap_curve_winds_each_box_once(monkeypatch):
    # the solve reuses the count of the last gap-window box instead of winding
    # around it again, and each drift is solved once, without raising
    wound, solved, raised = [], [], []
    wind, solve = eigensolver._winding_count, eigensolver._solve_counted

    def counted_wind(f, box):
        wound.append((f.spec.mu, box))
        return wind(f, box)

    def counted_solve(f, *args):
        solved.append(f.spec.mu)
        try:
            return solve(f, *args)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(eigensolver, "_winding_count", counted_wind)
    monkeypatch.setattr(eigensolver, "_solve_counted", counted_solve)
    grid = [0.0, 12.0, 30.0]
    gap_curve(unit_spec(), grid)
    assert solved == grid
    assert not raised
    per_drift = Counter(mu for mu, _ in wound)
    assert sorted(per_drift) == grid
    assert len(set(wound)) == len(wound), per_drift


def test_gap_curve_solves_each_drift_once_per_process(monkeypatch):
    solved = []
    solve = eigensolver._solve_counted

    def counted_solve(f, *args):
        solved.append(f.spec.mu)
        return solve(f, *args)

    monkeypatch.setattr(eigensolver, "_solve_counted", counted_solve)
    first = gap_curve(unit_spec(), [0.0, 12.0, 0.0])
    second = gap_curve(unit_spec(), [12.0, 30.0, 0.0])
    assert solved == [0.0, 12.0, 30.0]
    assert first[0] == first[2] == second[2]
    assert first[1] == second[0]


def test_gap_curve_does_not_remember_a_failed_solve(monkeypatch):
    attempts = []
    solve = eigensolver._solve_counted

    def failing_solve(f, *args):
        attempts.append(f.spec.mu)
        raise ContourThroughZero("no usable split line")

    monkeypatch.setattr(eigensolver, "_solve_counted", failing_solve)
    for _ in range(2):
        with pytest.raises(ContourThroughZero, match="mu=12.0: no usable split line"):
            gap_curve(unit_spec(), [12.0])
    assert attempts == [12.0, 12.0]
    monkeypatch.setattr(eigensolver, "_solve_counted", solve)
    assert gap_curve(unit_spec(), [12.0])[0][1] == pytest.approx(8 * PI2, rel=1e-9)


def test_remembered_gap_is_the_solved_gap_bit_for_bit():
    grid = [0.0, 4.0, 25.0]
    solved = gap_curve(unit_spec(), grid)
    remembered = gap_curve(unit_spec(), grid)
    eigensolver._gap.cache_clear()
    fresh = gap_curve(unit_spec(), grid)
    assert [g.hex() for _, g, _ in remembered] == [g.hex() for _, g, _ in solved]
    assert remembered == solved == fresh


def test_gap_curve_anchors():
    curve = gap_curve(unit_spec(), [0.0])
    assert curve[0][1] == pytest.approx(2 * PI2, abs=1e-6)

    curve = gap_curve(unit_spec(), [20.0, 40.0])
    for _, gap, is_real in curve:
        assert gap == pytest.approx(8 * PI2, abs=1e-3)
        assert not is_real


def test_gap_plateau_flat():
    gaps = [gap for _, gap, _ in gap_curve(unit_spec(), [20.0, 30.0, 40.0])]
    assert max(gaps) - min(gaps) < 1e-3


def test_gap_below_killed_bottom_at_large_drift():
    from jumpdiff.analytic import dirichlet_bottom
    curve = gap_curve(unit_spec(), [0.0, 20.0])
    assert curve[1][1] < dirichlet_bottom(unit_spec(20.0))
    assert curve[0][1] > dirichlet_bottom(unit_spec(0.0))


def test_multiple_eigenvalue_reported_with_multiplicity(spec0):
    # the driftfree spectrum has a threefold zero above the gap
    rep = find_spectrum(spec0, 100.0)
    multiple = [e for e in rep.eigenvalues if e.multiplicity > 1]
    assert len(multiple) == 1
    assert multiple[0].multiplicity == 3
    assert multiple[0].value.real == pytest.approx(8 * PI2, abs=1e-3)
    assert multiple[0].value.imag == 0.0


def test_find_spectrum_on_scaled_shifted_interval():
    # large mu L / sigma^2 makes the determinant magnitude vary by dozens of
    # orders along one contour; the per-point closeness guard must not read
    # that as a zero on the contour
    from jumpdiff.analytic import theoretical_gap
    spec = make_spec(a=-2.0, b=3.0, sigma=0.7, mu=6.0, atoms=((0.5, 1.0),))
    rep = find_spectrum(spec, auto_re_max(spec))
    assert rep.gap == pytest.approx(theoretical_gap(spec), rel=1e-9)
    assert not rep.gap_is_real


def test_scaling_law_via_determinant(rng):
    # lambda(a, b, sigma, mu) = s^2 lambda(0, 1, sigma, mu / s) with
    # s = 1 / (b - a): check through the gap on a doubled interval
    wide = make_spec(b=2.0, mu=10.0, atoms=((1.0, 1.0),))
    rep_wide = find_spectrum(wide, auto_re_max(wide))
    narrow = unit_spec(20.0)
    rep_narrow = find_spectrum(narrow, auto_re_max(narrow))
    assert rep_wide.gap == pytest.approx(rep_narrow.gap / 4.0, rel=1e-9)


@pytest.mark.parametrize("mu", [0.0, 3.0, 11.0, 30.0, 60.0])
def test_gap_metamorphic_relations(mu):
    # no closed form for this spec: reflecting it (mu -> -mu, x -> a + b - x)
    # keeps the gap, and the map (a, b, sigma, mu, atoms) -> (s + c a, s + c b,
    # k sigma, k^2 mu / c, s + c atoms) is a time change by k^2 / c^2
    a, b, atoms = 0.0, 1.0, ((0.2, 0.3), (0.45, 0.5), (0.8, 0.2))
    c, k, s = 2.5, 1.7, -3.0

    def gap(a, b, sigma, mu, atoms):
        spec = validate_spec(make_spec(a=a, b=b, sigma=sigma, mu=mu, atoms=atoms))
        return gap_curve(spec, [mu])[0][1]

    base = gap(a, b, 1.0, mu, atoms)
    mirrored = gap(a, b, 1.0, -mu, tuple((a + b - x, w) for x, w in atoms))
    mapped = gap(s + c * a, s + c * b, k, k**2 * mu / c,
                 tuple((s + c * x, w) for x, w in atoms))
    assert mirrored == pytest.approx(base, rel=1e-10)
    assert mapped == pytest.approx(k**2 / c**2 * base, rel=1e-10)
