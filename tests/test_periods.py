"""Period lattices via the arithmetic-geometric mean."""

import math
import random
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    CURVE_A,
    CURVE_B,
    CURVE_C,
    OMEGA_A,
    OMEGA_MINUS_B,
    OMEGA_TWIST_A,
    OMEGA_TWIST_B,
    SQUARE,
    TWIST_A_D,
    TWIST_B_D,
    random_minimal_model,
    random_model,
    random_transformation,
    scan_records,
)
from strategies import integral_models, transformations
from quadrature_oracle import quadrature_real_period
from twistperiod import periods
from twistperiod.minimality import minimal_model_of_twist
from twistperiod.periods import (
    PrecisionError,
    complex_agm,
    imaginary_period,
    lattice_periods,
    period_report,
    raw_real_period,
    real_components,
    real_period,
)
from twistperiod.verification import verify_twist_period_relation
from twistperiod.twisting import twist
from twistperiod.weierstrass import Transformation, WeierstrassModel

LEMNISCATE_DIGITS = "2.6220575542921198104648395898911194136827549514316"


def lemniscate() -> mp.mpf:
    """The lemniscate period constant at the ambient working precision."""
    return mp.mpf(LEMNISCATE_DIGITS)


def _rel_error(value, reference) -> float:
    return float(abs(value - reference) / abs(reference))


# ---------------------------------------------------------------------------
# Complex AGM
# ---------------------------------------------------------------------------


def test_agm_matches_mpmath_on_positive_reals():
    rng = random.Random(5)
    with mp.workprec(160):
        for _ in range(25):
            a = mp.mpf(rng.uniform(0.01, 100))
            b = mp.mpf(rng.uniform(0.01, 100))
            assert abs(complex_agm(a, b) - mp.agm(a, b)) <= mp.agm(a, b) * mp.mpf(2) ** -140


def test_agm_fixed_point_and_homogeneity():
    with mp.workprec(160):
        z = mp.mpc(3, 4)
        assert abs(complex_agm(z, z) - z) < mp.mpf(2) ** -150
        a, b = mp.mpc(2, 1), mp.mpc(1, -1)
        lam = mp.mpc(7) / 3 + mp.mpc(0, 1)
        assert abs(complex_agm(lam * a, lam * b) - lam * complex_agm(a, b)) < mp.mpf(2) ** -140


def test_agm_symmetric():
    with mp.workprec(160):
        a, b = mp.mpc(5, 2), mp.mpc(1, 3)
        assert abs(complex_agm(a, b) - complex_agm(b, a)) < mp.mpf(2) ** -150


def test_agm_lemniscate_constant():
    # M(1, sqrt(2)) = pi / lemniscate-constant
    with mp.workprec(160):
        value = complex_agm(mp.mpf(1), mp.sqrt(2))
        assert abs(value - mp.pi / lemniscate()) < mp.mpf(2) ** -150


# ---------------------------------------------------------------------------
# Real periods
# ---------------------------------------------------------------------------


def test_real_components():
    assert real_components(CURVE_A) == 1  # negative discriminant
    assert real_components(WeierstrassModel.from_ainvs([-1, 0])) == 2


def test_square_lattice_curve():
    m = SQUARE
    with mp.workprec(160):
        reference = lemniscate()
        lattice = lattice_periods(m, 128)
        assert _rel_error(lattice.omega_real, reference) < 1e-35
        assert _rel_error(mp.im(lattice.omega_complex), reference) < 1e-35
        report = period_report(m, 128)
        assert (report.k1, report.k2) == (1, 0)
        assert report.c_inf == 2
        # the full real period includes both components
        assert _rel_error(report.omega, 2 * reference) < 1e-35


def test_pinned_real_periods():
    assert _rel_error(real_period(CURVE_A, 128), mp.mpf(OMEGA_A)) < 1e-10
    assert _rel_error(real_period(twist(CURVE_A, TWIST_A_D), 128), mp.mpf(OMEGA_TWIST_A)) < 1e-10
    assert _rel_error(real_period(twist(CURVE_B, TWIST_B_D), 128), mp.mpf(OMEGA_TWIST_B)) < 1e-10


def test_pinned_imaginary_period():
    omega_minus, k1, k2 = imaginary_period(CURVE_B, 128)
    assert (k1, k2) == (2, -1)
    assert mp.re(omega_minus) == 0
    assert _rel_error(mp.im(omega_minus), mp.mpf(OMEGA_MINUS_B)) < 1e-10


def test_recognition_constants_by_discriminant_sign():
    # The imaginary-period combination is (1, 0) for rectangular lattices
    # (positive discriminant) and (2, -1) otherwise.
    rng = random.Random(31)
    for _ in range(10):
        m = random_model(rng, bound=9)
        _, k1, k2 = imaginary_period(m, 128)
        if m.delta > 0:
            assert (k1, k2) == (1, 0)
        else:
            assert (k1, k2) == (2, -1)


def test_precision_validation():
    with pytest.raises(ValueError):
        lattice_periods(CURVE_A, 32)
    # int() would read "128" as 128 and 128.9 as 128
    with pytest.raises(TypeError):
        lattice_periods(CURVE_A, "128")
    with pytest.raises(TypeError):
        real_period(CURVE_A, 128.9)


# ---------------------------------------------------------------------------
# Invariance and scaling properties
# ---------------------------------------------------------------------------


def test_raw_period_scales_with_u():
    rng = random.Random(17)
    with mp.workprec(180):
        for _ in range(8):
            m = random_model(rng, bound=8)
            t = random_transformation(rng, bound=6)
            u = mp.mpf(t.u.numerator) / t.u.denominator
            left = raw_real_period(t.apply(m), 128)
            right = abs(u) * raw_real_period(m, 128)
            assert _rel_error(left, right) < 1e-30


def test_real_period_is_model_invariant():
    rng = random.Random(23)
    with mp.workprec(180):
        for _ in range(6):
            m = random_model(rng, bound=8)
            t = random_transformation(rng, bound=5)
            assert _rel_error(real_period(t.apply(m), 128), real_period(m, 128)) < 1e-30


def test_precision_scaling_consistency():
    for m in (CURVE_A, twist(CURVE_B, TWIST_B_D)):
        low = real_period(m, 128)
        high = real_period(m, 256)
        with mp.workprec(300):
            assert abs(low - high) <= abs(high) * mp.mpf(2) ** -110


def test_real_period_keeps_requested_precision():
    # Called at mpmath's default 53-bit context, as a library user would;
    # CURVE_A has delta < 0, SQUARE delta > 0.
    for m in (CURVE_A, SQUARE):
        omega = real_period(m, 512)
        omega_minus = imaginary_period(m, 512)[0]
        report = period_report(m, 512)
        with mp.workprec(1100):
            reference = real_period(m, 1024)
            for value in (omega, report.omega):
                assert abs(value - reference) <= abs(reference) * mp.mpf(2) ** -500
            reference = imaginary_period(m, 1024)[0]
            for value in (omega_minus, report.omega_minus):
                assert abs(value - reference) <= abs(reference) * mp.mpf(2) ** -500


# ---------------------------------------------------------------------------
# Against independent oracles
# ---------------------------------------------------------------------------


def test_agm_periods_match_quadrature_pinned():
    for m in (CURVE_A, CURVE_B, WeierstrassModel.from_ainvs([-1, 0]),
              WeierstrassModel.from_ainvs([0, 0, 1, 0, -7])):
        agm = raw_real_period(m, 128)
        reference = quadrature_real_period(m, 128)
        assert _rel_error(agm, reference) < 1e-12


def test_imaginary_period_matches_quadrature_through_twist_by_minus_one():
    # Omega(E^-1) = utilde * c_inf(E^-1) * |Omega^-(E)| for the minimal model
    # E^-1 of the twist by -1, whose real period the quadrature oracle
    # computes without the lattice code.
    rng = random.Random(59)
    by_sign = {True: [], False: []}
    while min(len(models) for models in by_sign.values()) < 10:
        m = random_model(rng, bound=9)
        by_sign[m.delta > 0].append(m)
    models = [CURVE_A, CURVE_B, SQUARE] + by_sign[True][:10] + by_sign[False][:10]
    for m in models:
        result, report = minimal_model_of_twist(m, -1)
        twisted = result.minimal
        omega_minus = imaginary_period(m, 128)[0]
        with mp.workprec(160):
            omega_minus = abs(mp.im(omega_minus))
            utilde = mp.mpf(report.utilde.numerator) / report.utilde.denominator
            reference = quadrature_real_period(twisted, 128) / (
                utilde * real_components(twisted)
            )
            assert abs(omega_minus - reference) <= reference * mp.mpf(2) ** -120, m


@given(integral_models(bound=10))
@settings(max_examples=20, deadline=None)
def test_agm_periods_match_quadrature_random(m):
    agm = raw_real_period(m, 128)
    reference = quadrature_real_period(m, 128)
    assert _rel_error(agm, reference) < 1e-12


def test_lattice_reproduces_j_invariant():
    # 1728 * klein-j of the period ratio must reproduce the algebraic
    # j-invariant; this validates both lattice generators jointly.
    rng = random.Random(41)
    with mp.workprec(170):
        for _ in range(12):
            m = random_model(rng, bound=9)
            lattice = lattice_periods(m, 128)
            tau = lattice.omega_complex / lattice.omega_real
            if mp.im(tau) < 0:
                tau = -tau
            j_analytic = mp.kleinj(tau) * 1728
            j_exact = m.j
            j_value = mp.mpf(j_exact.numerator) / j_exact.denominator
            scale = max(1, abs(j_value))
            assert abs(j_analytic - j_value) / scale < mp.mpf(2) ** -90


def test_period_report_payload():
    report = period_report(CURVE_A, 128)
    payload = report.to_json_dict()
    assert payload["c_inf"] == 1
    assert payload["k1"] == 2 and payload["k2"] == -1
    assert payload["precision_bits"] == 128
    assert isinstance(payload["omega"], str) and payload["omega"].startswith("1.298")


# ---------------------------------------------------------------------------
# The integer kernel: certified digits, one code path
# ---------------------------------------------------------------------------


def near_cusp(k: int) -> WeierstrassModel:
    """y^2 = x^3 - 3k^2*x + 2k^3 + 1 = (x - k)^2 (x + 2k) + 1: delta < 0, with
    the complex pair of roots within about k^(-1/2) of the real axis."""
    return WeierstrassModel.from_ainvs([-3 * k * k, 2 * k**3 + 1])


def split_near_double(k: int) -> WeierstrassModel:
    """y^2 = (x - k)(x - k - 1)(x + 2k + 1): delta > 0, two roots 1 apart."""
    a4, a6 = -(3 * k * k + 3 * k + 1), 2 * k**3 + 3 * k * k + k
    return WeierstrassModel.from_ainvs([a4, a6])


HARD_CURVES = [
    pytest.param(near_cusp(10**20), 128, id="near-cusp-k1e20"),
    pytest.param(near_cusp(10**6), 64, id="near-cusp-k1e6"),
    pytest.param(near_cusp(10**12), 64, id="near-cusp-k1e12"),
    pytest.param(near_cusp(10**40), 128, id="near-cusp-k1e40"),
    pytest.param(split_near_double(10**20), 128, id="split-k1e20"),
    pytest.param(
        WeierstrassModel.from_ainvs([-829300, 366514, 609391, -35843, 920330]),
        128,
        id="large-coefficients",
    ),
]


def _agreeing_bits(value, reference, working_bits: int = 4096) -> float:
    with mp.workprec(working_bits):
        gap = abs(value - reference)
        return math.inf if gap == 0 else float(-mp.log(gap / abs(reference), 2))


@pytest.mark.parametrize("m, bits", HARD_CURVES)
def test_hard_curves_get_the_requested_bits(m, bits):
    # Large roots, roots 1 apart, and a complex pair near the real axis: each
    # must reach the requested bits against a run at four times the precision.
    report = period_report(m, bits)
    reference = period_report(m, 4 * bits)
    omega_minus, reference_minus = report.omega_minus, reference.omega_minus
    assert _agreeing_bits(real_period(m, bits), reference.omega) >= bits
    assert _agreeing_bits(report.omega, reference.omega) >= bits
    assert _agreeing_bits(omega_minus, reference_minus) >= bits


def test_split_curve_matches_quadrature():
    # Roots near 10^20 and 1 apart; the quadrature oracle bisects its roots
    # from exact rationals, independently of the kernel.
    m = split_near_double(10**20)
    assert m.delta > 0
    assert _rel_error(raw_real_period(m, 128), quadrature_real_period(m, 128)) < 1e-12


def test_periods_need_neither_polyroots_nor_complex_agm(monkeypatch):
    curves = [CURVE_A, CURVE_B, SQUARE]
    pairs = [(CURVE_A, TWIST_A_D), (CURVE_B, TWIST_B_D)]
    labelled = [("A", CURVE_A), ("B", CURVE_B), ("square", SQUARE)]

    def run():
        lattices = [lattice_periods(m, bits) for m in curves for bits in (128, 1024)]
        # equality reads no period: read both, so that their AGMs run here
        read = [(lattice.omega_real, lattice.omega_complex) for lattice in lattices]
        verified = [verify_twist_period_relation(m, d) for m, d in pairs]
        return read, verified, scan_records(labelled, [-7, -1, 5], filter="all")

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the period kernel left its integer path")

    monkeypatch.setattr(mp.mp, "polyroots", refuse)
    monkeypatch.setattr(mp, "polyroots", refuse)
    monkeypatch.setattr(periods, "complex_agm", refuse)
    assert run() == expected


@pytest.mark.parametrize("bits", [128, 1024])
def test_lattice_agrees_with_twice_the_precision(bits):
    rng = random.Random(1000 + bits)
    by_sign = {True: [], False: []}
    while min(len(models) for models in by_sign.values()) < 30:
        m = random_minimal_model(rng, bound=40)
        by_sign[m.delta > 0].append(m)
    for m in by_sign[True][:30] + by_sign[False][:30]:
        low, high = lattice_periods(m, bits), lattice_periods(m, 2 * bits)
        assert _agreeing_bits(low.omega_real, high.omega_real) >= bits, m
        assert _agreeing_bits(low.omega_complex, high.omega_complex) >= bits, m


# The Newton step a planted root is made from takes its scale K as this
# argument: _root(cubic, lo, hi, s, k, gap_bits), _trace_root(cubic, e1, e3, k).
SCALE_ARGUMENT = {"_root": 4, "_trace_root": 3}


@pytest.mark.parametrize(
    "m, planted",
    [
        pytest.param(CURVE_A, "_root", id="delta<0-root"),
        pytest.param(WeierstrassModel.from_ainvs([-7, 3]), "_trace_root",
                     id="delta>0-trace-root"),
    ],
)
def test_failed_root_certificate_retries_once_then_raises(monkeypatch, m, planted):
    # A root two units off fails its certificate: the roots are recomputed
    # once at twice the working precision, and a second failure raises.
    original = getattr(periods, planted)
    expected = lattice_periods(m, 128).omega_real
    scales = []

    def off_by_two(failing_calls):
        def root(*args):
            scales.append(args[SCALE_ARGUMENT[planted]])
            shift = 2 if len(scales) <= failing_calls else 0
            return original(*args) + shift

        return root

    monkeypatch.setattr(periods, planted, off_by_two(1))
    assert _agreeing_bits(lattice_periods(m, 128).omega_real, expected) >= 128
    assert len(scales) == 2 and scales[1] == 2 * scales[0]
    scales.clear()
    monkeypatch.setattr(periods, planted, off_by_two(2))
    with pytest.raises(PrecisionError):
        lattice_periods(m, 128)
    assert len(scales) == 2


def test_trace_root_is_within_one_unit_of_the_bisected_middle_root(monkeypatch):
    # The middle root is e2 = -b2/4 - e1 - e3 and one Newton step; _root run
    # on the bracket between the critical points, as e1 and e3 are, must
    # land within one unit of it.
    rng = random.Random(73)
    models = [SQUARE, split_near_double(10**20)]
    while len(models) < 32:
        m = random_model(rng, bound=40)
        if m.delta > 0:
            models.append(m)
    original = periods._root
    calls = []

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(periods, "_root", recorded)
    for m in models:
        for bits in (64, 128, 1024):
            calls.clear()
            lattice = lattice_periods(m, bits)
            (cubic, high, _, s, k, gap_bits), (_, _, low, _, _, _) = calls
            middle = original(cubic, low, high, s, k, gap_bits)
            assert abs(lattice._roots[1] - middle) <= 1, (m, bits)


def test_a_root_one_unit_above_an_exact_root_certifies(monkeypatch):
    # SQUARE's roots -1, 0, 1 are exact at every scale. One unit above each,
    # g(X - 1) = 0 exactly: the root certifies, as it did when the two
    # values were multiplied, and two units above it does not.
    expected = lattice_periods(SQUARE, 128)
    cubic, k = expected._cubic, expected._k
    assert expected._roots == (1 << k, 0, -(1 << k))
    for root in expected._roots:
        assert periods._certified(cubic, root + 1, k)
        assert not periods._certified(cubic, root + 2, k)
    original = periods._root
    scales = []

    def one_above(cubic, lo, hi, s, k, gap_bits):
        scales.append(k)
        return original(cubic, lo, hi, s, k, gap_bits) + 1

    monkeypatch.setattr(periods, "_root", one_above)
    lattice = lattice_periods(SQUARE, 128)
    assert scales == [k, k]
    assert lattice._roots == ((1 << k) + 1, 0, -(1 << k) + 1)
    assert _agreeing_bits(lattice.omega_real, expected.omega_real) >= 128
    assert _agreeing_bits(lattice.omega_complex, expected.omega_complex) >= 128


@pytest.mark.parametrize(
    "m, smaller",
    [
        pytest.param(WeierstrassModel.from_ainvs([-7, 3]), None, id="delta>0"),
        pytest.param(CURVE_A, "omega_real", id="delta<0-alpha<0"),
        pytest.param(CURVE_C, "nu", id="delta<0-alpha>=0"),
    ],
)
def test_both_periods_keep_4096_bits(m, smaller):
    # When delta < 0, the smaller of 2beta +- alpha comes from a quotient:
    # for omega_real when alpha < 0, for nu when alpha >= 0.
    reference = lattice_periods(m, 8192)
    lattice = lattice_periods(m, 4096)
    with mock.patch.object(periods, "_quotient", wraps=periods._quotient) as quotient:
        omega_real = lattice.omega_real
        quotients_for_omega_real = quotient.call_count
        nu = lattice.omega_minus.imag
    expected = {None: (0, 0), "omega_real": (1, 1), "nu": (0, 1)}[smaller]
    assert (quotients_for_omega_real, quotient.call_count) == expected
    assert _agreeing_bits(omega_real, reference.omega_real, 8400) >= 4096
    assert _agreeing_bits(nu, reference.omega_minus.imag, 8400) >= 4096


CUBICS = st.tuples(*[st.integers(-(2**64), 2**64)] * 3)


def newton_at_full_scale(cubic, x: int, k: int) -> int:
    """The Newton step from x at scale 2^k, evaluated at that scale."""
    b2, b4, _ = cubic
    slope = (12 * x + (b2 << (k + 1))) * x + (b4 << (2 * k + 1))
    return x - (2 * periods._value(cubic, x, k) + slope) // (2 * slope)


@given(
    cubic=CUBICS,
    y=st.integers(-(2**300), 2**300),
    s=st.integers(0, 400),
    u=st.integers(0, 400),
)
@settings(max_examples=300, deadline=None)
def test_newton_at_the_lower_scale_is_the_step_at_the_shifted_point(cubic, y, s, u):
    b2, b4, _ = cubic
    assume((12 * y + (b2 << (s + 1))) * y + (b4 << (2 * s + 1)) != 0)
    assert periods._newton(cubic, y, s, s + u) == newton_at_full_scale(
        cubic, y << u, s + u
    )


@given(
    root=st.integers(-(2**64), 2**64),
    p=st.integers(-(2**64), 2**64),
    q=st.integers(-(2**64), 2**64),
    k=st.integers(0, 400),
    offset=st.integers(-3, 3) | st.integers(-(2**300), 2**300),
)
@settings(max_examples=300, deadline=None)
def test_certificate_is_the_sign_test_on_two_evaluations(root, p, q, k, offset):
    # g = 4(t - root)(t^2 + p t + q); at an offset of -1 or 1 from root * 2^k,
    # the root lands exactly on x + 1 or x - 1, where g is 0
    cubic = (4 * (p - root), 2 * (q - root * p), -4 * root * q)
    x = (root << k) + offset
    below = periods._value(cubic, x - 1, k)
    above = periods._value(cubic, x + 1, k)
    signs_differ = min(below, above) <= 0 <= max(below, above)
    assert periods._certified(cubic, x, k) == signs_differ


def with_bits(low: int, high: int):
    """Integers of low to high bits, each length about equally likely."""
    return st.integers(low, high).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
    )


@given(d=with_bits(1, 9000), data=st.data())
@settings(max_examples=300, deadline=None)
def test_cut_divisor_quotient_is_within_one_unit_of_floor_division(d, data):
    # n = q*d + r with q up to as long as d, as in the kernel, where a 4K-bit
    # numerator meets a 3K-bit divisor and the cut drops about 2K bits of each
    q = data.draw(with_bits(1, d.bit_length()))
    n = q * d + data.draw(st.integers(0, d - 1))
    assert abs(periods._quotient(n, d) - q) <= 1


def agm_by_the_loop(a: int, b: int) -> int:
    """The AGM iterated until its two means are within one unit."""
    while abs(a - b) > 1:
        a, b = (a + b) >> 1, math.isqrt(a * b)
    return a


@given(m=integral_models(bound=1000), bits=st.sampled_from([64, 128, 1024, 4096]))
@settings(max_examples=40, deadline=None)
def test_agm_series_ending_is_within_two_units_of_the_loop(m, bits):
    # the AGM's inputs as the kernel makes them, from both periods of m
    inputs = []
    original = periods._agm

    def recorded(a, b):
        inputs.append((a, b))
        return original(a, b)

    with mock.patch.object(periods, "_agm", recorded):
        lattice = lattice_periods(m, bits)
        lattice.omega_real, lattice.omega_complex
    assert len(inputs) == 2
    for a, b in inputs:
        assert abs(original(a, b) - agm_by_the_loop(a, b)) <= 2


# ---------------------------------------------------------------------------
# Periods on demand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [CURVE_A, SQUARE], ids=["delta<0", "delta>0"])
def test_periods_read_later_keep_the_requested_precision(m):
    # Each AGM runs on the first read of its period, here at a 30-bit
    # ambient precision; the value must still agree with a 1024-bit
    # recomputation to 500 bits.
    report, lattice = period_report(m, 512), lattice_periods(m, 512)
    with mp.workprec(30):
        values = [report.omega, report.omega_minus, lattice.omega_real,
                  lattice.omega_complex]
    with mp.workprec(1100):
        report, lattice = period_report(m, 1024), lattice_periods(m, 1024)
        references = [report.omega, report.omega_minus, lattice.omega_real,
                      lattice.omega_complex]
        for value, reference in zip(values, references):
            assert abs(value - reference) <= abs(reference) * mp.mpf(2) ** -500


def test_reports_compare_by_their_certified_integer_data():
    read, unread = lattice_periods(CURVE_A, 128), lattice_periods(CURVE_A, 128)
    assert read.omega_real > 0
    assert read == unread and hash(read) == hash(unread)
    assert read != lattice_periods(CURVE_A, 192)
    assert read != lattice_periods(CURVE_B, 128)
    # x -> x + 1 keeps the lattice but changes the cubic: lattice_periods of
    # the two models differ, period_report reads one minimal model for both
    moved = Transformation(1, 1, 0, 0).apply(CURVE_A)
    shifted = lattice_periods(moved, 128)
    assert shifted != read
    assert _agreeing_bits(shifted.omega_real, read.omega_real) >= 128
    assert period_report(moved, 128) == period_report(CURVE_A, 128)
    assert period_report(CURVE_B, 128) == period_report(CURVE_B, 128)
    assert period_report(CURVE_B, 128) != period_report(CURVE_A, 128)


@pytest.mark.parametrize("sign", [1, -1], ids=["delta>0", "delta<0"])
@given(m=integral_models(bound=10), t=transformations())
@settings(max_examples=25, deadline=None)
def test_one_report_per_lattice(sign, m, t):
    # c_inf and (k1, k2) are read off the sign of delta, and isomorphic
    # models give one report
    assume(sign * m.delta > 0)
    lattice = lattice_periods(m, 64)
    assert lattice.c_inf == real_components(m)
    assert (lattice.k1, lattice.k2) == ((1, 0) if sign > 0 else (2, -1))
    assert period_report(t.apply(m), 64) == period_report(m, 64)
