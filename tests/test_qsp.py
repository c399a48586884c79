import collections
import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limspace import boolfun, circuits, qsp, simulate


def _solved_quadruple(spec):
    """The quadruple on the schedule and degree synthesize settles on."""
    params, _ = qsp.synthesize(spec)
    a, b = qsp.solve_ab(spec, params)
    c, d = qsp.complete_cd(a, b, _weight_points(params, spec.n))
    return params, qsp.QspQuadruple(a, b, c, d)


def _weight_points(params, n):
    return params.phi(np.arange(n + 1))


def test_signal_params_layout():
    p = qsp.signal_params_general(3)
    assert (p.step, p.offset, p.L, p.maj_symmetry) == (math.pi / 4, 0.0, 13, False)
    m = qsp.signal_params_maj(3)
    assert m.step == math.pi / 2
    assert m.offset == pytest.approx(math.pi / 4)
    assert (m.L, m.maj_symmetry) == (7, True)
    assert m.phi(2) == pytest.approx(math.pi - math.pi / 4)
    with pytest.raises(ValueError):
        qsp.SignalParams(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        qsp.signal_params_maj(4)


def test_only_majority_and_its_complement_meet_the_majority_schedule():
    """Of the 2^((n+1)/2) profiles with f(w) = 1 - f(n - w), the only ones
    the majority schedule can carry, majority and its complement solve and
    complete there at every odd n <= 23; every other one misses its targets."""
    for n in range(1, 24, 2):
        params = qsp.signal_params_maj(n)
        majority = boolfun.maj_spec(n).by_weight
        solved = []
        for low in itertools.product((0, 1), repeat=(n + 1) // 2):
            spec = boolfun.SymmetricSpec(n, low + tuple(1 - v for v in reversed(low)))
            if spec.by_weight not in (majority, tuple(1 - v for v in majority)):
                with pytest.raises(qsp.SolveError, match="constraint residual"):
                    qsp.solve_ab(spec, params)
                continue
            a, b = qsp.solve_ab(spec, params)
            qsp.complete_cd(a, b, _weight_points(params, n))
            solved.append(spec)
        assert len(solved) == 2, n


def test_synthesize_chooses_the_schedule_and_raises_the_stage_error(monkeypatch):
    params, angles = qsp.synthesize(boolfun.maj_spec(5))
    assert params == qsp.signal_params_maj(5)
    assert angles.L == params.L
    # slsb4's pair at 4n + 1 overshoots one; the search moves up to 4n + 3.
    with pytest.raises(qsp.CompletionError, match="P over its known zeros dips"):
        params = qsp.signal_params_general(4)
        qsp.complete_cd(*qsp.solve_ab(boolfun.slsb_spec(4), params), _weight_points(params, 4))
    params, _ = qsp.synthesize(boolfun.slsb_spec(4))
    assert params == qsp.signal_params_general(4, 19)
    # slsb7 is anti-symmetric but not majority: its targets miss the
    # majority schedule, and synthesize takes the general one.
    with pytest.raises(qsp.SolveError, match="constraint residual 5.000e-01"):
        qsp.solve_ab(boolfun.slsb_spec(7), qsp.signal_params_maj(7))
    params, angles = qsp.synthesize(boolfun.slsb_spec(7))
    assert params == qsp.signal_params_general(7, 31)
    assert angles.L == params.L == 31
    params, angles = qsp.synthesize(boolfun.SymmetricSpec(4, (0, 1, 1, 0, 0)))
    assert angles.L == params.L == 19
    # At the cap the last stage error is raised: degrees 17, 19, ..., 25 tried.
    tried = []

    def refuse(a, b, phis):
        tried.append(max(a.degree, b.degree))
        raise qsp.CompletionError(f"refused at {tried[-1]}")

    monkeypatch.setattr(qsp, "complete_cd", refuse)
    with pytest.raises(qsp.CompletionError, match="refused at 25"):
        qsp.synthesize(boolfun.slsb_spec(4))
    assert tried == [17, 19, 21, 23, 25]
    # Majority and its complement try the majority schedule only.
    for values in (boolfun.maj_spec(5).by_weight, (1, 1, 1, 0, 0, 0)):
        tried.clear()
        with pytest.raises(qsp.CompletionError, match="refused at 11"):
            qsp.synthesize(boolfun.SymmetricSpec(5, values))
        assert tried == [11]


def test_trig_polynomial_evaluation_and_laurent():
    poly = qsp.TrigPolynomial("cos", [0.25, -0.5, 1.0])
    assert poly.degree == 5
    phi = 0.7
    manual = 0.25 * math.cos(phi / 2) - 0.5 * math.cos(3 * phi / 2) + math.cos(5 * phi / 2)
    assert poly(phi) == pytest.approx(manual, abs=1e-14)
    lau = poly.laurent()
    t = np.exp(0.5j * phi)
    powers = np.arange(-poly.degree, poly.degree + 1)
    assert complex(np.sum(lau * t**powers)) == pytest.approx(manual, abs=1e-12)
    with pytest.raises(ValueError):
        qsp.TrigPolynomial("tan", [1.0])
    with pytest.raises(ValueError):
        poly.laurent(3)


@given(
    st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=6),
    st.floats(min_value=-6.0, max_value=6.0),
)
@settings(max_examples=80, deadline=None)
def test_component_symmetries(coeffs, phi):
    a = qsp.TrigPolynomial("cos", coeffs)
    b = qsp.TrigPolynomial("sin", coeffs)
    assert a(phi) == pytest.approx(a(-phi), abs=1e-10)
    assert a(2 * math.pi - phi) == pytest.approx(-a(phi), abs=1e-10)
    assert b(-phi) == pytest.approx(-b(phi), abs=1e-10)
    assert b(2 * math.pi + phi) == pytest.approx(-b(phi), abs=1e-10)


def test_majority_shortcut_hits_targets():
    spec = boolfun.maj_spec(3)
    params = qsp.signal_params_maj(3)
    a, b = qsp.solve_ab(spec, params)
    phis = params.phi(np.arange(4))
    assert np.max(np.abs(a(phis) - np.array([1, 1, 0, 0]))) <= 1e-10
    assert np.max(np.abs(b(phis) - np.array([0, 0, 1, 1]))) <= 1e-10
    assert np.max(np.abs(a.derivative(phis))) <= 1e-10
    assert np.max(np.abs(b.derivative(phis))) <= 1e-10
    signs = (-1.0) ** np.arange(a.coeffs.size)
    assert np.allclose(b.coeffs, signs * a.coeffs)


def test_majority_shortcut_rejects_asymmetric_targets():
    spec = boolfun.SymmetricSpec(3, (0, 1, 1, 0))
    with pytest.raises(qsp.SolveError, match="constraint residual"):
        qsp.solve_ab(spec, qsp.signal_params_maj(3))


def test_solver_complements_targets_with_true_empty_word():
    spec = boolfun.SymmetricSpec(3, (1, 1, 0, 0))
    params = qsp.signal_params_maj(3)
    a, b = qsp.solve_ab(spec, params)
    phis = params.phi(np.arange(4))
    flipped = np.array([0, 0, 1, 1], dtype=float)
    assert np.max(np.abs(b(phis) - flipped)) <= 1e-10
    assert np.max(np.abs(a(phis) - (1 - flipped))) <= 1e-10


def test_completed_envelope_is_nonnegative_and_unitary():
    for spec in (boolfun.maj_spec(3), boolfun.slsb_spec(4)):
        params = qsp.synthesize(spec)[0]
        a, b = qsp.solve_ab(spec, params)
        grid = np.linspace(-2 * math.pi, 2 * math.pi, 10000)
        p = 1.0 - a(grid) ** 2 - b(grid) ** 2
        assert float(np.min(p)) >= -1e-9
        quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b, _weight_points(params, spec.n)))
        assert quad.unitarity_defect() <= 1e-8
        fine = np.linspace(-2 * math.pi, 2 * math.pi, 20000, endpoint=False)
        total = sum(p(fine) ** 2 for p in (quad.a, quad.b, quad.c, quad.d))
        assert float(np.max(np.abs(total - 1.0))) <= 1e-8


def test_majority_envelope_stays_in_unit_band():
    spec = boolfun.maj_spec(3)
    params = qsp.signal_params_maj(3)
    a, b = qsp.solve_ab(spec, params)
    grid = np.linspace(0.0, math.pi, 5000)
    e = a(grid) + b(grid)
    assert float(np.min(e)) >= -1e-9
    assert float(np.max(e)) <= 1.0 + 1e-9


def test_quadruple_kind_validation():
    cosp = qsp.TrigPolynomial("cos", [1.0])
    sinp = qsp.TrigPolynomial("sin", [0.0])
    with pytest.raises(ValueError):
        qsp.QspQuadruple(sinp, sinp, sinp, cosp)
    with pytest.raises(ValueError):
        qsp.QspQuadruple(cosp, cosp, sinp, cosp)


def _profiles(n: int):
    """Every symmetric profile of arity n with f(0) = 0."""
    return [boolfun.SymmetricSpec(n, (0, *tail)) for tail in itertools.product((0, 1), repeat=n)]


# How many profiles with f(0) = 0 settle at each degree L, per arity.
_DEGREES = {
    1: {3: 1, 5: 1},
    2: {9: 2, 11: 2},
    3: {7: 1, 13: 2, 15: 5},
    4: {17: 2, 19: 14},
    5: {11: 1, 21: 3, 23: 28},
    6: {25: 3, 27: 61},
    7: {15: 1, 29: 3, 31: 121, 33: 3},
    8: {33: 4, 35: 238, 37: 12, 39: 2},
}


def test_synthesis_is_total_up_to_arity_8():
    """Every profile with f(0) = 0 and n <= 8 synthesizes within the search,
    and its compiled and merged circuit computes it."""
    for n in range(1, 9):
        degrees = collections.Counter()
        for spec in _profiles(n):
            params, angles = qsp.synthesize(spec)
            assert angles.L == params.L <= 4 * n + 7, spec
            assert params.maj_symmetry == (n % 2 == 1 and spec == boolfun.maj_spec(n)), spec
            degrees[params.L] += 1
            merged = circuits.merge_adjacent(circuits.compile_qsp(spec, angles, params))
            assert simulate.asp(merged, boolfun.make_symmetric(spec)).asp >= 1.0 - 1e-9, spec
        assert degrees == _DEGREES[n], n


def test_completion_divides_out_zeros_at_zero_and_pi():
    """P = 1 - A^2 - B^2 vanishes at phi = pi off the weight points for
    these profiles (A(pi) = 0 at odd L), and maj5's weight points include
    phi = 0 and pi, with w = 0 and 2 on one cos; each completes at the
    first degree it tries."""
    for values, L in (((0, 1, 0), 9), ((0, 0, 1, 0, 0, 0), 21), ((0, 0, 0, 1, 0, 0, 0, 0, 0), 33)):
        spec = boolfun.SymmetricSpec(len(values) - 1, values)
        params = qsp.signal_params_general(spec.n, L)
        a, b = qsp.solve_ab(spec, params)
        assert abs(1.0 - a(math.pi) ** 2 - b(math.pi) ** 2) <= 1e-12
        assert math.pi not in _weight_points(params, spec.n)
        assert qsp.synthesize(spec)[0] == params
    x = np.cos(_weight_points(qsp.signal_params_maj(5), 5))
    assert np.allclose(x[[1, 4]], [1.0, -1.0]) and np.isclose(x[0], x[2])
    assert qsp.synthesize(boolfun.maj_spec(5))[0] == qsp.signal_params_maj(5)


# Its pair overshoots at every degree up to 4n + 7 and completes at 4n + 9.
_LATE_PROFILES = {18: [(0, 0, 0, 0, 0, 1, 0, 1, 1, 1) + (0,) * 9]}


@pytest.mark.parametrize("n", [17, 18])
def test_synthesis_reaches_arity_17_and_18(n):
    """slsb, two seeded random profiles and, at n = 18, one that settles at
    4n + 9: a unitary completion and angles whose <1|U(phi_w)|0> carries
    f(w) at every weight point."""
    specs = [boolfun.slsb_spec(n)]
    for seed in (1, 2):
        tail = np.random.default_rng(seed).integers(0, 2, size=n)
        specs.append(boolfun.SymmetricSpec(n, (0, *map(int, tail))))
    late = [boolfun.SymmetricSpec(n, values) for values in _LATE_PROFILES.get(n, [])]
    for spec in specs + late:
        params, angles = qsp.synthesize(spec)
        if spec in late:
            assert params.L == 4 * n + 9
        phis = _weight_points(params, n)
        a, b = qsp.solve_ab(spec, params)
        assert qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b, phis)).unitarity_defect() <= 1e-8
        u = qsp.reconstruct(angles, phis)
        np.testing.assert_allclose(np.abs(u[:, 1, 0]) ** 2, spec.by_weight, rtol=0, atol=1e-9)


_ANGLE_DIGEST = """
import hashlib, itertools
from limspace import boolfun, qsp
h = hashlib.sha256()
for n in range(1, 8):
    for tail in itertools.product((0, 1), repeat=n):
        h.update(qsp.synthesize(boolfun.SymmetricSpec(n, (0, *tail)))[1].xi.tobytes())
print(h.hexdigest())
"""


def test_synthesis_does_not_depend_on_the_blas_thread_count():
    """One sha256 over the angle bytes of every profile with f(0) = 0 and
    n <= 7, under one and under two BLAS threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsp.__file__)))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _ANGLE_DIGEST],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    digests = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(digests[0].strip()) == 64
    assert digests[0] == digests[1]


@functools.cache
def _arity_pairs(n: int) -> tuple:
    """(A, B, weight points) from solve_ab for every symmetric profile of
    arity n with f(0) = 0, on the schedule and degree synthesize settles
    on; shared by the tests."""
    schedules = [(spec, qsp.synthesize(spec)[0]) for spec in _profiles(n)]
    return tuple((*qsp.solve_ab(s, p), _weight_points(p, n)) for s, p in schedules)


def test_squared_magnitude_kernel_matches_direct_evaluation():
    rng = np.random.default_rng(20240614)
    for L in range(1, 42, 2):
        size = (L + 1) // 2
        a = qsp.TrigPolynomial("cos", rng.uniform(-1, 1, size) / size)
        b = qsp.TrigPolynomial("sin", rng.uniform(-1, 1, rng.integers(1, size + 1)) / size)
        s = qsp._square_sum(a, b)
        for points in (101, 100001, 200001):
            grid = np.linspace(0.0, math.pi, points)
            direct = a(grid) ** 2 + b(grid) ** 2
            np.testing.assert_allclose(
                qsp._squared_magnitude(s, points), direct, rtol=0, atol=1e-12
            )
            if points == 100001:
                overshoot = qsp.squared_magnitude_overshoot(a, b)
                assert abs(overshoot - (float(direct.max()) - 1.0)) <= 1e-12


def test_every_refused_degree_dips_below_zero(monkeypatch):
    """Every degree synthesize tries for a class with n <= 6 that reaches
    completion: refusals are the known-zero quotient's, and a direct
    evaluation of 1 - A^2 - B^2 on a 20001-point grid backs each decision."""
    rungs = []
    complete_cd = qsp.complete_cd

    def record(a, b, phis):
        try:
            cd = complete_cd(a, b, phis)
        except qsp.CompletionError as exc:
            rungs.append((a, b, exc))
            raise
        rungs.append((a, b, None))
        return cd

    monkeypatch.setattr(qsp, "complete_cd", record)
    for n in range(1, 7):
        for spec in _profiles(n):
            qsp.synthesize(spec)
    refused = [(a, b, exc) for a, b, exc in rungs if exc is not None]
    assert (len(refused), len(rungs) - len(refused)) == (110, 126)
    grid = np.linspace(0.0, math.pi, 20001)
    for a, b, exc in rungs:
        low = float(np.min(1.0 - a(grid) ** 2 - b(grid) ** 2))
        if exc is None:
            assert low >= -1e-9
        else:
            assert str(exc).startswith("P over its known zeros dips to")
            assert low < -1e-3


def test_completion_rejects_oversized_components():
    a = qsp.TrigPolynomial("cos", [1.2])
    b = qsp.TrigPolynomial("sin", [0.0])
    with pytest.raises(qsp.CompletionError, match="P over its known zeros dips to -4.400e-01"):
        qsp.complete_cd(a, b, ())


def test_completion_of_a_constant_p():
    a = qsp.TrigPolynomial("cos", [0.6])
    b = qsp.TrigPolynomial("sin", [0.6])
    c, d = qsp.complete_cd(a, b, ())
    assert (c.kind, d.kind) == ("sin", "cos")
    assert c.coeffs.tolist() == d.coeffs.tolist() == [0.8]
    quad = qsp.QspQuadruple(a, b, c, d)
    assert quad.unitarity_defect() == 0.0
    qsp.find_angles(quad)


def test_completion_of_a_vanishing_p():
    c, d = qsp.complete_cd(qsp.TrigPolynomial("cos", [1.0]), qsp.TrigPolynomial("sin", [1.0]), ())
    assert (c.kind, d.kind) == ("sin", "cos")
    assert c.coeffs.tolist() == d.coeffs.tolist() == [0.0]


def _laurent_loop(poly, L):
    """TrigPolynomial.laurent as a loop over the coefficients."""
    out = np.zeros(2 * L + 1, dtype=complex)
    for k, c in enumerate(poly.coeffs):
        j = 2 * k + 1
        if poly.kind == "cos":
            out[L + j] += 0.5 * c
            out[L - j] += 0.5 * c
        else:
            out[L + j] += -0.5j * c
            out[L - j] += 0.5j * c
    return out


def _cd_from_dict(g, m):
    """The H -> (C, D) split through a power -> coefficient dict."""
    shift = -m if m % 2 else -(m + 1)
    h_powers = shift + 2 * np.arange(g.size)
    degree = int(np.max(np.abs(h_powers)))
    h = dict(zip(h_powers.tolist(), g.tolist()))
    size = (degree + 1) // 2
    c = np.zeros(size)
    d = np.zeros(size)
    for k in range(size):
        j = 2 * k + 1
        hp = h.get(j, 0.0)
        hm = h.get(-j, 0.0)
        d[k] = hp + hm
        c[k] = hp - hm
    return c, d


def test_laurent_and_cd_split_are_bitwise_the_loop_forms():
    """On the (A, B) pair of every symmetric profile with n <= 5."""
    parities = []
    for n in range(1, 6):
        for a, b, phis in _arity_pairs(n):
            L = max(a.degree, b.degree)
            for poly in (a, b):
                for size in (poly.degree, L):
                    assert poly.laurent(size).tobytes() == _laurent_loop(poly, size).tobytes()
            r_full = -qsp._square_sum(a, b)  # P, as complete_cd forms it
            r_full[L] += 1.0
            m = L
            while m > 0 and abs(r_full[L + m]) < 1e-12 * np.max(np.abs(r_full)):
                m -= 1
            r = r_full[L - m : L + m + 1]
            g = qsp._spectral_factor(r, phis)
            assert g.size == m + 1 and g[-1] > 0.0
            assert np.max(np.abs(np.roots(g[::-1]))) <= 1.0 + 1e-6
            # G G(1/z) is P: the factor and its reversal multiply back to r.
            np.testing.assert_allclose(np.convolve(g, g[::-1]), r, rtol=0, atol=1e-12)
            c, d = qsp._split_cd(g)
            want_c, want_d = _cd_from_dict(g, m)
            assert c.coeffs.tobytes() == want_c.tobytes()
            assert d.coeffs.tobytes() == want_d.tobytes()
            parities.append(m % 2)
    # Every pair completes at the degree synthesize settles on: 2 + 4 + 8 + 16 + 32.
    assert len(parities) == 62 and set(parities) == {0, 1}


def _factor_or_message(r, phis):
    try:
        return qsp._spectral_factor(r, phis).tobytes()
    except qsp.CompletionError as exc:
        return str(exc)


def test_known_factor_cache_is_bitwise_the_cold_computation(monkeypatch):
    """Every degree synthesize tries at n <= 7, the refused ones included:
    _spectral_factor gives the same bytes, or raises the same message,
    with the known-factor cache cleared before each call and with it warm
    from every earlier call."""
    calls = []
    factor = qsp._spectral_factor

    def record(r, phis):
        calls.append((r.copy(), np.array(phis)))
        return factor(r, phis)

    monkeypatch.setattr(qsp, "_spectral_factor", record)
    for n in range(1, 8):
        for spec in _profiles(n):
            qsp.synthesize(spec)
    monkeypatch.undo()
    cold = []
    for r, phis in calls:
        qsp._known_factor.cache_clear()
        cold.append(_factor_or_message(r, phis))
    qsp._known_factor.cache_clear()
    warm = [_factor_or_message(r, phis) for r, phis in calls]
    assert warm == cold
    info = qsp._known_factor.cache_info()
    assert info.currsize <= info.maxsize and info.hits > info.misses
    refused = [m for m in cold if isinstance(m, str)]
    assert refused and all(m.startswith("P over its known zeros dips to") for m in refused)
    assert len(refused) < len(cold)


def test_known_factor_cache_is_read_only_and_bounded():
    """The cached K samples and |K|^2 coefficients cannot be written, and
    a full cache holds about 2 MB; the check angles are read-only too."""
    spec = boolfun.SymmetricSpec(5, (0, 1, 1, 0, 1, 0))
    params, _ = qsp.synthesize(spec)
    x = np.unique(np.cos(_weight_points(params, 5)))
    inner = x[np.abs(x) < 1.0 - 1e-10]
    k, q = qsp._known_factor(inner.tobytes(), (1.0,))
    for a in (k, q, qsp._check_phis()):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert q.size == 2 * (2 * inner.size + 1) + 1
    assert 1.5e6 < qsp._known_factor.cache_info().maxsize * (k.nbytes + q.nbytes) < 2.5e6


def _defect_on_the_grid(quad):
    """max |A^2+B^2+C^2+D^2 - 1| on the max(64, 8L)-point grid on [-2pi, 2pi)."""
    phis = np.linspace(-2 * math.pi, 2 * math.pi, max(64, 8 * quad.L), endpoint=False)
    total = sum(p(phis) ** 2 for p in (quad.a, quad.b, quad.c, quad.d))
    return float(np.max(np.abs(total - 1.0)))


def test_unitarity_defect_matches_the_grid_evaluation():
    """On every symmetric profile with n <= 5, at the degree synthesize settles on."""
    checked = 0
    for n in range(1, 6):
        for a, b, phis in _arity_pairs(n):
            quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b, phis))
            assert abs(quad.unitarity_defect() - _defect_on_the_grid(quad)) <= 1e-13
            checked += 1
    assert checked == 62


def test_angle_finding_rejects_nonunitary_quadruples():
    quad = qsp.QspQuadruple(
        qsp.TrigPolynomial("cos", [1.0]),
        qsp.TrigPolynomial("sin", [0.5]),
        qsp.TrigPolynomial("sin", [0.0]),
        qsp.TrigPolynomial("cos", [0.0]),
    )
    with pytest.raises(qsp.AngleFindingError, match="reconstruction error"):
        qsp.find_angles(quad)


def test_angle_sequence_shape():
    with pytest.raises(ValueError):
        qsp.AngleSequence(np.zeros((2, 2)))
    seq = qsp.AngleSequence([0.1, 0.2, 0.3])
    assert seq.L == 2
    assert seq.tolist() == pytest.approx([0.1, 0.2, 0.3])


def test_angle_finding_rejects_a_padded_quadruple():
    _, quad = _solved_quadruple(boolfun.maj_spec(3))
    parts = (quad.a, quad.b, quad.c, quad.d)
    padded = qsp.QspQuadruple(
        *(qsp.TrigPolynomial(p.kind, np.append(p.coeffs, 0.0)) for p in parts)
    )
    assert padded.L == quad.L + 2
    with pytest.raises(qsp.AngleFindingError, match="coefficient vanished at degree 9"):
        qsp.find_angles(padded)


def _stacked_reconstruct(xi, phi):
    """U(phi) as the product of the 2x2 factor matrices, one matmul per angle."""
    half = 0.5 * np.asarray(phi, dtype=float)
    c, s = np.cos(half), np.sin(half)
    u = np.broadcast_to(
        np.diag([np.exp(-0.5j * xi[0]), np.exp(0.5j * xi[0])]), c.shape + (2, 2)
    )
    for x in xi[1:]:
        factor = np.empty(c.shape + (2, 2), dtype=complex)
        factor[..., 0, 0] = factor[..., 1, 1] = c
        factor[..., 0, 1] = -1j * s * np.exp(-1j * x)
        factor[..., 1, 0] = -1j * s * np.exp(1j * x)
        u = u @ factor
    return u


def _stacked_matrix(quad, phi):
    a, b, c, d = (np.asarray(p(phi))[..., None, None] for p in (quad.a, quad.b, quad.c, quad.d))
    return a * np.eye(2) + 1j * b * qsp._X + 1j * c * qsp._Y + 1j * d * qsp._Z


def test_batched_evaluation_matches_per_angle_evaluation():
    """Batched against per-angle calls, and both against the stacked 2x2
    matrix products."""
    phis = np.random.default_rng(7).uniform(-2 * math.pi, 2 * math.pi, size=(4, 25))
    general6 = boolfun.SymmetricSpec(6, (0, 1, 1, 0, 1, 0, 0))
    for spec in (boolfun.slsb_spec(4), boolfun.maj_spec(5), general6):
        _, quad = _solved_quadruple(spec)
        angles = qsp.find_angles(quad)
        evaluators = (
            (lambda p: qsp.reconstruct(angles, p), lambda p: _stacked_reconstruct(angles.xi, p)),
            (quad.matrix, lambda p: _stacked_matrix(quad, p)),
        )
        for evaluate, reference in evaluators:
            batched = evaluate(phis)
            assert batched.shape == (4, 25, 2, 2)
            stacked = np.array([[evaluate(float(p)) for p in row] for row in phis])
            np.testing.assert_allclose(batched, stacked, rtol=0, atol=1e-14)
            np.testing.assert_allclose(batched, reference(phis), rtol=0, atol=1e-13)
            assert evaluate(0.37).shape == (2, 2)
            np.testing.assert_allclose(evaluate(0.37), reference(0.37), rtol=0, atol=1e-13)


@given(st.lists(st.floats(min_value=-6, max_value=6), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_reconstruction_is_special_unitary(xi):
    angles = qsp.AngleSequence(xi)
    for phi in (0.0, 0.37, -1.9, 2.0 * math.pi):
        u = qsp.reconstruct(angles, phi)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-10
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def _check_full_pipeline(spec, values):
    params, quad = _solved_quadruple(spec)
    angles = qsp.find_angles(quad)
    assert angles.L <= params.L
    grid = np.linspace(-2 * math.pi, 2 * math.pi, 200)
    worst = max(
        float(np.linalg.norm(qsp.reconstruct(angles, float(p)) - quad.matrix(float(p)), 2))
        for p in grid
    )
    assert worst <= 1e-6
    for w, value in enumerate(values):
        u = qsp.reconstruct(angles, float(params.phi(w)))
        assert abs(u[1, 0]) ** 2 == pytest.approx(value, abs=1e-6)


def test_majority_pipeline_end_to_end():
    _check_full_pipeline(boolfun.maj_spec(3), (0, 0, 1, 1))


def test_general_pipeline_end_to_end():
    _check_full_pipeline(boolfun.slsb_spec(4), (0, 0, 1, 1, 0))


def _full_width_angles(quad):
    """The degree reduction over all 2L + 1 coefficient rows at every step,
    each product stacked over the 2x2 coefficients, as find_angles ran
    before it formed only the surviving band as one flat product."""
    L = quad.L
    coeffs = np.zeros((2 * L + 1, 2, 2), dtype=complex)
    parts = (
        (quad.a, qsp._I2, 1.0), (quad.b, qsp._X, 1j), (quad.c, qsp._Y, 1j), (quad.d, qsp._Z, 1j)
    )
    for poly, basis, factor in parts:
        coeffs += np.multiply.outer(factor * poly.laurent(L), basis)
    center = L
    xi = np.zeros(L + 1)
    for d in range(L, 0, -1):
        lead = coeffs[center + d]
        row = lead[0] if np.linalg.norm(lead[0]) >= np.linalg.norm(lead[1]) else lead[1]
        v = np.array([-row[1], row[0]])
        xi[d] = float(np.angle(v[1] * np.conj(v[0])))
        e = np.exp(1j * xi[d])
        qp = 0.5 * np.array([[1, np.conj(e)], [e, 1]])
        qm = qsp._I2 - qp
        new = np.zeros_like(coeffs)
        new[: 2 * center] += coeffs[1:] @ qm
        new[1:] += coeffs[: 2 * center] @ qp
        new[np.abs(new) < 1e-9] = 0.0
        new[center + d :] = 0.0
        new[: center - d + 1] = 0.0
        coeffs = new
    xi[0] = 2.0 * float(np.angle(coeffs[center][1, 1]))
    return xi


def test_banded_reduction_is_bitwise_the_full_width_loop():
    """Every profile with f(0) = 0 up to n = 7, whose widest bands start
    at L = 33, and majority up to n = 9 (L = 19)."""
    specs = [boolfun.maj_spec(n) for n in (3, 5, 7, 9)]
    for n in range(1, 8):
        specs += [boolfun.SymmetricSpec(n, (0, *t)) for t in itertools.product((0, 1), repeat=n)]
    for spec in specs:
        _, quad = _solved_quadruple(spec)
        assert qsp.find_angles(quad).xi.tobytes() == _full_width_angles(quad).tobytes(), spec


def test_closed_form_reconstruction_error_is_the_spectral_norm():
    """On the factored angles (error near 1e-15) and on perturbed ones (near 1e-2)."""
    phis = np.random.default_rng(20240614).uniform(-2 * math.pi, 2 * math.pi, size=100)
    rng = np.random.default_rng(5)
    specs = (boolfun.slsb_spec(5), boolfun.maj_spec(7), boolfun.SymmetricSpec(4, (0, 0, 1, 1, 1)))
    for spec in specs:
        _, quad = _solved_quadruple(spec)
        xi = qsp.find_angles(quad).xi
        for angles in (xi, xi + 1e-2 * rng.standard_normal(xi.size)):
            diff = qsp.reconstruct(qsp.AngleSequence(angles), phis) - quad.matrix(phis)
            svd = np.linalg.norm(diff, ord=2, axis=(1, 2))
            np.testing.assert_allclose(
                qsp._reconstruction_error(angles, quad, phis), svd, rtol=0, atol=1e-13
            )


def test_angle_finding_rejects_a_scaled_quadruple_by_reconstruction():
    """Scaling a unitary quadruple by 1 + 1e-5 leaves every reduction step
    intact; only the reconstruction check sees the 1e-5 spectral error."""
    _, quad = _solved_quadruple(boolfun.slsb_spec(4))
    scaled = qsp.QspQuadruple(
        *(qsp.TrigPolynomial(p.kind, (1 + 1e-5) * p.coeffs)
          for p in (quad.a, quad.b, quad.c, quad.d))
    )
    with pytest.raises(qsp.AngleFindingError, match="reconstruction error 1.000e-05 exceeds 1e-6"):
        qsp.find_angles(scaled)


def test_reconstruct_returns_a_new_writable_array_at_every_degree():
    for xi in ([0.3], [0.3, -1.1], [0.3, -1.1, 0.7]):
        angles = qsp.AngleSequence(xi)
        for phi in (0.5, np.linspace(-1.0, 1.0, 7)):
            u = qsp.reconstruct(angles, phi)
            assert u.flags.writeable and u.flags.owndata
            u[...] = 0.0
            assert np.abs(qsp.reconstruct(angles, phi)).max() > 0.5
