import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limspace import boolfun, qsp


def _solved_quadruple(spec, params):
    a, b = qsp.solve_ab(spec, params)
    c, d = qsp.complete_cd(a, b)
    return qsp.QspQuadruple(a, b, c, d)


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


def test_signal_params_follows_the_anti_symmetry_rule():
    anti_profiles = 0
    for n in range(1, 9):
        for code in range(1 << (n + 1)):  # every profile, f(0) = 1 ones included
            values = tuple((code >> w) & 1 for w in range(n + 1))
            anti = all(values[w] + values[n - w] == 1 for w in range(n + 1))
            anti_profiles += anti
            expected = qsp.signal_params_maj(n) if anti else qsp.signal_params_general(n)
            assert qsp.signal_params(boolfun.SymmetricSpec(n, values)) == expected
    assert anti_profiles == 2 + 4 + 8 + 16  # 2^((n+1)/2) for n = 1, 3, 5, 7


def test_synthesize_chooses_the_schedule_and_raises_the_stage_error():
    params, angles = qsp.synthesize(boolfun.maj_spec(5))
    assert params == qsp.signal_params_maj(5)
    assert angles.L == params.L
    params, _ = qsp.synthesize(boolfun.slsb_spec(4))
    assert params == qsp.signal_params_general(4)
    # Anti-symmetric profiles whose majority-schedule system is infeasible
    # fall back to the general schedule and return the params they used.
    with pytest.raises(qsp.SolveError, match="cos system residual"):
        qsp.solve_ab(boolfun.slsb_spec(7), qsp.signal_params_maj(7))
    params, angles = qsp.synthesize(boolfun.slsb_spec(7))
    assert params == qsp.signal_params_general(7)
    assert angles.L == params.L == 29
    with pytest.raises(qsp.CompletionError, match="completion defect"):
        qsp.synthesize(boolfun.SymmetricSpec(4, (0, 1, 1, 0, 0)))


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
    with pytest.raises(qsp.SolveError):
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
    for spec, params in (
        (boolfun.maj_spec(3), qsp.signal_params_maj(3)),
        (boolfun.slsb_spec(4), qsp.signal_params_general(4)),
    ):
        a, b = qsp.solve_ab(spec, params)
        grid = np.linspace(-2 * math.pi, 2 * math.pi, 10000)
        p = 1.0 - a(grid) ** 2 - b(grid) ** 2
        assert float(np.min(p)) >= -1e-9
        quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b))
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


@functools.cache
def _arity_pairs(n: int) -> tuple:
    """(A, B) from solve_ab for every symmetric profile of arity n with
    f(0) = 0, on the schedule synthesize takes; shared by the tests."""
    pairs = []
    for tail in itertools.product((0, 1), repeat=n):
        spec = boolfun.SymmetricSpec(n, (0, *tail))
        try:
            pairs.append(qsp.solve_ab(spec, qsp.signal_params(spec)))
        except qsp.SolveError:
            pairs.append(qsp.solve_ab(spec, qsp.signal_params_general(n)))
    return tuple(pairs)


def _assert_refined_grid_is_the_full_grid(s, points):
    """The refined maximum and the set above the polish threshold are the
    full FFT grid's."""
    full = qsp._squared_magnitude(s, points)
    _, values = qsp._refined_squared_magnitude(s, points)
    assert abs(float(values.max()) - float(full.max())) <= 1e-13
    where, values = qsp._refined_squared_magnitude(s, points, qsp._HOT)
    hot = np.sort(where[values > qsp._HOT])
    assert np.array_equal(hot, np.flatnonzero(full > qsp._HOT))


def test_squared_magnitude_kernel_matches_direct_evaluation():
    rng = np.random.default_rng(20240614)
    for L in range(1, 42, 2):
        size = (L + 1) // 2
        a = qsp.TrigPolynomial("cos", rng.uniform(-1, 1, size) / size)
        b = qsp.TrigPolynomial("sin", rng.uniform(-1, 1, rng.integers(1, size + 1)) / size)
        s = qsp._square_sum(a, b)
        for points in (101, 100001, 200001):
            grid = np.linspace(0.0, math.pi, points)
            np.testing.assert_allclose(
                qsp._squared_magnitude(s, points),
                a(grid) ** 2 + b(grid) ** 2,
                rtol=0, atol=1e-12,
            )
            if points > 101:
                _assert_refined_grid_is_the_full_grid(s, points)
    for a, b in itertools.chain.from_iterable(map(_arity_pairs, range(1, 7))):
        for points in (qsp._GATE_POINTS, qsp._POLISH_POINTS):
            _assert_refined_grid_is_the_full_grid(qsp._square_sum(a, b), points)


def test_refined_grid_finds_a_peak_inside_a_coarse_cell():
    """A^2 peaks at fine point 30005, halfway between coarse points 30000
    and 30010, and nowhere else above level: only the cell bound sends the
    refinement into that cell."""
    points = qsp._GATE_POINTS
    peak = 30005 * (math.pi / (points - 1))
    # A = p cos(phi / 2) + cos(3 phi / 2) has A'(peak) = 0; scaled so |A| <= 1.
    p = -3.0 * math.sin(1.5 * peak) / math.sin(0.5 * peak)
    top = abs(p * math.cos(0.5 * peak) + math.cos(1.5 * peak))
    a = qsp.TrigPolynomial("cos", [p / top, 1.0 / top])
    s = qsp._square_sum(a, qsp.TrigPolynomial("sin", [0.0]))
    full = qsp._squared_magnitude(s, points)
    assert int(np.argmax(full)) == 30005
    level = 0.5 * (full[30005] + max(full[30004], full[30006]))
    assert np.flatnonzero(full >= level).tolist() == [30005]
    where, values = qsp._refined_squared_magnitude(s, points, level)
    assert 30005 in where
    assert abs(float(values.max()) - float(full.max())) <= 1e-13


def test_completion_rejects_oversized_components():
    a = qsp.TrigPolynomial("cos", [1.2])
    b = qsp.TrigPolynomial("sin", [0.0])
    with pytest.raises(qsp.CompletionError, match="P dips to -4.400e-01"):
        qsp.complete_cd(a, b)


def test_completion_of_a_constant_p():
    a = qsp.TrigPolynomial("cos", [0.6])
    b = qsp.TrigPolynomial("sin", [0.6])
    c, d = qsp.complete_cd(a, b)
    assert (c.kind, d.kind) == ("sin", "cos")
    assert c.coeffs.tolist() == d.coeffs.tolist() == [0.8]
    quad = qsp.QspQuadruple(a, b, c, d)
    assert quad.unitarity_defect() == 0.0
    qsp.find_angles(quad)


def test_completion_of_a_vanishing_p():
    c, d = qsp.complete_cd(qsp.TrigPolynomial("cos", [1.0]), qsp.TrigPolynomial("sin", [1.0]))
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
        for a, b in _arity_pairs(n):
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
            try:
                selected = qsp._pair_roots(np.roots(r[::-1]), 1e-7)
                c, d = qsp._build_cd(selected, r, m)
            except qsp.CompletionError:
                continue
            g = np.poly(selected).real[::-1]
            g = g * np.sqrt(float(r[-1]) / g[0])
            want_c, want_d = _cd_from_dict(g, m)
            assert c.coeffs.tobytes() == want_c.tobytes()
            assert d.coeffs.tobytes() == want_d.tobytes()
            parities.append(m % 2)
    assert len(parities) > 40 and set(parities) == {0, 1}


def _defect_on_the_grid(quad):
    """max |A^2+B^2+C^2+D^2 - 1| on the max(64, 8L)-point grid on [-2pi, 2pi)."""
    phis = np.linspace(-2 * math.pi, 2 * math.pi, max(64, 8 * quad.L), endpoint=False)
    total = sum(p(phis) ** 2 for p in (quad.a, quad.b, quad.c, quad.d))
    return float(np.max(np.abs(total - 1.0)))


def test_unitarity_defect_matches_the_grid_evaluation():
    """On every symmetric profile with n <= 5 whose (A, B) completes."""
    checked = 0
    for n in range(1, 6):
        for a, b in _arity_pairs(n):
            try:
                quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b))
            except qsp.CompletionError:
                continue
            assert abs(quad.unitarity_defect() - _defect_on_the_grid(quad)) <= 1e-13
            checked += 1
    assert checked > 40


def test_angle_finding_rejects_nonunitary_quadruples():
    quad = qsp.QspQuadruple(
        qsp.TrigPolynomial("cos", [1.0]),
        qsp.TrigPolynomial("sin", [0.5]),
        qsp.TrigPolynomial("sin", [0.0]),
        qsp.TrigPolynomial("cos", [0.0]),
    )
    with pytest.raises(qsp.AngleFindingError):
        qsp.find_angles(quad)


def test_angle_sequence_shape():
    with pytest.raises(ValueError):
        qsp.AngleSequence(np.zeros((2, 2)))
    seq = qsp.AngleSequence([0.1, 0.2, 0.3])
    assert seq.L == 2
    assert seq.tolist() == pytest.approx([0.1, 0.2, 0.3])


def test_angle_finding_rejects_a_padded_quadruple():
    quad = _solved_quadruple(boolfun.maj_spec(3), qsp.signal_params_maj(3))
    parts = (quad.a, quad.b, quad.c, quad.d)
    padded = qsp.QspQuadruple(
        *(qsp.TrigPolynomial(p.kind, np.append(p.coeffs, 0.0)) for p in parts)
    )
    assert padded.L == quad.L + 2
    with pytest.raises(qsp.AngleFindingError, match="coefficient vanished at degree 9"):
        qsp.find_angles(padded)


def test_batched_evaluation_matches_per_angle_evaluation():
    quad = _solved_quadruple(boolfun.slsb_spec(4), qsp.signal_params_general(4))
    angles = qsp.find_angles(quad)
    phis = np.random.default_rng(7).uniform(-2 * math.pi, 2 * math.pi, size=(4, 25))
    for evaluate in (lambda p: qsp.reconstruct(angles, p), quad.matrix):
        batched = evaluate(phis)
        assert batched.shape == (4, 25, 2, 2)
        stacked = np.array([[evaluate(float(p)) for p in row] for row in phis])
        np.testing.assert_allclose(batched, stacked, rtol=0, atol=1e-14)
        assert evaluate(0.37).shape == (2, 2)


@given(st.lists(st.floats(min_value=-6, max_value=6), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_reconstruction_is_special_unitary(xi):
    angles = qsp.AngleSequence(xi)
    for phi in (0.0, 0.37, -1.9, 2.0 * math.pi):
        u = qsp.reconstruct(angles, phi)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-10
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def _check_full_pipeline(spec, params, values):
    quad = _solved_quadruple(spec, params)
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
    _check_full_pipeline(boolfun.maj_spec(3), qsp.signal_params_maj(3), (0, 0, 1, 1))


def test_general_pipeline_end_to_end():
    _check_full_pipeline(boolfun.slsb_spec(4), qsp.signal_params_general(4), (0, 0, 1, 1, 0))
