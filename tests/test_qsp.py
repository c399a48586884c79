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
    c, d = qsp.complete_cd(a, b)
    return params, qsp.QspQuadruple(a, b, c, d)


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


def test_synthesize_chooses_the_schedule_and_raises_the_stage_error(monkeypatch):
    params, angles = qsp.synthesize(boolfun.maj_spec(5))
    assert params == qsp.signal_params_maj(5)
    assert angles.L == params.L
    # slsb4's pair at 4n + 1 overshoots one; the search moves up to 4n + 3.
    with pytest.raises(qsp.CompletionError, match="P dips"):
        qsp.complete_cd(*qsp.solve_ab(boolfun.slsb_spec(4), qsp.signal_params_general(4)))
    params, _ = qsp.synthesize(boolfun.slsb_spec(4))
    assert params == qsp.signal_params_general(4, 19)
    # Anti-symmetric profiles whose majority-schedule system is infeasible
    # fall back to the general schedule and return the params they used.
    with pytest.raises(qsp.SolveError, match="cos system residual"):
        qsp.solve_ab(boolfun.slsb_spec(7), qsp.signal_params_maj(7))
    params, angles = qsp.synthesize(boolfun.slsb_spec(7))
    assert params == qsp.signal_params_general(7, 31)
    assert angles.L == params.L == 31
    params, angles = qsp.synthesize(boolfun.SymmetricSpec(4, (0, 1, 1, 0, 0)))
    assert angles.L == params.L == 19
    # At the cap the last stage error is raised: degrees 17, 19, 21, 23 tried.
    tried = []

    def refuse(a, b):
        tried.append(max(a.degree, b.degree))
        raise qsp.CompletionError(f"refused at {tried[-1]}")

    monkeypatch.setattr(qsp, "complete_cd", refuse)
    with pytest.raises(qsp.CompletionError, match="refused at 23"):
        qsp.synthesize(boolfun.slsb_spec(4))
    assert tried == [17, 19, 21, 23]


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
    for spec in (boolfun.maj_spec(3), boolfun.slsb_spec(4)):
        a, b = qsp.solve_ab(spec, qsp.synthesize(spec)[0])
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


def _profiles(n: int):
    """Every symmetric profile of arity n with f(0) = 0."""
    return [boolfun.SymmetricSpec(n, (0, *tail)) for tail in itertools.product((0, 1), repeat=n)]


def test_synthesis_is_total_up_to_arity_8():
    """Every profile with f(0) = 0 and n <= 8 synthesizes within the search,
    and its compiled and merged circuit computes it."""
    for n in range(1, 9):
        for spec in _profiles(n):
            params, angles = qsp.synthesize(spec)
            assert angles.L == params.L <= 4 * n + 7, spec
            merged = circuits.merge_adjacent(circuits.compile_qsp(spec, angles, params))
            assert simulate.asp(merged, boolfun.make_symmetric(spec)).asp >= 1.0 - 1e-9, spec


_ANGLE_DIGEST = """
import hashlib, itertools
from limspace import boolfun, qsp
h = hashlib.sha256()
for n in range(1, 7):
    for tail in itertools.product((0, 1), repeat=n):
        h.update(qsp.synthesize(boolfun.SymmetricSpec(n, (0, *tail)))[1].xi.tobytes())
print(h.hexdigest())
"""


def test_synthesis_does_not_depend_on_the_blas_thread_count():
    """One sha256 over the angle bytes of every profile with f(0) = 0 and
    n <= 6, under one and under two BLAS threads."""
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
    """(A, B) from solve_ab for every symmetric profile of arity n with
    f(0) = 0, on the schedule and degree synthesize settles on; shared by
    the tests."""
    return tuple(qsp.solve_ab(spec, qsp.synthesize(spec)[0]) for spec in _profiles(n))


def _assert_refined_grid_is_the_full_grid(s, points):
    """The refined maximum is the full FFT grid's, at one of its points."""
    full = qsp._squared_magnitude(s, points)
    where, values = qsp._refined_squared_magnitude(s, points)
    assert abs(float(values.max()) - float(full.max())) <= 1e-13
    assert int(np.argmax(full)) in where


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
        _assert_refined_grid_is_the_full_grid(s, qsp._GATE_POINTS)
    for a, b in itertools.chain.from_iterable(map(_arity_pairs, range(1, 7))):
        _assert_refined_grid_is_the_full_grid(qsp._square_sum(a, b), qsp._GATE_POINTS)


def test_refined_grid_finds_a_peak_inside_a_coarse_cell():
    """A^2 peaks at fine point 30005, halfway between coarse points 30000
    and 30010.  At phi = 0, a coarse point, it is 1 - 4e-10: the coarse
    maximum, above both ends of the peak's cell.  Only the cell bound
    sends the refinement into that cell."""
    points = qsp._GATE_POINTS
    peak = 30005 * (math.pi / (points - 1))
    # A = sum_k c_k cos((2k+1) phi / 2) over k < 3 with A(peak) = 1,
    # A'(peak) = 0 and A(0) = sqrt(1 - 4e-10).
    j = 2.0 * np.arange(3) + 1.0
    rows = [np.cos(j * peak / 2), -0.5 * j * np.sin(j * peak / 2), np.ones(3)]
    a = qsp.TrigPolynomial("cos", np.linalg.solve(rows, [1.0, 0.0, math.sqrt(1 - 4e-10)]))
    s = qsp._square_sum(a, qsp.TrigPolynomial("sin", [0.0]))
    full = qsp._squared_magnitude(s, points)
    coarse = full[:: qsp._CELL]
    assert int(np.argmax(full)) == 30005
    assert int(np.argmax(coarse)) == 0
    assert max(full[30000], full[30010]) < coarse.max()
    where, values = qsp._refined_squared_magnitude(s, points)
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
            selected = qsp._pair_roots(np.roots(r[::-1]))
            c, d = qsp._build_cd(selected, r, m)
            g = np.poly(selected).real[::-1]
            g = g * np.sqrt(float(r[-1]) / g[0])
            want_c, want_d = _cd_from_dict(g, m)
            assert c.coeffs.tobytes() == want_c.tobytes()
            assert d.coeffs.tobytes() == want_d.tobytes()
            parities.append(m % 2)
    # Every pair completes at the degree synthesize settles on: 2 + 4 + 8 + 16 + 32.
    assert len(parities) == 62 and set(parities) == {0, 1}


def _defect_on_the_grid(quad):
    """max |A^2+B^2+C^2+D^2 - 1| on the max(64, 8L)-point grid on [-2pi, 2pi)."""
    phis = np.linspace(-2 * math.pi, 2 * math.pi, max(64, 8 * quad.L), endpoint=False)
    total = sum(p(phis) ** 2 for p in (quad.a, quad.b, quad.c, quad.d))
    return float(np.max(np.abs(total - 1.0)))


def test_unitarity_defect_matches_the_grid_evaluation():
    """On every symmetric profile with n <= 5, at the degree synthesize settles on."""
    checked = 0
    for n in range(1, 6):
        for a, b in _arity_pairs(n):
            quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b))
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
    with pytest.raises(qsp.AngleFindingError):
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


def test_batched_evaluation_matches_per_angle_evaluation():
    _, quad = _solved_quadruple(boolfun.slsb_spec(4))
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
