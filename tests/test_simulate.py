import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limspace import boolfun, circuits, qsp, simulate


def _input_words(c):
    """Every input's word, shape (2^n, 2, 2), gathered from c's class words."""
    found = c.words()
    return found.words[found.input_classes()]


def test_classification_labels():
    assert simulate.Classification.TRUE_IMPL.value == "TrueImpl"
    assert simulate.Classification.RELATIVE_PHASE.value == "RelativePhase"
    assert simulate.Classification.APPROXIMATE.value == "Approximate"


def test_noise_model_validation():
    simulate.NoiseModel(0.0)
    simulate.NoiseModel(0.999)
    with pytest.raises(ValueError):
        simulate.NoiseModel(1.0)
    with pytest.raises(ValueError):
        simulate.NoiseModel(-0.1)


def test_evaluate_single_inputs():
    # Gathered words are indexed by sum x_i 2^(i-1); entry [1, 0] is the
    # amplitude of measuring 1 on the work qubit.
    empty = circuits.LimitedSpaceCircuit(n=3, gates=())
    v = _input_words(empty)[0b010]
    assert np.array_equal(v, np.eye(2))
    assert abs(v[1, 0]) ** 2 == 0.0
    v = _input_words(circuits.slsb_relative(3))[0b011]
    assert abs(v[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    v = _input_words(circuits.builtin_slsb3_fig1())[0b111]
    assert abs(v[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_asp_requires_matching_arity():
    with pytest.raises(ValueError):
        simulate.asp(circuits.slsb_relative(3), boolfun.slsb(4))


def test_asp_classifications():
    assert (
        simulate.asp(circuits.slsb_true(3), boolfun.slsb(3)).classification
        is simulate.Classification.TRUE_IMPL
    )
    assert (
        simulate.asp(circuits.slsb_relative(3), boolfun.slsb(3)).classification
        is simulate.Classification.RELATIVE_PHASE
    )
    parity = boolfun.make_symmetric(boolfun.SymmetricSpec(3, (0, 1, 0, 1)))
    mismatched = simulate.asp(circuits.slsb_relative(3), parity)
    assert mismatched.classification is simulate.Classification.APPROXIMATE
    assert mismatched.asp < 1.0


def test_probabilities_stay_in_unit_interval():
    spec = boolfun.maj_spec(3)
    params = qsp.signal_params_maj(3)
    a, b = qsp.solve_ab(spec, params)
    xi = qsp.find_angles(qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b, params.phi(np.arange(4)))))
    c = circuits.compile_qsp(spec, xi, params)
    result = simulate.asp(c, boolfun.maj(3))
    assert np.all(result.p_one >= 0.0)
    assert np.all(result.p_one <= 1.0)


def test_words_are_unitary():
    for c in (circuits.slsb_true(5), circuits.ip_circuit(6), circuits.slsb_relative(4)):
        words = _input_words(c)
        eye = np.eye(2)
        for v in words:
            assert np.max(np.abs(v @ v.conj().T - eye)) <= 1e-10


def test_true_words_have_unit_determinant():
    words = _input_words(circuits.slsb_true(4))
    dets = np.linalg.det(words)
    assert np.max(np.abs(dets - 1.0)) <= 1e-10


def test_phaseless_words_have_alternating_determinant():
    c = circuits.LimitedSpaceCircuit(
        n=3,
        gates=(
            circuits.GateSpec.named("x", control=1),
            circuits.GateSpec.named("x", control=3),
        ),
    )
    dets = np.linalg.det(_input_words(c))
    idx = np.arange(8)
    active = ((idx >> 0) & 1) + ((idx >> 2) & 1)
    assert np.max(np.abs(dets - (-1.0) ** active)) <= 1e-12


def test_csv_layout():
    result = simulate.asp(circuits.slsb_relative(3), boolfun.slsb(3))
    lines = result.to_csv().splitlines()
    assert lines[0] == "input_bits,f,target,p_one"
    assert len(lines) == 9
    bits, f_val, target, p_val = lines[1 + 0b001].split(",")
    assert bits == "100"
    assert f_val == "0"
    assert target == "0.0"
    assert float(p_val) == pytest.approx(0.0, abs=1e-12)
    bits, f_val, target, p_val = lines[1 + 0b011].split(",")
    assert bits == "110"
    assert f_val == "1"
    assert target == "1.0"
    assert float(p_val) == pytest.approx(1.0, abs=1e-12)


def test_csv_save(tmp_path):
    result = simulate.asp(circuits.slsb_relative(2), boolfun.slsb(2))
    path = tmp_path / "out.csv"
    result.save_csv(path)
    assert path.read_text() == result.to_csv()


def test_analytic_noise_values():
    assert simulate.noisy_asp_analytic(0, 0.3) == 1.0
    assert simulate.noisy_asp_analytic(1, 0.5) == 0.75
    assert simulate.noisy_asp_analytic(2, 0.5) == 0.625
    with pytest.raises(ValueError):
        simulate.noisy_asp_analytic(-1, 0.1)
    with pytest.raises(ValueError):
        simulate.noisy_asp_analytic(3, 1.0)


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.001, max_value=0.09),
)
@settings(max_examples=60, deadline=None)
def test_analytic_noise_is_monotone(gates, eps, bump):
    base = simulate.noisy_asp_analytic(gates, eps)
    assert simulate.noisy_asp_analytic(gates, min(eps + bump, 0.99)) <= base + 1e-12
    if eps > 0.0:
        assert simulate.noisy_asp_analytic(gates + 1, eps) <= base + 1e-12
    assert 0.5 <= base <= 1.0


def test_mc_is_deterministic_per_seed():
    c = circuits.slsb_relative(3)
    f = boolfun.slsb(3)
    a = simulate.noisy_asp_mc(c, f, 0.1, 5000, seed=42)
    b = simulate.noisy_asp_mc(c, f, 0.1, 5000, seed=42)
    assert a == b
    assert a != simulate.noisy_asp_mc(c, f, 0.1, 5000, seed=43)


def test_mc_with_zero_noise_matches_exact_asp():
    c = circuits.slsb_relative(3)
    f = boolfun.slsb(3)
    assert simulate.noisy_asp_mc(c, f, 0.0, 2000, seed=1) == 1.0


def test_mc_tracks_the_analytic_curve():
    c = circuits.slsb_relative(3)
    f = boolfun.slsb(3)
    shots = 20000
    for eps in (0.05, 0.2):
        expected = simulate.noisy_asp_analytic(circuits.entangling_count(c), eps)
        sigma = math.sqrt(expected * (1.0 - expected) / shots)
        got = simulate.noisy_asp_mc(c, f, eps, shots, seed=20240614)
        assert abs(got - expected) <= 4.0 * sigma


def test_mc_on_a_gate_free_circuit_is_exact():
    c = circuits.LimitedSpaceCircuit(n=3, gates=())
    for value in (0, 1):
        f = boolfun.make_symmetric(boolfun.SymmetricSpec(3, (value,) * 4))
        assert simulate.noisy_asp_mc(c, f, 0.3, 2000, seed=5) == simulate.asp(c, f).asp


def test_mc_memory_does_not_grow_with_the_gate_count():
    gate = circuits.GateSpec.rotation("x", 0.1, control=1)
    c = circuits.LimitedSpaceCircuit(n=2, gates=(gate,) * 200)
    f = boolfun.BooleanFunction(2, [0, 1, 0, 1])
    c.words()
    tracemalloc.start()
    try:
        simulate.noisy_asp_mc(c, f, 0.01, 200000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_simulating_a_wide_circuit_file_builds_no_per_input_words(tmp_path):
    """asp and noisy_asp_mc of a slsb_true(20) circuit file read 40 class
    words: the peak stays below 32 MB, where the words of all 2^20 inputs
    alone took 64 MB (190 MB in all).  The seeded estimate is the one the
    per-input words gave."""
    path = tmp_path / "slsb20.json"
    circuits.slsb_true(20).save(path)
    f = boolfun.slsb(20)
    tracemalloc.start()
    try:
        c = circuits.LimitedSpaceCircuit.load(path)
        result = simulate.asp(c, f)
        mc = simulate.noisy_asp_mc(c, f, 0.01, 20000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c.words().words) == 40
    # The class words are the only form kept: no field holds per-input words.
    assert set(vars(c)) == {"n", "gates", "phase_convention", "_classes"}
    assert peak < 32 * 2**20
    assert result.classification is simulate.Classification.TRUE_IMPL
    assert repr(result.asp) == "0.9999999999999983"
    assert mc == 0.7268


def _mc_one_draw(c, f, epsilon, shots, seed):
    """noisy_asp_mc drawing all shots as one array: the reference for a
    count that fits in one chunk."""
    rng = np.random.default_rng(seed)
    p_one = np.abs(_input_words(c)[:, 1, 0]) ** 2
    xs = rng.integers(0, 1 << c.n, size=shots)
    clean = rng.random(shots) < (1.0 - epsilon) ** circuits.entangling_count(c)
    clean_bit = rng.random(shots) < p_one[xs]
    coin_bit = rng.integers(0, 2, size=shots).astype(bool)
    return float(np.mean(np.where(clean, clean_bit, coin_bit) == (f.truth[xs] == 1)))


def test_mc_chunks_keep_the_one_draw_stream():
    c = circuits.slsb_relative(3)
    f = boolfun.slsb(3)
    for shots in (1, 5000, 20000, simulate._SHOT_CHUNK):
        got = simulate.noisy_asp_mc(c, f, 0.1, shots, seed=20240614)
        assert got == _mc_one_draw(c, f, 0.1, shots, 20240614)


def test_mc_memory_is_bounded_in_the_shot_count():
    """2^22 shots peak at under a third of the 109 MB that drawing them
    as one array takes."""
    c = circuits.slsb_relative(3)
    f = boolfun.slsb(3)
    c.words()
    tracemalloc.start()
    try:
        simulate.noisy_asp_mc(c, f, 0.1, 1 << 22, seed=20240614)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 109e6 / 3


def test_mc_validation():
    c = circuits.slsb_relative(3)
    with pytest.raises(ValueError):
        simulate.noisy_asp_mc(c, boolfun.slsb(4), 0.1, 100, seed=0)
    with pytest.raises(ValueError):
        simulate.noisy_asp_mc(c, boolfun.slsb(3), 0.1, 0, seed=0)


def test_crossover_frozen_values():
    assert simulate.advantage_crossover(0.0, "ip") == 6
    assert simulate.advantage_crossover(0.15, "ip") == 28
    assert simulate.advantage_crossover(0.25, "ip") is None
    assert simulate.advantage_crossover(0.0, "slsb") == 6
    assert simulate.advantage_crossover(0.15, "slsb") is None
    with pytest.raises(ValueError):
        simulate.advantage_crossover(0.1, "parity")
    with pytest.raises(ValueError):
        simulate.advantage_crossover(1.0, "ip")


def _random_phaseless_circuit(rnd, n):
    gates = []
    for _ in range(rnd.randint(0, 10)):
        control = rnd.choice([None] + list(range(1, n + 1)))
        gates.append(circuits.GateSpec.named("x", control=control))
    return circuits.LimitedSpaceCircuit(n=n, gates=tuple(gates))


def test_certificate_on_a_parity_circuit():
    c = circuits.LimitedSpaceCircuit(
        n=2,
        gates=(
            circuits.GateSpec.named("x", control=1),
            circuits.GateSpec.named("x", control=2),
            circuits.GateSpec.named("x"),
        ),
    )
    cert = simulate.linearity_certificate(c)
    assert cert.witness.constant == 1
    assert cert.witness.mask == 0b11
    assert cert.gammas == pytest.approx((math.pi, math.pi))
    assert cert.betas == pytest.approx((math.pi, math.pi, 0.0))
    assert cert.alphas == pytest.approx((0.0, 0.0, math.pi))


def test_certificate_rejects_phased_circuits():
    with pytest.raises(simulate.NotPhaseless):
        simulate.linearity_certificate(circuits.slsb_true(3))
    with pytest.raises(simulate.NotPhaseless):
        simulate.linearity_certificate(circuits.slsb_relative(3))


def test_certificate_reads_class_words_at_twenty_inputs():
    """A parity circuit at n = 20 (controlled x on every bit) is certified,
    and slsb_true(18) refused with its first input of weight two named,
    each under 40 MB: every input's word at n = 20 alone takes 64 MB."""
    parity = circuits.LimitedSpaceCircuit(
        20, tuple(circuits.GateSpec.named("x", control=k) for k in range(1, 21)))
    true18 = circuits.slsb_true(18)
    tracemalloc.start()
    try:
        cert = simulate.linearity_certificate(parity)
        with pytest.raises(simulate.NotPhaseless) as refused:
            simulate.linearity_certificate(true18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert (cert.witness.mask, cert.witness.constant) == ((1 << 20) - 1, 0)
    assert cert.gammas == pytest.approx((math.pi,) * 20)
    assert str(refused.value) == "word at input index 3 is 1.000e+00 from both X and I"


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_random_phaseless_circuits_are_always_affine(rnd):
    n = rnd.randint(1, 4)
    c = _random_phaseless_circuit(rnd, n)
    cert = simulate.linearity_certificate(c)
    truth = (np.abs(_input_words(c)[:, 1, 0]) ** 2 > 0.5).astype(np.uint8)
    assert np.array_equal(cert.witness.truth(), truth)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_phaseless_circuits_never_reach_majority(rnd):
    c = _random_phaseless_circuit(rnd, 3)
    result = simulate.asp(c, boolfun.maj(3))
    assert result.asp <= 0.75 + 1e-12
