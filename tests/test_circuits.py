import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limspace import boolfun, circuits, qsp, simulate


_IX = 1j * np.array([[0, 1], [1, 0]], dtype=complex)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        circuits.GateSpec(name="toffoli")
    with pytest.raises(ValueError):
        circuits.GateSpec(name="rx")
    with pytest.raises(ValueError):
        circuits.GateSpec(name="h", angle=1.0)
    with pytest.raises(ValueError):
        circuits.GateSpec(name="matrix", matrix=np.eye(2) * 2, label="bad")
    with pytest.raises(ValueError):
        circuits.GateSpec(name="matrix", matrix=np.eye(2))
    with pytest.raises(ValueError):
        circuits.GateSpec(name="h", control=0)
    with pytest.raises(ValueError):
        circuits.GateSpec(name="h", matrix=np.eye(2))
    malformed = [
        dict(name="x", control=1.5),
        dict(name="x", control=True),
        dict(name="x", control="1"),
        dict(name="rx", angle="abc"),
        dict(name="rx", angle=float("nan")),
        dict(name="rz", angle=float("inf")),
        dict(name="ry", angle=True),
        dict(name="matrix", matrix=np.full((2, 2), np.nan), label="m"),
        dict(name="h", label=3),
        # Integers beyond the float range.
        dict(name="rx", angle=10**400),
        dict(name="matrix", matrix=[[10**400, 0], [0, 1]], label="m"),
    ]
    for kwargs in malformed:
        with pytest.raises(ValueError):
            circuits.GateSpec(**kwargs)
    for n in (2.0, True, "3"):
        with pytest.raises(ValueError):
            circuits.LimitedSpaceCircuit(n=n, gates=())
    for note in (10**400, ["relative phase"], None):
        with pytest.raises(ValueError, match="phase_convention must be a string"):
            circuits.LimitedSpaceCircuit(n=1, gates=(), phase_convention=note)
    huge_entry = {"name": "matrix", "matrix": [[10**400, 0], [0, 0], [0, 0], [1, 0]], "label": "m"}
    for data in ([], {"n": 1, "gates": "xx"}, {"n": 1, "gates": [["x"]]},
                 {"n": 1, "gates": [huge_entry]}):
        with pytest.raises(ValueError):
            circuits.LimitedSpaceCircuit.from_json_dict(data)
    gate = circuits.GateSpec(name="rx", angle=np.float64(0.5), control=np.int64(2))
    assert gate.control == 2


# Finite entries whose product m m^H overflows: the defect's norm is NaN.
_OVERFLOWING = ([[1e200, 0], [0, 1]], [[1e155, 0], [0, 1]], [[0, 1e200j], [1, 0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gate_matrices_whose_unitarity_product_overflows_are_refused():
    for m in _OVERFLOWING:
        with pytest.raises(ValueError, match="^gate matrix is not unitary$"):
            circuits.GateSpec.from_matrix(np.array(m, dtype=complex), "m")


def test_gate_default_labels():
    assert circuits.GateSpec.rotation("x", math.pi / 2).label == "rx(pi/2)"
    assert circuits.GateSpec.rotation("z", -math.pi).label == "rz(-pi)"
    assert circuits.GateSpec.rotation("y", 3 * math.pi / 4).label == "ry(3*pi/4)"
    assert circuits.GateSpec.rotation("z", 0.0).label == "rz(0)"
    assert circuits.GateSpec.named("h", control=2).label == "h"


def _fraction_label(theta):
    """The label rule stated with Fraction: the closest num/den, den <= 16,
    to theta/pi, kept when its float lies within 1e-12 of theta/pi."""
    ratio = theta / math.pi
    frac = Fraction(ratio).limit_denominator(16)
    if abs(float(frac) - ratio) >= 1e-12:
        return repr(theta)
    if frac == 0:
        return "0"
    num, den = abs(frac.numerator), frac.denominator
    text = ("-" if frac < 0 else "") + ("pi" if num == 1 else f"{num}*pi")
    return text if den == 1 else f"{text}/{den}"


def _label_angles():
    for d in range(1, 41):
        for k in range(-2 * d, 2 * d + 1):
            theta = k * math.pi / d
            yield theta
            yield math.nextafter(theta, math.inf)
            yield math.nextafter(theta, -math.inf)
            for delta in (0.999e-12, 1.001e-12):
                yield (k / d + delta) * math.pi
                yield (k / d - delta) * math.pi
    yield from (1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, -0.0, 0.0)
    rng = random.Random(20240614)
    for _ in range(2000):
        yield rng.uniform(-4 * math.pi, 4 * math.pi)
        yield math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1023))
    # Above 2^45 the spacing of theta/pi exceeds the 1/240 between two
    # candidate fractions, so several pass the 1e-12 test there.
    for _ in range(2000):
        ratio = rng.randrange(2**44, 2**52) + rng.randrange(128) / 128
        yield rng.choice((1, -1)) * ratio * math.pi
    # _format_angle rejects early below |theta/pi| = 2^20 when part * 720720
    # lies more than 1e-3 from an integer: angles on both sides of that
    # bound, and fractional parts on both sides of that margin.
    for whole in (2**20 - 1, 2**20, 2**20 + 1, 2**19, 2**21):
        for d in range(1, 17):
            for k in range(d + 1):
                for sign in (1, -1):
                    ratio = sign * (whole + k / d)
                    for r in (ratio, math.nextafter(ratio, 0.0), math.nextafter(ratio, math.inf)):
                        yield r * math.pi
                        yield math.nextafter(r * math.pi, math.inf)
    # Above 2^20 the float num/den may round onto theta/pi although part
    # lies farther than 1e-3 / 720720 from every fraction: such angles
    # must reach the scan.
    for e in range(20, 46):
        for d in range(3, 17):
            for k in range(1, d):
                yield (2**e + k / d) * math.pi
    margin = 1e-3 / 720720
    steps = [720720 // d * k for d in range(1, 17) for k in range(d)]
    steps += [rng.randrange(720720) for _ in range(200)]
    for step in steps:
        whole = rng.randrange(-2**20, 2**20)
        for off in (0.0, 1e-13, 0.999 * margin, margin, 1.001 * margin, 2 * margin):
            for sign in (1, -1):
                yield (whole + step / 720720 + sign * off) * math.pi


def test_format_angle_matches_the_fraction_rule():
    for theta in _label_angles():
        assert circuits._format_angle(theta) == _fraction_label(theta), theta


def test_gate_actions():
    x = circuits.GateSpec.named("x").action
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    h = circuits.GateSpec.named("h").action
    assert np.allclose(h @ h, np.eye(2))
    rx = circuits.GateSpec.rotation("x", math.pi).action
    assert np.allclose(rx, -1j * x)
    rz = circuits.GateSpec.rotation("z", math.pi / 2).action
    assert np.allclose(rz, np.diag([np.exp(-0.25j * math.pi), np.exp(0.25j * math.pi)]))


def _input_words(c):
    """Every input's word, shape (2^n, 2, 2), gathered from c's class words."""
    found = c.words()
    return found.words[found.input_classes()]


def _word(c, bits):
    """V(x) for one input by a per-input gate product, the reference for words()."""
    v = np.eye(2, dtype=complex)
    for g in c.gates:
        if g.control is None or bits[g.control - 1]:
            v = g.action @ v
    return v


def test_circuit_word_and_words_agree():
    empty = circuits.LimitedSpaceCircuit(n=3, gates=())
    for c in (empty, circuits.slsb_relative(3), circuits.builtin_slsb3_fig1()):
        allwords = _input_words(c)
        for idx in range(8):
            bits = [(idx >> i) & 1 for i in range(3)]
            assert np.allclose(allwords[idx], _word(c, bits), atol=1e-12)


def _round_trip_inputs():
    """The hand fixture, merged QSP circuits on both schedules, every hand
    construction, a gate-free circuit, a non-ASCII phase convention, and a
    loaded circuit with the values a fixed layout could encode wrongly."""
    fixture = circuits.LimitedSpaceCircuit(
        n=3,
        gates=(
            circuits.GateSpec.named("h", control=2),
            circuits.GateSpec.rotation("x", 0.12345678901234567, control=1),
            circuits.GateSpec.from_matrix(circuits._HX_FIG, "hx", control=3),
            circuits.GateSpec.rotation("z", -math.pi),
        ),
        phase_convention="test fixture",
    )
    merged = []
    for spec in (boolfun.slsb_spec(4), boolfun.maj_spec(5)):
        params, angles = qsp.synthesize(spec)
        merged.append(circuits.merge_adjacent(circuits.compile_qsp(spec, angles, params)))
    # The majority schedule's fused signal blocks merge into matrix gates.
    assert any(g.name == "matrix" for g in merged[1].gates)
    hand = [circuits.slsb_relative(4), circuits.slsb_true(4), circuits.builtin_slsb3_fig1(),
            circuits.ip_circuit(4)]
    empty = circuits.LimitedSpaceCircuit(n=2, gates=())
    accented = circuits.LimitedSpaceCircuit(
        n=1, gates=(circuits.GateSpec.rotation("y", 0.5, control=1),),
        phase_convention="fase relativa; V(x) = U(φ·|x|) − Δ",
    )
    tricky = {"n": 2, "phase_convention": "tab\there", "gates": [
        {"control": None, "name": "rx", "angle": 2, "matrix": None,
         "label": 'quote " backslash \\ bell \x07 φ 𝜑'},
        {"control": 2, "name": "matrix", "angle": None,
         "matrix": [[1.0, -0.0], [1e-300, 0.0], [-0.0, 1e-300], [1.0, 0.0]],
         "label": "\x00\n\u2028"},
    ]}
    loaded = circuits.LimitedSpaceCircuit.from_json(json.dumps(tricky))
    assert loaded.to_json_dict() == tricky
    return [fixture, *merged, *hand, empty, accented, loaded]


def test_json_round_trip_is_bit_exact():
    for c in _round_trip_inputs():
        text = c.to_json()
        assert text == json.dumps(c.to_json_dict(), indent=2)
        again = circuits.LimitedSpaceCircuit.from_json(text)
        assert again.n == c.n
        assert again.phase_convention == c.phase_convention
        assert len(again) == len(c)
        for g, h in zip(again.gates, c.gates):
            assert g.name == h.name
            assert g.control == h.control
            assert g.angle == h.angle
            assert g.label == h.label
            if h.matrix is not None:
                assert np.array_equal(g.matrix, h.matrix)
        assert again.to_json() == text
        assert np.array_equal(_input_words(again), _input_words(c))


def test_signed_zero_and_integer_angles_round_trip_byte_identically(tmp_path):
    """Records that differ only in the type or sign of a value are distinct
    gates: -0.0 and 0.0, 1 and 1.0 are each read and saved back as they were."""
    records = [{"control": 1, "name": "rx", "angle": angle, "matrix": None, "label": "r"}
               for angle in (-0.0, 0.0, -0.0, 1, 1.0, 1)]
    path = tmp_path / "angles.json"
    path.write_text(json.dumps({"n": 1, "phase_convention": "", "gates": records}, indent=2) + "\n")
    c = circuits.LimitedSpaceCircuit.load(path)
    assert [math.copysign(1.0, g.angle) for g in c.gates[:3]] == [-1.0, 1.0, -1.0]
    assert [type(g.angle) for g in c.gates[3:]] == [int, float, int]
    assert len({id(g) for g in c.gates}) == 4
    out = tmp_path / "again.json"
    c.save(out)
    assert out.read_bytes() == path.read_bytes()


def test_save_load_round_trip(tmp_path):
    c = circuits.slsb_true(3)
    path = tmp_path / "circuit.json"
    c.save(path)
    again = circuits.LimitedSpaceCircuit.load(path)
    assert again.to_json() == c.to_json()
    payload = json.loads(path.read_text())
    assert payload["n"] == 3
    assert len(payload["gates"]) == 10


def test_slsb_relative_counts_and_pattern():
    for n in range(2, 13):
        c = circuits.slsb_relative(n)
        assert len(c) == 2 * n - 1
        assert circuits.entangling_count(c) == 2 * n - 1
        result = simulate.asp(c, boolfun.slsb(n))
        assert result.asp == pytest.approx(1.0, abs=1e-9)
        assert result.classification is simulate.Classification.RELATIVE_PHASE
        weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        assert np.array_equal(np.rint(result.p_one).astype(int), (weights >> 1) & 1)


def test_slsb_relative_word_cycle():
    c = circuits.slsb_relative(8)
    words = _input_words(c)
    weights = np.bitwise_count(np.arange(1 << 8, dtype=np.uint32))
    h = circuits.GateSpec.named("h").action
    xh = circuits.GateSpec.named("x").action @ h
    cycle = {w: np.linalg.matrix_power(h, w) @ np.linalg.matrix_power(xh, w) for w in range(9)}
    for idx in range(256):
        assert np.allclose(words[idx], cycle[int(weights[idx])], atol=1e-12)


def test_slsb_true_is_phase_exact():
    for n in (2, 3, 5, 7):
        c = circuits.slsb_true(n)
        assert len(c) == 4 * n - 2
        result = simulate.asp(c, boolfun.slsb(n))
        assert result.classification is simulate.Classification.TRUE_IMPL
        assert result.asp == pytest.approx(1.0, abs=1e-12)


def test_fig1_builtin_is_true_with_eight_entangling_gates():
    c = circuits.builtin_slsb3_fig1()
    assert circuits.entangling_count(c) == 8
    result = simulate.asp(c, boolfun.slsb(3))
    assert result.asp == pytest.approx(1.0, abs=1e-9)
    assert result.classification is simulate.Classification.TRUE_IMPL


def test_fig1_composite_order_is_pinned_by_exactness():
    gates = []
    for control, parts in circuits._FIG1_POSITIONS:
        for axis_name, angle in reversed(parts):
            gates.append(circuits.GateSpec(name=axis_name, control=control, angle=angle))
    gates.append(circuits.GateSpec.rotation("z", -math.pi / 4))
    flipped = circuits.LimitedSpaceCircuit(n=3, gates=tuple(gates))
    result = simulate.asp(flipped, boolfun.slsb(3))
    assert result.asp < 0.99


def test_ip_circuit_counts_and_asp():
    for n in (2, 4, 6, 8):
        c = circuits.ip_circuit(n)
        assert circuits.entangling_count(c) == 3 * n // 2
        result = simulate.asp(c, boolfun.ip(n))
        assert result.asp == pytest.approx(1.0, abs=1e-9)
        assert result.classification is simulate.Classification.RELATIVE_PHASE
    with pytest.raises(ValueError):
        circuits.ip_circuit(3)


def test_merge_sums_rotations_and_drops_identities():
    c = circuits.LimitedSpaceCircuit(
        n=2,
        gates=(
            circuits.GateSpec.rotation("x", 0.4, control=1),
            circuits.GateSpec.rotation("x", 0.6, control=1),
            circuits.GateSpec.named("h", control=2),
            circuits.GateSpec.named("h", control=2),
            circuits.GateSpec.named("z"),
        ),
    )
    merged = circuits.merge_adjacent(c)
    assert len(merged) == 2
    assert merged.gates[0].name == "rx"
    assert merged.gates[0].angle == pytest.approx(1.0)
    assert merged.gates[0].control == 1
    assert merged.gates[1].name == "z"


def test_merge_recognizes_named_products():
    c = circuits.LimitedSpaceCircuit(
        n=1,
        gates=(
            circuits.GateSpec.named("s", control=1),
            circuits.GateSpec.named("s", control=1),
        ),
    )
    merged = circuits.merge_adjacent(c)
    assert len(merged) == 1
    assert merged.gates[0].name == "z"


def test_merge_keeps_controlled_phases():
    c = circuits.LimitedSpaceCircuit(
        n=1,
        gates=(
            circuits.GateSpec.named("z", control=1),
            circuits.GateSpec.named("x", control=1),
            circuits.GateSpec.named("z", control=1),
            circuits.GateSpec.named("x", control=1),
        ),
    )
    merged = circuits.merge_adjacent(c)
    assert len(merged) == 1
    assert merged.gates[0].name == "matrix"
    assert np.allclose(merged.gates[0].action, -np.eye(2))


def test_merge_shrinks_the_true_circuit_below_its_printed_size():
    for n in (2, 3, 5):
        c = circuits.slsb_true(n)
        merged = circuits.merge_adjacent(c)
        assert circuits.entangling_count(merged) <= 4 * n - 3
        result = simulate.asp(merged, boolfun.slsb(n))
        assert result.classification is simulate.Classification.TRUE_IMPL


def test_merge_verifies_above_twelve_inputs(monkeypatch):
    c = circuits.slsb_relative(13)
    assert circuits.merge_adjacent(c).n == 13
    commuting_runs = circuits._pass_commuting_runs
    monkeypatch.setattr(
        circuits, "_pass_commuting_runs", lambda gates, memo: commuting_runs(gates, memo)[1:]
    )
    with pytest.raises(RuntimeError, match="merge changed the circuit"):
        circuits.merge_adjacent(c)


def test_merge_refuses_a_nan_defect(monkeypatch):
    monkeypatch.setattr(circuits, "_defect", lambda a, b: float("nan"))
    with pytest.raises(RuntimeError, match="merge changed the circuit, defect nan"):
        circuits.merge_adjacent(circuits.slsb_true(3))


_GATE_POOL = ("h", "x", "z", "s")


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.tuples(
            st.sampled_from(_GATE_POOL + ("rx", "rz")),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        min_size=0,
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_merge_preserves_every_word(n, raw):
    gates = []
    for name, ctrl, angle in raw:
        control = None if ctrl == 0 else 1 + (ctrl - 1) % n
        if name in ("rx", "rz"):
            gates.append(circuits.GateSpec.rotation(name[1], angle, control=control))
        else:
            gates.append(circuits.GateSpec(name=name, control=control))
    c = circuits.LimitedSpaceCircuit(n=n, gates=tuple(gates))
    merged = circuits.merge_adjacent(c)
    assert len(merged) <= len(c)
    assert np.max(np.abs(_input_words(merged) - _input_words(c))) <= 1e-10


def _compiled(spec, params):
    a, b = qsp.solve_ab(spec, params)
    quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b, params.phi(np.arange(spec.n + 1))))
    xi = qsp.find_angles(quad)
    return circuits.compile_qsp(spec, xi, params), xi


def test_compile_qsp_majority():
    for n in (3, 5, 7):
        params = qsp.signal_params_maj(n)
        c, xi = _compiled(boolfun.maj_spec(n), params)
        assert circuits.entangling_count(c) == n * params.L
        weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        target = qsp.reconstruct(xi, params.phi(weights))
        assert np.max(np.abs(_input_words(c) - target)) <= 1e-8
        # Majority angles come in equal adjacent pairs, so the z-rotations
        # between paired layers cancel and the merge fuses their signal
        # blocks: n(n+1) of the n(2n+1) entangling gates remain.
        merged = circuits.merge_adjacent(c)
        assert circuits.entangling_count(merged) == n * (n + 1)
        result = simulate.asp(merged, boolfun.maj(n))
        assert result.asp == pytest.approx(1.0, abs=1e-9)


def test_compile_qsp_general_path():
    spec = boolfun.slsb_spec(4)
    params = qsp.signal_params_general(4, 19)  # where synthesize settles for slsb4
    c, xi = _compiled(spec, params)
    assert circuits.entangling_count(c) == 4 * params.L
    result = simulate.asp(c, boolfun.slsb(4))
    assert result.asp == pytest.approx(1.0, abs=1e-9)
    words = _input_words(c)
    weights = np.bitwise_count(np.arange(16, dtype=np.uint32))
    for idx in range(16):
        target = qsp.reconstruct(xi, float(params.phi(int(weights[idx]))))
        assert np.max(np.abs(words[idx] - target)) <= 1e-8


def test_compile_qsp_shares_the_signal_block():
    """The n*L controlled gates of a compiled circuit are n gate objects."""
    for spec in (boolfun.slsb_spec(4), boolfun.maj_spec(5), boolfun.SymmetricSpec(3, (1, 1, 0, 0))):
        params, angles = qsp.synthesize(spec)
        c = circuits.compile_qsp(spec, angles, params)
        controlled = [g for g in c.gates if g.control is not None]
        assert len(controlled) == spec.n * params.L
        assert len({id(g) for g in controlled}) == spec.n


def test_merged_majority_keeps_its_rotation_records():
    """Merged maj7 holds 57 rotation gates but 15 distinct records; the JSON
    is the text of unshared gates."""
    spec = boolfun.maj_spec(7)
    params, angles = qsp.synthesize(spec)
    merged = circuits.merge_adjacent(circuits.compile_qsp(spec, angles, params))
    rotations = [g for g in merged.gates if g.name in ("rx", "ry", "rz")]
    assert len(rotations) == 57
    assert len({(g.name, g.control, repr(g.angle)) for g in rotations}) == 15
    unshared = circuits.LimitedSpaceCircuit(
        n=merged.n,
        gates=tuple(circuits.GateSpec.from_json_dict(g.to_json_dict()) for g in merged.gates),
        phase_convention=merged.phase_convention,
    )
    assert merged.to_json() == unshared.to_json() == json.dumps(merged.to_json_dict(), indent=2)
    assert np.array_equal(_input_words(merged), _input_words(unshared))


def test_compile_qsp_complements_functions_true_on_the_empty_word():
    spec = boolfun.SymmetricSpec(3, (1, 1, 0, 0))
    params = qsp.signal_params_maj(3)
    c, _ = _compiled(spec, params)
    assert c.gates[-1].name == "x"
    result = simulate.asp(c, boolfun.make_symmetric(spec))
    assert result.asp == pytest.approx(1.0, abs=1e-9)


def test_compile_qsp_rejects_mismatched_degree():
    spec = boolfun.maj_spec(3)
    params = qsp.signal_params_maj(3)
    xi = qsp.AngleSequence(np.zeros(4))
    with pytest.raises(ValueError):
        circuits.compile_qsp(spec, xi, params)


def test_words_are_computed_once_and_read_only():
    """words() is one memoized, frozen WordClasses with read-only words,
    the circuit's only memo field, and gathered to every input it is
    bitwise the mask-per-gate kernel's words."""
    c = circuits.slsb_true(4)
    found = c.words()
    assert isinstance(found, circuits.WordClasses)
    assert found is c.words()
    simulate.asp(c, boolfun.slsb(4))
    simulate.noisy_asp_mc(c, boolfun.slsb(4), 0.1, 10, seed=0)
    assert c.words() is found
    memo = [f.name for f in dataclasses.fields(c) if not f.init]
    assert memo == ["_classes"] and set(vars(c)) == {"n", "gates", "phase_convention", *memo}
    reps = found.words
    assert reps.shape == (8, 2, 2)
    assert reps.flags.c_contiguous
    gathered = reps[found.input_classes()]
    assert gathered.tobytes() == _words_mask_per_gate(c).tobytes()
    with pytest.raises(ValueError):
        reps[0, 0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        found.words = gathered
    with pytest.raises(ValueError):
        circuits.GateSpec.named("h").action[0, 0] = 2.0
    with pytest.raises(ValueError):
        circuits.GateSpec.rotation("x", 0.5).action[0, 0] = 2.0
    for shared in (*circuits._NAMED.values(), simulate._IX, qsp._I2, qsp._X, qsp._Y, qsp._Z):
        assert not shared.flags.writeable
    # One array per constant, shared by qsp, circuits and simulate.
    assert circuits._I2 is simulate._I2 is qsp._I2
    assert circuits._NAMED["x"] is simulate._X is qsp._X
    assert circuits._NAMED["z"] is qsp._Z


def _words_mask_per_gate(c):
    """The per-input word kernel that rebuilt each gate's control mask."""
    idx = np.arange(1 << c.n)
    out = np.broadcast_to(np.eye(2, dtype=complex), (idx.size, 2, 2)).copy()
    for g in c.gates:
        if g.control is None:
            out = np.einsum("ij,njk->nik", g.action, out)
        else:
            mask = (idx >> (g.control - 1)) & 1 == 1
            out[mask] = np.einsum("ij,njk->nik", g.action, out[mask])
    return out


def _words_strided(c):
    """The per-input word kernel that updated, per gate, the strided view of a
    (2, 2, 2^n) buffer holding the inputs whose control bit is set: a
    second reference, faster than _words_mask_per_gate at large n."""
    w = np.zeros((2, 2, 1 << c.n), dtype=complex)
    w[0, 0] = w[1, 1] = 1
    for g in c.gates:
        v = w
        if g.control is not None:
            v = w.reshape(2, 2, -1, 2, 1 << (g.control - 1))[:, :, :, 1]
        v[...] = np.einsum("ij,jk...->ik...", g.action, v)
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _commuting_runs_all_pairs(gates, commutes):
    """The commuting-run pass that checked each candidate against every
    member, each time, without the commutator memo."""
    out = []
    i = 0
    while i < len(gates):
        actions = [gates[i].action]
        j = i + 1
        while j < len(gates):
            candidate = gates[j].action
            if any(
                np.linalg.norm(candidate @ a - a @ candidate) > circuits._MERGE_TOL
                for a in actions
            ):
                break
            actions.append(candidate)
            j += 1
        by_control = {}
        for g in gates[i:j]:
            by_control.setdefault(g.control, []).append(g)
        for run in by_control.values():
            merged = circuits._merged_gate(run)
            if merged is not None:
                out.append(merged)
        i = j
    return out


@pytest.fixture(scope="module")
def raw_and_merged():
    """(raw, merged) for every symmetric profile with n <= 5 that synthesizes,
    then for slsb_true(8), ip_circuit(8) and the fig1 builtin.

    synthesize complements a profile with f(0) = 1 before solving, so a
    profile and its complement share params and angles; each pair is
    synthesized once and compiled twice.
    """
    out = []
    for n in range(1, 6):
        for tail in itertools.product((0, 1), repeat=n):
            spec = boolfun.SymmetricSpec(n, (0, *tail))
            try:
                params, xi = qsp.synthesize(spec)
            except (qsp.SolveError, qsp.CompletionError, qsp.AngleFindingError):
                continue
            for values in (spec.by_weight, tuple(1 - v for v in spec.by_weight)):
                raw = circuits.compile_qsp(boolfun.SymmetricSpec(n, values), xi, params)
                out.append((raw, circuits.merge_adjacent(raw)))
    fixed = [circuits.slsb_true(8), circuits.ip_circuit(8), circuits.builtin_slsb3_fig1()]
    return out + [(c, circuits.merge_adjacent(c)) for c in fixed]


def _gate_bits(g):
    matrix = None if g.matrix is None else g.matrix.tobytes()
    return g.name, g.control, g.angle, g.label, matrix


# A fixed relabeling of the controls, as the benchmark's wide simulate ops do.
_PERM14 = (3, 11, 0, 7, 13, 5, 9, 1, 12, 6, 2, 10, 4, 8)


def _relabeled(c, perm):
    data = c.to_json_dict()
    for gate in data["gates"]:
        if gate["control"] is not None:
            gate["control"] = perm[gate["control"] - 1] + 1
    return circuits.LimitedSpaceCircuit.from_json_dict(data)


def _random_circuit(rng, n, size=40):
    """Seeded gates of every kind, controlled on bit 1, bit n, any bit or none."""
    gates = []
    for _ in range(size):
        control = (None, 1, n, int(rng.integers(1, n + 1)))[rng.integers(4)]
        kind = rng.integers(3)
        if kind == 0:
            axis = "xyz"[rng.integers(3)]
            gates.append(circuits.GateSpec.rotation(axis, rng.uniform(-7, 7), control))
        elif kind == 1:
            gates.append(circuits.GateSpec.named("hxzs"[rng.integers(4)], control))
        else:
            gates.append(circuits.GateSpec.from_matrix(circuits._XSDG, "xsdg", control))
    return circuits.LimitedSpaceCircuit(n, tuple(gates))


@pytest.fixture(scope="module")
def wide_circuits():
    """slsb_true(14) and ip_circuit(14) with its controls relabeled by _PERM14."""
    return circuits.slsb_true(14), _relabeled(circuits.ip_circuit(14), _PERM14)


def test_words_are_bitwise_the_mask_per_gate_kernel(raw_and_merged, wide_circuits):
    assert len(raw_and_merged) > 100
    rng = np.random.default_rng(1307)
    randoms = [_random_circuit(rng, n) for n in range(1, 9) for _ in range(3)]
    controls = {(g.control, c.n) for c in randoms for g in c.gates}
    assert all((1, n) in controls and (n, n) in controls for n in range(2, 9))
    one_bit_s = circuits.GateSpec.named("s", control=1)
    fixed = [
        *wide_circuits,
        circuits.slsb_relative(13),
        circuits.LimitedSpaceCircuit(1, (circuits.GateSpec.named("h"), one_bit_s)),
        circuits.LimitedSpaceCircuit(3, ()),
    ]
    for c in [c for pair in raw_and_merged for c in pair] + fixed + randoms:
        _assert_words_are_the_reference(c)


def _assert_class_words(c, want):
    """The class words gathered to every input have the bytes want, and
    a second words() call returns the same object."""
    found = c.words()
    assert found.words[found.input_classes()].tobytes() == want
    assert c.words() is found


def _assert_words_are_the_reference(c):
    """The class words gathered to every input and the strided kernel
    give the mask-per-gate kernel's bytes."""
    want = _words_mask_per_gate(c).tobytes()
    _assert_class_words(c, want)
    assert _words_strided(c).tobytes() == want


def test_every_symmetric_class_up_to_arity_8_has_bitwise_weight_words():
    """The raw and merged circuit of each symmetric profile with n = 6..8
    that synthesizes has the n+1 weights as its classes, and the strided
    kernel's words (raw_and_merged holds n <= 5, against the mask-per-gate
    kernel, which is slower here by a factor of about five)."""
    seen = 0
    for n in range(6, 9):
        for tail in itertools.product((0, 1), repeat=n):
            spec = boolfun.SymmetricSpec(n, (0, *tail))
            try:
                params, xi = qsp.synthesize(spec)
            except (qsp.SolveError, qsp.CompletionError, qsp.AngleFindingError):
                continue
            for values in (spec.by_weight, tuple(1 - v for v in spec.by_weight)):
                raw = circuits.compile_qsp(boolfun.SymmetricSpec(n, values), xi, params)
                for c in (raw, circuits.merge_adjacent(raw)):
                    assert _weight_classes(c)
                    _assert_class_words(c, _words_strided(c).tobytes())
                seen += 1
    assert seen >= 880


def test_class_counts_of_each_family():
    """1 class for a circuit with no controlled gate, n+1 for a compiled
    circuit, 2n for slsb_true and slsb_relative, 2^n for ip_circuit and 6
    for fig1 (atoms {1, 2} and {3}), whatever the controls' labels."""
    rng = np.random.default_rng(2801)
    assert len(circuits.LimitedSpaceCircuit(3, ()).words().words) == 1
    lone = circuits.LimitedSpaceCircuit(2, (circuits.GateSpec.named("h"),))
    assert lone.words().masks == ()
    assert len(lone.words().input_classes()) == 4
    for n in (3, 6):
        spec = boolfun.slsb_spec(n)
        raw = circuits.compile_qsp(spec, *reversed(qsp.synthesize(spec)))
        for c in (raw, circuits.merge_adjacent(raw)):
            assert len(c.words().words) == n + 1
    for n in range(2, 15):
        perm = rng.permutation(n)
        for build in (circuits.slsb_true, circuits.slsb_relative):
            assert len(_relabeled(build(n), perm).words().words) == 2 * n
        if n % 2 == 0:
            assert len(_relabeled(circuits.ip_circuit(n), perm).words().words) == 1 << n
    fig1 = circuits.builtin_slsb3_fig1().words()
    assert fig1.masks == (0b011, 0b100) and len(fig1.words) == 6


# Gate makers for the class-kernel circuits.  Equal actions are held by
# one object (with_control copies) or by distinct ones (fresh gates), and
# the pool holds actions equal by bytes under another name (an rx and its
# matrix copy) and actions that differ only in a signed zero.
_CLASS_POOL = (
    lambda control: circuits.GateSpec.rotation("x", 0.7, control),
    lambda control: circuits.GateSpec.from_matrix(
        circuits.GateSpec.rotation("x", 0.7).action, "rx-copy", control),
    lambda control: circuits.GateSpec.rotation("z", 0.0, control),
    lambda control: circuits.GateSpec.rotation("z", -0.0, control),
    lambda control: circuits.GateSpec.rotation("y", 1.1, control),
    lambda control: circuits.GateSpec.named("h", control),
    lambda control: circuits.GateSpec.from_matrix(circuits._XSDG, "xsdg", control),
)


@st.composite
def _class_circuits(draw, n):
    """Runs of one pool action on drawn controls, repeats allowed, so a
    run may split in blocks at a repeated control, and a later block may
    cut an atom or span several; runs are often separated by an
    uncontrolled gate."""
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            gates.append(_CLASS_POOL[draw(st.integers(0, len(_CLASS_POOL) - 1))](None))
        make = _CLASS_POOL[draw(st.integers(0, len(_CLASS_POOL) - 1))]
        first = None
        for control in draw(st.lists(st.integers(1, n), max_size=n + 2)):
            if first is None or draw(st.booleans()):
                gate = make(control)
                first = first or gate
            else:
                gate = first.with_control(control)
            gates.append(gate)
    return circuits.LimitedSpaceCircuit(n, tuple(gates))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_class_circuits(n), _class_circuits(n))))
@settings(max_examples=150, deadline=None)
def test_class_kernel_on_drawn_runs(pair):
    """Each drawn circuit's words and class words are the reference
    kernel's bytes, and the merge check's defect on the classes of two
    circuits is the float that all 2^n words give."""
    a, b = pair
    want = [_words_mask_per_gate(c) for c in pair]
    for c, words in zip(pair, want):
        _assert_class_words(c, words.tobytes())
    got = circuits._defect(a.words(), b.words())
    assert got == np.max(np.abs(want[0] - want[1]))
    assert circuits._defect(a.words(), a.words()) == 0.0


def test_hand_built_families_referee_up_to_arity_14(monkeypatch, tmp_path):
    """slsb_true, slsb_relative and ip_circuit with seeded relabeled
    controls at n = 2..14, and fig1, against the reference kernel: words,
    class words, ASP, class, CSV bytes and a seeded Monte Carlo value."""
    rng = np.random.default_rng(2802)
    cases = [(circuits.builtin_slsb3_fig1(), boolfun.slsb(3))]
    for n in range(2, 15):
        perm = rng.permutation(n)
        source = np.arange(1 << n)
        relabeled = sum(((source >> p) & 1) << k for k, p in enumerate(perm))
        cases += [(_relabeled(build(n), perm), boolfun.slsb(n))
                  for build in (circuits.slsb_true, circuits.slsb_relative)]
        if n % 2 == 0:
            inner = boolfun.ip(n).truth[relabeled]
            cases.append((_relabeled(circuits.ip_circuit(n), perm), boolfun.BooleanFunction(n, inner)))
    for c, f in cases:
        words = _words_mask_per_gate(c)
        assert _words_strided(c).tobytes() == words.tobytes()
        _referee_class_path(c, f, monkeypatch, tmp_path / "rows.csv", words)
        assert simulate.asp(c, f).asp == pytest.approx(1.0, abs=1e-12)


def _not_phaseless_reference(c):
    """linearity_certificate's refusal as the argmax over every input's
    word gives it."""
    words = _input_words(c)
    nearest = np.minimum(np.abs(words - circuits._NAMED["x"]).max(axis=(1, 2)),
                         np.abs(words - np.eye(2)).max(axis=(1, 2)))
    worst = int(np.argmax(nearest))
    return f"word at input index {worst} is {nearest[worst]:.3e} from both X and I"


def test_not_phaseless_names_the_input_the_per_input_words_name():
    """The certificate's refusal, read on word classes, names the input
    and distance of the argmax over every input's word: slsb_true and
    slsb_relative with seeded relabeled controls at n = 3..14, and seeded
    random circuits at n = 1..8."""
    rng = np.random.default_rng(2901)
    cases = []
    for n in range(3, 15):
        perm = rng.permutation(n)
        cases += [_relabeled(build(n), perm) for build in (circuits.slsb_true, circuits.slsb_relative)]
    cases += [_random_circuit(rng, n) for n in range(1, 9) for _ in range(3)]
    for c in cases:
        with pytest.raises(simulate.NotPhaseless) as refused:
            simulate.linearity_certificate(c)
        assert str(refused.value) == _not_phaseless_reference(c)


def _csv_rows(n, truth, p_one):
    """The simulate CSV, formatted one row at a time."""
    rows = ["input_bits,f,target,p_one"]
    for idx in range(1 << n):
        bits = "".join(str((idx >> k) & 1) for k in range(n))
        fx = int(truth[idx])
        rows.append(f"{bits},{fx},{float(fx)!r},{float(p_one[idx])!r}")
    return "\n".join(rows) + "\n"


def _csv_from_words(n, truth, words):
    """The simulate CSV, row by row, from words computed elsewhere."""
    return _csv_rows(n, truth, np.clip(np.abs(words[:, 1, 0]) ** 2, 0.0, 1.0))


def _assert_csv_bytes(result, reference, path):
    """to_csv and save_csv both give the reference text's bytes."""
    assert result.to_csv() == reference
    result.save_csv(path)
    assert path.read_bytes() == reference.encode()


def test_wide_simulate_csv_matches_the_mask_per_gate_kernel(wide_circuits, tmp_path):
    true14, ip14 = wide_circuits
    idx = np.arange(1 << 14)
    inner = boolfun.ip(14).truth
    relabeled = sum(((idx >> p) & 1) << k for k, p in enumerate(_PERM14))
    cases = (
        (true14, boolfun.slsb(14)),
        (ip14, boolfun.BooleanFunction(14, inner[relabeled])),
        (circuits.slsb_relative(13), boolfun.slsb(13)),
    )
    for c, f in cases:
        result = simulate.asp(c, f)
        assert result.asp == pytest.approx(1.0, abs=1e-12)
        reference = _csv_from_words(c.n, f.truth, _words_mask_per_gate(c))
        _assert_csv_bytes(result, reference, tmp_path / "rows.csv")


def test_csv_blocks_match_the_row_loop_on_random_circuits(tmp_path):
    """Rotations at seeded angles give p_one many distinct values; n = 1..10
    lies below one CSV block."""
    rng = np.random.default_rng(1409)
    for n in range(1, 11):
        c = _random_circuit(rng, n, size=10 * n)
        f = boolfun.BooleanFunction(n, rng.integers(0, 2, 1 << n))
        result = simulate.asp(c, f)
        if n >= 9:
            assert np.unique(result.p_one).size == 1 << n
        reference = _csv_from_words(n, f.truth, _words_mask_per_gate(c))
        _assert_csv_bytes(result, reference, tmp_path / f"rows{n}.csv")


_SPECIAL_P_ONE = (
    -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1 + 0.2, 0.3, 1.0, 0.0,
    np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64),
    np.array(0xFFF8000000000000, dtype=np.uint64).view(np.float64),
)


def test_csv_blocks_match_the_row_loop_on_special_floats(tmp_path):
    """Hand-built results whose p_one holds signed zeros, NaN payloads,
    infinities and the smallest subnormal, within one block and across
    two blocks of 2^12 inputs."""
    rng = np.random.default_rng(1423)
    specials = np.array(_SPECIAL_P_ONE, dtype=np.float64)
    for n in (4, 13):
        p_one = specials[rng.integers(0, specials.size, 1 << n)]
        p_one[: specials.size] = specials
        truth = rng.integers(0, 2, 1 << n).astype(np.uint8)
        result = simulate.SimulationResult(
            n, truth, p_one, 0.5, simulate.Classification.APPROXIMATE
        )
        _assert_csv_bytes(result, _csv_rows(n, truth, p_one), tmp_path / f"rows{n}.csv")


def test_csv_bytes_for_each_truth_dtype(tmp_path):
    """A truth table given as uint8, int64 or bool gives the row loop's
    bytes below one block, at exactly one block and across two: the
    f,target column is read by value, so a bool table is no mask."""
    rng = np.random.default_rng(3011)
    for n in (4, 12, 13):
        bits = rng.integers(0, 2, 1 << n)
        p_one = rng.random(1 << n)
        p_one[bits == 1] = 1.0
        reference = _csv_rows(n, bits, p_one)
        for dtype in (np.uint8, np.int64, bool):
            result = simulate.SimulationResult(
                n, bits.astype(dtype), p_one, 0.5, simulate.Classification.APPROXIMATE
            )
            _assert_csv_bytes(result, reference, tmp_path / f"rows{n}.csv")


def test_save_csv_memory_does_not_grow_with_the_table(tmp_path):
    result = simulate.asp(circuits.slsb_true(18), boolfun.slsb(18))
    tracemalloc.start()
    try:
        result.save_csv(tmp_path / "rows.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert (tmp_path / "rows.csv").stat().st_size > 24 * (1 << 18)


def test_merge_matches_the_all_pairs_commuting_pass(raw_and_merged, monkeypatch):
    monkeypatch.setattr(circuits, "_pass_commuting_runs", _commuting_runs_all_pairs)
    for raw, got in raw_and_merged:
        want = circuits.merge_adjacent(raw)
        assert [_gate_bits(g) for g in got.gates] == [_gate_bits(g) for g in want.gates]


def _asp_from_words(words, truth):
    """(ASP, class) as simulate.asp computed them from every input's word."""
    p_one = np.clip(np.abs(words[:, 1, 0]) ** 2, 0.0, 1.0)
    truth = truth.astype(int)
    success = np.where(truth == 1, p_one, 1.0 - p_one)
    targets = np.where(truth[:, None, None] == 1, _IX, np.eye(2))
    if np.max(np.abs(words - targets)) <= 1e-8:
        kind = simulate.Classification.TRUE_IMPL
    elif np.min(np.abs(words[np.arange(truth.size), truth, 0])) >= 1.0 - 1e-8:
        kind = simulate.Classification.RELATIVE_PHASE
    else:
        kind = simulate.Classification.APPROXIMATE
    return float(np.mean(success)), kind


def _pair_preserving(rng, n):
    """A seeded relabeling of n (even) bits that maps each pair (2k-1, 2k)
    onto a pair, in either order, so ip_circuit(n) still computes ip."""
    perm = []
    for target in rng.permutation(n // 2):
        pair = [2 * int(target), 2 * int(target) + 1]
        perm += pair[:: 1 - 2 * int(rng.integers(0, 2))]
    return tuple(perm)


def _assert_asp_is_the_per_input_reference(c, f):
    """asp's ASP float and class are those of comparing every input's word,
    from the mask-per-gate kernel, with its own target; returns the class."""
    got = simulate.asp(c, f)
    want_asp, want_kind = _asp_from_words(_words_mask_per_gate(c), f.truth)
    assert repr(got.asp) == repr(want_asp)
    assert got.classification is want_kind
    return want_kind


def test_classification_at_every_input_class_matches_the_per_input_reference():
    """ip_circuit relabeled pair to pair has 2^n word classes; against ip,
    slsb, const0, const1 (one truth value, so one takes column empty) and
    parity it is RelativePhase or Approximate.  Seeded random circuits
    too; TrueImpl is met at the tolerance boundary below."""
    rng = np.random.default_rng(3001)
    kinds = set()
    for n in range(2, 15, 2):
        c = _relabeled(circuits.ip_circuit(n), _pair_preserving(rng, n))
        assert len(c.words().words) == 1 << n
        w = boolfun.input_weights(n)
        fs = [boolfun.ip(n), boolfun.slsb(n)]
        fs += [boolfun.BooleanFunction(n, t) for t in (0 * w, 0 * w + 1, w & 1)]
        found = [_assert_asp_is_the_per_input_reference(c, f) for f in fs]
        assert found[0] is simulate.Classification.RELATIVE_PHASE
        kinds.update(found)
    for n in range(1, 9):
        for _ in range(3):
            c = _random_circuit(rng, n)
            computed = boolfun.BooleanFunction(n, np.abs(_input_words(c)[:, 1, 0]) ** 2 > 0.5)
            split = boolfun.BooleanFunction(n, rng.integers(0, 2, 1 << n))
            for f in (computed, split):
                kinds.add(_assert_asp_is_the_per_input_reference(c, f))
    assert kinds == {simulate.Classification.RELATIVE_PHASE, simulate.Classification.APPROXIMATE}


def _with_rotation(c, axis, delta):
    return circuits.LimitedSpaceCircuit(c.n, c.gates + (circuits.GateSpec.rotation(axis, delta),))


def _class_boundary(c, f, axis, lo, hi):
    """Adjacent floats lo < hi at which the reference class of c followed by
    an uncontrolled rotation about axis changes, found by bisection."""
    def kind(delta):
        return _asp_from_words(_words_mask_per_gate(_with_rotation(c, axis, delta)), f.truth)[1]
    below = kind(lo)
    assert kind(hi) is not below
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if kind(mid) is below:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_classification_at_the_tolerance_boundary():
    """rz(delta) moves slsb_true(3)'s words off I and iX: at the last delta
    still TrueImpl the distance is exactly 1e-8, so the test is <=.
    ry(delta) shrinks slsb_relative(3)'s |V[f, 0]|: at the last delta still
    RelativePhase it is exactly 1 - 1e-8, so that test is >=.  Both
    circuits are checked at all four angles."""
    f = boolfun.slsb(3)
    true3, relative3 = circuits.slsb_true(3), circuits.slsb_relative(3)
    z = _class_boundary(true3, f, "z", 0.0, 1e-6)
    y = _class_boundary(relative3, f, "y", 0.0, 1e-2)
    t = f.truth.astype(int)
    words = _words_mask_per_gate(_with_rotation(true3, "z", z[0]))
    assert np.max(np.abs(words - np.where(t[:, None, None] == 1, _IX, np.eye(2)))) == 1e-8
    words = _words_mask_per_gate(_with_rotation(relative3, "y", y[0]))
    assert np.min(np.abs(words[np.arange(t.size), t, 0])) == 1.0 - 1e-8
    cases = (
        (true3, "z", z, ("TRUE_IMPL", "RELATIVE_PHASE")),
        (relative3, "z", z, None),
        (true3, "y", y, None),
        (relative3, "y", y, ("RELATIVE_PHASE", "APPROXIMATE")),
    )
    for c, axis, pair, want in cases:
        found = [_assert_asp_is_the_per_input_reference(_with_rotation(c, axis, d), f)
                 for d in pair]
        if want is not None:
            assert tuple(k.name for k in found) == want


def _one_class_per_input(n, words):
    """A WordClasses whose atoms are the single bits, bit n first, so
    that each input is its own class, numbered by its index."""
    return circuits.WordClasses(n, tuple(1 << bit for bit in reversed(range(n))), words)


def _weight_classes(c):
    """Whether c's classes are its n+1 weights: one atom holding every control."""
    return c.words().masks == ((1 << c.n) - 1,)


def _referee_class_path(c, f, monkeypatch, path, words=None):
    """c's class-word results against its words from the mask-per-gate
    kernel: the gathered class words, the ASP, the class, the CSV
    bytes and a seeded Monte Carlo estimate read through one class per
    input."""
    if words is None:
        words = _words_mask_per_gate(c)
    _assert_class_words(c, words.tobytes())
    got = simulate.asp(c, f)
    want_asp, want_kind = _asp_from_words(words, f.truth)
    assert repr(got.asp) == repr(want_asp)
    assert got.classification is want_kind
    _assert_csv_bytes(got, _csv_from_words(c.n, f.truth, words), path)
    mc = simulate.noisy_asp_mc(c, f, 0.1, 3000, seed=c.n)
    per_input = _one_class_per_input(c.n, words)
    with monkeypatch.context() as m:
        m.setattr(circuits.LimitedSpaceCircuit, "words", lambda self: per_input)
        assert simulate.noisy_asp_mc(c, f, 0.1, 3000, seed=c.n) == mc


def _seeded_spec(n, seed):
    return boolfun.SymmetricSpec(n, tuple(int(v) for v in np.random.default_rng(seed).integers(0, 2, n + 1)))


def test_weight_classes_referee_small_circuits(raw_and_merged, monkeypatch, tmp_path):
    """Every circuit of raw_and_merged, against the function it computes
    and against a seeded table that splits its classes.  All but the six
    hand-built ones have the n+1 weights as their classes."""
    rng = np.random.default_rng(1311)
    every = [c for pair in raw_and_merged for c in pair]
    assert sum(map(_weight_classes, every)) == len(every) - 6
    kinds = set()
    for c in every:
        computed = boolfun.BooleanFunction(c.n, np.abs(_input_words(c)[:, 1, 0]) ** 2 > 0.5)
        split = boolfun.BooleanFunction(c.n, rng.integers(0, 2, 1 << c.n))
        for f in (computed, split):
            _referee_class_path(c, f, monkeypatch, tmp_path / "rows.csv")
            kinds.add(simulate.asp(c, f).classification)
    assert kinds == set(simulate.Classification)


def test_weight_classes_referee_up_to_arity_16(monkeypatch, tmp_path):
    """slsb at n = 16, maj at n = 15 and seeded profiles at n = 9..14, raw
    and merged, against their 2^n words from the strided kernel."""
    specs = [boolfun.slsb_spec(16), boolfun.maj_spec(15)]
    specs += [_seeded_spec(n, 900 + n) for n in range(9, 15)]
    assert {spec.by_weight[0] for spec in specs} == {0, 1}
    for spec in specs:
        params, xi = qsp.synthesize(spec)
        raw = circuits.compile_qsp(spec, xi, params)
        f = boolfun.make_symmetric(spec)
        for c in (raw, circuits.merge_adjacent(raw)):
            assert _weight_classes(c)
            _referee_class_path(c, f, monkeypatch, tmp_path / "rows.csv", _words_strided(c))


def test_weight_words_match_the_angle_reconstruction():
    """The compiled word at weight w is U(phi_w) from qsp.reconstruct, times
    X when f(0) = 1, for slsb and a seeded profile at every n = 9..24."""
    specs = [boolfun.slsb_spec(n) for n in range(9, 25)]
    specs += [_seeded_spec(n, 2400 + n) for n in range(9, 25)]
    assert {spec.by_weight[0] for spec in specs} == {0, 1}
    for spec in specs:
        params, xi = qsp.synthesize(spec)
        want = qsp.reconstruct(xi, params.phi(np.arange(spec.n + 1)))
        if spec.by_weight[0] == 1:
            want = circuits._NAMED["x"] @ want
        raw = circuits.compile_qsp(spec, xi, params)
        for c in (raw, circuits.merge_adjacent(raw)):
            assert _weight_classes(c)
            assert np.max(np.abs(c.words().words - want)) <= 1e-12, spec


def test_blocks_that_cut_the_weights_refine_the_classes(monkeypatch, tmp_path):
    """A compiled slsb5 circuit with one signal gate moved to a repeated
    control, or nudged by one ulp, splits a signal block in two: its
    classes are finer than the weights, and its merge and simulation
    still match the mask-per-gate words."""
    spec = boolfun.slsb_spec(5)
    params, xi = qsp.synthesize(spec)
    gates = list(circuits.compile_qsp(spec, xi, params).gates)
    first = next(i for i, g in enumerate(gates) if g.control == 1)
    g = gates[first + 1]
    assert g.control == 2
    nudged = g.action.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0].real, 2.0) + 1j * nudged[0, 0].imag
    assert np.abs(nudged - g.action).max() > 0
    broken = {
        "repeated control": circuits.GateSpec.rotation("x", g.angle, control=3),
        "1 ulp": circuits.GateSpec.from_matrix(nudged, "rx-ulp", control=2),
    }
    f = boolfun.slsb(5)
    for why, gate in broken.items():
        c = circuits.LimitedSpaceCircuit(5, tuple(gates[:first + 1] + [gate] + gates[first + 2:]))
        merged = circuits.merge_adjacent(c)
        for circuit in (c, merged):
            assert len(circuit.words().words) > 6, why
            _referee_class_path(circuit, f, monkeypatch, tmp_path / "rows.csv")


def test_broken_merge_of_a_certified_circuit_still_raises(monkeypatch):
    """A pass that drops the last uncontrolled gate once keeps the weights
    as the merged circuit's classes, so the check compares the n+1 class
    words of both circuits, and fails."""
    spec = boolfun.slsb_spec(6)
    raw = circuits.compile_qsp(spec, *reversed(qsp.synthesize(spec)))
    same_control_runs = circuits._pass_same_control_runs
    dropped = []

    def broken(gates):
        out = same_control_runs(gates)
        if not dropped and out[-1].control is None:
            dropped.append(out.pop())
        return out

    checked = []
    words = circuits.LimitedSpaceCircuit.words

    def spy(self):
        checked.append((self, words(self)))
        return checked[-1][1]

    monkeypatch.setattr(circuits, "_pass_same_control_runs", broken)
    monkeypatch.setattr(circuits.LimitedSpaceCircuit, "words", spy)
    with pytest.raises(RuntimeError, match="merge changed the circuit, defect"):
        circuits.merge_adjacent(raw)
    assert dropped
    assert [type(found) for _, found in checked] == [circuits.WordClasses] * 2
    merged = checked[0][0]
    assert checked[1][0] is raw
    assert merged is not raw and _weight_classes(merged) and _weight_classes(raw)


def test_word_classes_are_computed_once_per_circuit(monkeypatch):
    """merge_adjacent computes the raw and the merged circuit's classes;
    asp, noisy_asp_mc and words() reuse the merged one's.  A circuit fresh
    from from_json computes its own once."""
    computed = []
    kernel = circuits._word_classes
    monkeypatch.setattr(circuits, "_word_classes", lambda c: computed.append(c) or kernel(c))
    spec = boolfun.slsb_spec(5)
    f = boolfun.make_symmetric(spec)
    params, xi = qsp.synthesize(spec)
    raw = circuits.compile_qsp(spec, xi, params)
    merged = circuits.merge_adjacent(raw)
    simulate.asp(merged, f)
    simulate.noisy_asp_mc(merged, f, 0.1, 100, seed=5)
    merged.words()
    assert [id(c) for c in computed] == [id(merged), id(raw)]

    loaded = circuits.LimitedSpaceCircuit.from_json(merged.to_json())
    true5 = circuits.LimitedSpaceCircuit.from_json(circuits.slsb_true(5).to_json())
    for c in (loaded, true5):
        simulate.asp(c, f)
        simulate.noisy_asp_mc(c, f, 0.1, 100, seed=5)
        c.words()
    assert [id(c) for c in computed[2:]] == [id(loaded), id(true5)]
    assert _weight_classes(loaded) and not _weight_classes(true5)
    assert len(computed) == 4


def _unshared(c):
    """c with every gate holding its own copy of its action, so that the
    block scan compares every member's bytes."""
    gates = []
    for g in c.gates:
        copy = g.with_control(g.control)
        object.__setattr__(copy, "_action", qsp._frozen(g.action.copy()))
        gates.append(copy)
    return circuits.LimitedSpaceCircuit(c.n, tuple(gates))


def test_weight_scan_matches_the_bytes_only_scan(raw_and_merged):
    """The block scan tries identity before the bytes: the classes and
    words of every circuit of raw_and_merged and of its from_json copy
    are those with no action shared, and so are those of runs whose
    equal actions are shared, equal but distinct, or one ulp apart."""
    for pair in raw_and_merged:
        for c in pair:
            loaded = circuits.LimitedSpaceCircuit.from_json(c.to_json())
            want = _unshared(c).words()
            for got in (c.words(), loaded.words()):
                assert got.masks == want.masks
                assert got.words.tobytes() == want.words.tobytes()
    shared = circuits.GateSpec.rotation("x", 0.5, control=1)
    runs = {
        True: [(shared, shared.with_control(2)),
               (shared, circuits.GateSpec.rotation("x", 0.5, control=2))],
        False: [(shared, circuits.GateSpec.rotation("x", math.nextafter(0.5, 1), control=2)),
                (shared, shared.with_control(1))],
    }
    for one_block, cases in runs.items():
        for gates in cases:
            c = circuits.LimitedSpaceCircuit(n=2, gates=gates)
            assert _weight_classes(c) is one_block is _weight_classes(_unshared(c))
            assert _input_words(c).tobytes() == _words_mask_per_gate(c).tobytes()


def test_with_control_is_the_constructed_gate_sharing_its_action():
    g = circuits.GateSpec.rotation("x", 0.3, control=1)
    for control in (None, 2, 7):
        h = g.with_control(control)
        fresh = circuits.GateSpec.rotation("x", 0.3, control=control)
        assert h.action is g.action and g.control == 1
        assert _gate_bits(h) == _gate_bits(fresh) and repr(h) == repr(fresh)
        assert h.action.tobytes() == fresh.action.tobytes()
    for bad in (True, 1.0, 0, -1, "1"):
        with pytest.raises(ValueError) as want:
            circuits.GateSpec(name="rx", angle=0.3, control=bad)
        with pytest.raises(ValueError) as got:
            g.with_control(bad)
        assert str(got.value) == str(want.value)


def test_from_json_shares_one_action_per_record_up_to_its_control():
    spec = boolfun.SymmetricSpec(6, (0, 1, 1, 0, 1, 0, 0))
    params, xi = qsp.synthesize(spec)
    raw = circuits.compile_qsp(spec, xi, params)
    block = [g for g in raw.gates[:8] if g.control is not None]
    assert len(block) == 6 and len({id(g.action) for g in block}) == 1
    loaded = circuits.LimitedSpaceCircuit.from_json(raw.to_json())
    assert [_gate_bits(g) for g in loaded.gates] == [_gate_bits(g) for g in raw.gates]
    by_record: dict = {}
    for g in loaded.gates:
        by_record.setdefault((g.name, repr(g.angle), g.label), set()).add(id(g.action))
    assert all(len(ids) == 1 for ids in by_record.values())
    assert loaded.to_json() == raw.to_json()
    first = {"name": "rx", "control": 1, "angle": 0.5}
    for bad in (True, 1.0, 0, "1"):
        with pytest.raises(ValueError) as want:
            circuits.GateSpec.from_json_dict({**first, "control": bad})
        with pytest.raises(ValueError) as got:
            circuits.LimitedSpaceCircuit.from_json_dict(
                {"n": 2, "gates": [first, {**first, "control": bad}]}
            )
        assert str(got.value) == str(want.value)


def _collapse_by_merged_gate(out, run):
    merged = circuits._merged_gate(run)
    if merged is not None:
        out.append(merged)


def test_merge_fast_path_is_the_merged_gate_rule(raw_and_merged, monkeypatch):
    """Passing lone gates straight through merges as _merged_gate on every
    run does, gate for gate; a lone identity matrix gate is still dropped."""
    raws = [raw for raw, _ in raw_and_merged]
    with monkeypatch.context() as m:
        m.setattr(circuits, "_collapse_into", _collapse_by_merged_gate)
        want = [circuits.merge_adjacent(raw) for raw in raws]
    for (_, got), ref in zip(raw_and_merged, want):
        assert [_gate_bits(g) for g in got.gates] == [_gate_bits(g) for g in ref.gates]
    identity = circuits.GateSpec.from_matrix(np.eye(2), "id", control=1)
    c = circuits.LimitedSpaceCircuit(n=2, gates=(identity, circuits.GateSpec.named("h", control=2)))
    assert [g.name for g in circuits.merge_adjacent(c).gates] == ["h"]
