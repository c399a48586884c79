import itertools
import json
import math

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
    ]
    for kwargs in malformed:
        with pytest.raises(ValueError):
            circuits.GateSpec(**kwargs)
    for n in (2.0, True, "3"):
        with pytest.raises(ValueError):
            circuits.LimitedSpaceCircuit(n=n, gates=())
    for data in ([], {"n": 1, "gates": "xx"}, {"n": 1, "gates": [["x"]]}):
        with pytest.raises(ValueError):
            circuits.LimitedSpaceCircuit.from_json_dict(data)
    gate = circuits.GateSpec(name="rx", angle=np.float64(0.5), control=np.int64(2))
    assert gate.control == 2


def test_gate_default_labels():
    assert circuits.GateSpec.rotation("x", math.pi / 2).label == "rx(pi/2)"
    assert circuits.GateSpec.rotation("z", -math.pi).label == "rz(-pi)"
    assert circuits.GateSpec.rotation("y", 3 * math.pi / 4).label == "ry(3*pi/4)"
    assert circuits.GateSpec.rotation("z", 0.0).label == "rz(0)"
    assert circuits.GateSpec.named("h", control=2).label == "h"


def test_gate_actions():
    x = circuits.GateSpec.named("x").action
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    h = circuits.GateSpec.named("h").action
    assert np.allclose(h @ h, np.eye(2))
    rx = circuits.GateSpec.rotation("x", math.pi).action
    assert np.allclose(rx, -1j * x)
    rz = circuits.GateSpec.rotation("z", math.pi / 2).action
    assert np.allclose(rz, np.diag([np.exp(-0.25j * math.pi), np.exp(0.25j * math.pi)]))


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
        allwords = c.words()
        for idx in range(8):
            bits = [(idx >> i) & 1 for i in range(3)]
            assert np.allclose(allwords[idx], _word(c, bits), atol=1e-12)


def test_json_round_trip_is_bit_exact():
    c = circuits.LimitedSpaceCircuit(
        n=3,
        gates=(
            circuits.GateSpec.named("h", control=2),
            circuits.GateSpec.rotation("x", 0.12345678901234567, control=1),
            circuits.GateSpec.from_matrix(circuits._HX_FIG, "hx", control=3),
            circuits.GateSpec.rotation("z", -math.pi),
        ),
        phase_convention="test fixture",
    )
    again = circuits.LimitedSpaceCircuit.from_json(c.to_json())
    assert again.n == c.n
    assert again.phase_convention == c.phase_convention
    for g, h in zip(again.gates, c.gates):
        assert g.name == h.name
        assert g.control == h.control
        assert g.angle == h.angle
        assert g.label == h.label
        if h.matrix is not None:
            assert np.array_equal(g.matrix, h.matrix)
    assert again.to_json() == c.to_json()


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
    words = c.words()
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
        circuits, "_pass_commuting_runs", lambda gates: commuting_runs(gates)[1:]
    )
    with pytest.raises(RuntimeError, match="merge changed the circuit"):
        circuits.merge_adjacent(c)


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
    assert np.max(np.abs(merged.words() - c.words())) <= 1e-10


def _compiled(spec, params):
    a, b = qsp.solve_ab(spec, params)
    quad = qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b))
    xi = qsp.find_angles(quad)
    return circuits.compile_qsp(spec, xi, params), xi


def test_compile_qsp_majority():
    for n in (3, 5, 7):
        params = qsp.signal_params_maj(n)
        c, xi = _compiled(boolfun.maj_spec(n), params)
        assert circuits.entangling_count(c) == n * params.L
        weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        target = qsp.reconstruct(xi, params.phi(weights))
        assert np.max(np.abs(c.words() - target)) <= 1e-8
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
    words = c.words()
    weights = np.bitwise_count(np.arange(16, dtype=np.uint32))
    for idx in range(16):
        target = qsp.reconstruct(xi, float(params.phi(int(weights[idx]))))
        assert np.max(np.abs(words[idx] - target)) <= 1e-8


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
    c = circuits.slsb_true(4)
    words = c.words()
    assert words is c.words()
    assert words.shape == (16, 2, 2)
    assert words.flags.c_contiguous
    assert simulate.asp(c, boolfun.slsb(4)).words is words
    with pytest.raises(ValueError):
        words[0, 0, 0] = 2.0
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
    """The words() kernel that rebuilt each gate's control mask."""
    idx = np.arange(1 << c.n)
    out = np.broadcast_to(np.eye(2, dtype=complex), (idx.size, 2, 2)).copy()
    for g in c.gates:
        if g.control is None:
            out = np.einsum("ij,njk->nik", g.action, out)
        else:
            mask = (idx >> (g.control - 1)) & 1 == 1
            out[mask] = np.einsum("ij,njk->nik", g.action, out[mask])
    return out


def _commuting_runs_all_pairs(gates):
    """The commuting-run pass that checked each candidate against every member."""
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
        assert c.words().tobytes() == _words_mask_per_gate(c).tobytes()


def _csv_from_words(n, truth, words):
    """The simulate CSV, row by row, from words computed elsewhere."""
    p_one = np.clip(np.abs(words[:, 1, 0]) ** 2, 0.0, 1.0)
    rows = ["input_bits,f,target,p_one"]
    for idx in range(1 << n):
        bits = "".join(str((idx >> k) & 1) for k in range(n))
        fx = int(truth[idx])
        rows.append(f"{bits},{fx},{float(fx)!r},{float(p_one[idx])!r}")
    return "\n".join(rows) + "\n"


def test_wide_simulate_csv_matches_the_mask_per_gate_kernel(wide_circuits):
    true14, ip14 = wide_circuits
    idx = np.arange(1 << 14)
    inner = boolfun.ip(14).truth
    relabeled = sum(((idx >> p) & 1) << k for k, p in enumerate(_PERM14))
    cases = (
        (true14, boolfun.slsb(14)),
        (ip14, boolfun.BooleanFunction(14, inner[relabeled])),
    )
    for c, f in cases:
        result = simulate.asp(c, f)
        assert result.asp == pytest.approx(1.0, abs=1e-12)
        reference = _csv_from_words(14, f.truth, _words_mask_per_gate(c))
        assert result.to_csv() == reference


def test_merge_matches_the_all_pairs_commuting_pass(raw_and_merged, monkeypatch):
    monkeypatch.setattr(circuits, "_pass_commuting_runs", _commuting_runs_all_pairs)
    for raw, got in raw_and_merged:
        want = circuits.merge_adjacent(raw)
        assert [_gate_bits(g) for g in got.gates] == [_gate_bits(g) for g in want.gates]
