import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limspace import boolfun, classical


def test_instruction_text_forms():
    assert str(classical.Instruction.flip()) == "flip"
    assert str(classical.Instruction.reset(0)) == "reset(0)"
    assert str(classical.Instruction.cflip(2, 1)) == "flip(2,1)"
    assert str(classical.Instruction.creset(3, 0, 1)) == "reset(3,0,1)"
    with pytest.raises(ValueError):
        classical.Instruction("jump")
    with pytest.raises(ValueError):
        classical.Instruction.cflip(0, 1)
    with pytest.raises(ValueError):
        classical.Instruction("reset")


def test_run_program_semantics():
    n = 2
    prog = [
        classical.Instruction.flip(),
        classical.Instruction.creset(1, 1, 0),
        classical.Instruction.cflip(2, 1),
    ]
    expected = {0b00: 1, 0b01: 0, 0b10: 0, 0b11: 1}
    for x, want in expected.items():
        assert classical.run_program(prog, n, x) == want
    with pytest.raises(ValueError):
        classical.run_program(prog, 1, 0)
    with pytest.raises(ValueError):
        classical.run_program(prog, 2, 4)


def test_known_exact_ratios():
    assert classical.approximation_ratio(boolfun.maj(3)).value == Fraction(7, 8)
    assert classical.approximation_ratio(boolfun.slsb(3)).value == Fraction(7, 8)
    assert classical.approximation_ratio(boolfun.slsb(4)).value == Fraction(13, 16)
    assert classical.approximation_ratio(boolfun.slsb(5)).value == Fraction(23, 32)
    assert classical.approximation_ratio(boolfun.maj(5)).value == Fraction(25, 32)


def test_ratio_arity_guard():
    with pytest.raises(ValueError):
        classical.approximation_ratio(boolfun.slsb(11))


def test_membership_shares_the_ratio_arity_guard():
    parity10 = boolfun.make_symmetric(boolfun.SymmetricSpec(10, tuple(w & 1 for w in range(11))))
    assert classical.omega_membership(parity10).truth() == parity10
    with pytest.raises(ValueError):
        classical.omega_membership(boolfun.slsb(11))


@pytest.mark.parametrize(
    "f, want",
    [
        (boolfun.slsb(8), Fraction(151, 256)),
        (boolfun.ip(8), Fraction(21, 32)),
        (boolfun.maj(9), Fraction(355, 512)),
        (boolfun.slsb(9), Fraction(287, 512)),
        (boolfun.slsb(10), Fraction(559, 1024)),
    ],
)
def test_exact_ratios_above_seven_variables(f, want):
    result = classical.approximation_ratio(f)
    assert result.value == want
    replay = classical.program_truth(result.witness.to_instructions(), f.n)
    assert int(np.sum(replay.truth == f.truth)) == result.agreements


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_ip_ratio_closed_form(n):
    # Pins the DP's output to R(ip_n) = 1/2 + (n+2)/2^(n/2+2); not a proof.
    want = Fraction(1, 2) + Fraction(n + 2, 2 ** (n // 2 + 2))
    assert classical.approximation_ratio(boolfun.ip(n)).value == want


@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_ratio_witness_is_sound_and_attains_the_count(n, rnd):
    bits = [rnd.randint(0, 1) for _ in range(1 << n)]
    g = boolfun.BooleanFunction(n, bits)
    result = classical.approximation_ratio(g)
    achieved = int(np.sum(result.witness.truth().truth == g.truth))
    assert achieved == result.agreements
    assert result.value == Fraction(result.agreements, 1 << n)
    assert Fraction(1, 2) <= result.value <= 1
    compiled = classical.program_truth(result.witness.to_instructions(), n)
    assert compiled == result.witness.truth()


@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_ratio_is_permutation_invariant(n, rnd):
    bits = [rnd.randint(0, 1) for _ in range(1 << n)]
    g = boolfun.BooleanFunction(n, bits)
    perm = list(range(n))
    rnd.shuffle(perm)
    idx = np.arange(1 << n)
    permuted = np.zeros_like(idx)
    for target, source in enumerate(perm):
        permuted |= ((idx >> source) & 1) << target
    g_perm = boolfun.BooleanFunction(n, g.truth[permuted])
    assert classical.approximation_ratio(g_perm).value == classical.approximation_ratio(g).value


def test_every_two_variable_function_is_exactly_computable():
    for t in range(16):
        f = boolfun.BooleanFunction(2, [(t >> i) & 1 for i in range(4)])
        prog = classical.omega_membership(f)
        assert prog is not None
        assert prog.truth() == f
        assert classical.approximation_ratio(f).value == 1


def test_membership_agrees_with_ratio_on_all_three_variable_functions():
    for t in range(256):
        f = boolfun.BooleanFunction(3, [(t >> i) & 1 for i in range(8)])
        prog = classical.omega_membership(f)
        exact = classical.approximation_ratio(f).value == 1
        assert (prog is not None) == exact
        if prog is not None:
            assert prog.truth() == f
            assert classical.program_truth(prog.to_instructions(), 3) == f


def test_named_hard_functions_are_not_members():
    for f in (boolfun.maj(3), boolfun.slsb(4), boolfun.maj(5)):
        assert classical.omega_membership(f) is None


def test_normal_form_validation():
    w = boolfun.AffineWitness(3, 0, 0b001)
    with pytest.raises(ValueError):
        classical.NormalFormProgram(3, ((1, 0, w), (1, 1, w)), w)
    with pytest.raises(ValueError):
        classical.NormalFormProgram(3, ((4, 0, w),), w)
    with pytest.raises(ValueError):
        classical.NormalFormProgram(3, (), boolfun.AffineWitness(2, 0, 0))


def test_normal_form_stage_order_matters_first_stage_wins():
    zero = boolfun.AffineWitness(2, 0, 0)
    one = boolfun.AffineWitness(2, 1, 0)
    prog = classical.NormalFormProgram(2, ((1, 1, one), (2, 1, zero)), zero)
    assert prog.truth().truth.tolist() == [0, 1, 0, 1]  # inputs 0b00, 0b01, 0b10, 0b11


def test_bounds_sandwich_the_exact_ratio():
    for f in (boolfun.maj(3), boolfun.slsb(3), boolfun.slsb(4), boolfun.slsb(5), boolfun.maj(5)):
        gmax = boolfun.spectral_max(f)
        value = float(classical.approximation_ratio(f).value)
        assert boolfun.classical_lower_bound(gmax) <= value + 1e-12
        assert value <= boolfun.classical_upper_bound(gmax) + 1e-12


def test_hardest_symmetric_small():
    value3, ties3 = classical.hardest_symmetric(3)
    assert value3 == Fraction(7, 8)
    profiles3 = {spec.by_weight for spec in ties3}
    assert (0, 0, 1, 1) in profiles3
    value4, ties4 = classical.hardest_symmetric(4)
    assert value4 == Fraction(13, 16)
    assert (0, 0, 1, 1, 0) in {spec.by_weight for spec in ties4}
    with pytest.raises(ValueError):
        classical.hardest_symmetric(9)


@pytest.mark.parametrize("n, want", [(7, Fraction(79, 128)), (8, Fraction(151, 256))])
def test_hardest_symmetric_beyond_six(n, want):
    value, ties = classical.hardest_symmetric(n)
    assert value == want
    assert len(ties) == 4
    assert boolfun.slsb_spec(n).by_weight in {spec.by_weight for spec in ties}


# Reference copies of the ratio kernels as they stood before the
# level-ordered pass: np.stack of per-axis take copies, and a dynamic
# program relaxing every axis in place until the table's sum stops moving.


def _reference_subcube_spectra(g):
    w = (1 - 2 * g.truth.astype(np.int32)).reshape((2,) * g.n)
    for axis in range(g.n):
        v0, v1 = w.take(0, axis), w.take(1, axis)
        w = np.stack((v0, v1, v0 + v1, v0 - v1), axis=axis)
    return w


def _reference_best_affine(w):
    top = np.abs(w)
    size = np.ones((), dtype=np.int32)
    for axis in range(w.ndim):
        free = np.maximum(top.take(2, axis), top.take(3, axis))
        top = np.stack((top.take(0, axis), top.take(1, axis), free), axis=axis)
        size = np.multiply.outer(size, np.array([1, 1, 2], dtype=np.int32))
    return (size + top) // 2


def _reference_best_program(agree):
    n = agree.ndim
    best = agree.copy()
    total = int(best.sum())
    for _ in range(n - 1):
        for axis in range(n):
            lead = (slice(None),) * axis
            free = best[lead + (2,)]
            np.maximum(free, agree[lead + (0,)] + best[lead + (1,)], out=free)
            np.maximum(free, agree[lead + (1,)] + best[lead + (0,)], out=free)
        total, before = int(best.sum()), total
        if total == before:
            break
    return best


def _reference_inputs():
    for t in range(256):
        yield boolfun.BooleanFunction(3, [(t >> i) & 1 for i in range(8)])
    rng = np.random.default_rng(1018)
    for n in range(4, 11):
        size = 1 << n
        for _ in range(2):
            yield boolfun.BooleanFunction(n, rng.integers(0, 2, size))
            yield boolfun.BooleanFunction(n, rng.random(size) < 0.1)
            mask = int(rng.integers(0, size))
            bits = (np.bitwise_count(np.arange(size) & mask) & 1) ^ int(rng.integers(0, 2))
            bits[rng.choice(size, 3, replace=False)] ^= 1
            yield boolfun.BooleanFunction(n, bits)
    for n in range(1, 8):
        for values in itertools.product((0, 1), repeat=n + 1):
            yield boolfun.make_symmetric(boolfun.SymmetricSpec(n, values))


def test_level_ordered_pass_matches_the_fixed_point_reference():
    checked = 0
    for f in _reference_inputs():
        w = classical._subcube_spectra(f)
        ref_w = _reference_subcube_spectra(f)
        assert w.shape == ref_w.shape and np.array_equal(w, ref_w)
        agree = classical._best_affine(w)
        ref_agree = _reference_best_affine(ref_w)
        assert agree.shape == ref_agree.shape and np.array_equal(agree, ref_agree)
        best = classical._best_program(agree)
        ref_best = _reference_best_program(ref_agree)
        assert best.shape == ref_best.shape and np.array_equal(best, ref_best)
        res = classical.approximation_ratio(f)
        assert res.agreements == int(ref_best[(2,) * f.n])
        assert str(res.witness) == str(classical._witness(ref_w, ref_agree, ref_best))
        checked += 1
    assert checked == 256 + 7 * 6 + 508
