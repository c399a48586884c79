import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limspace import boolfun


def test_truth_indexing_is_little_endian_by_variable():
    f = boolfun.maj(3)
    assert f.truth[0b011] == 1
    assert f.truth[0b100] == 0
    assert f.to_hex() == "E8"


def test_hex_round_trip_majority():
    f = boolfun.maj(3)
    again = boolfun.BooleanFunction.from_hex(3, f.to_hex())
    assert np.array_equal(f.truth, again.truth)


def test_from_hex_rejects_oversized_payload():
    with pytest.raises(ValueError, match="more bits than the arity allows"):
        boolfun.BooleanFunction.from_hex(2, "1F")
    with pytest.raises(ValueError, match="must not carry a sign"):
        boolfun.BooleanFunction.from_hex(2, "-6")


@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_hex_round_trip_random(n, rnd):
    bits = [rnd.randint(0, 1) for _ in range(1 << n)]
    f = boolfun.BooleanFunction(n, bits)
    assert np.array_equal(boolfun.BooleanFunction.from_hex(n, f.to_hex()).truth, f.truth)


def test_to_hex_matches_the_python_int_formula():
    rng = np.random.default_rng(20240614)
    tables = [boolfun.BooleanFunction(n, rng.integers(0, 2, 1 << n)) for n in range(1, 13)]
    for f in tables + [boolfun.slsb(16)]:
        value = sum(int(bit) << i for i, bit in enumerate(f.truth))
        assert f.to_hex() == format(value, f"0{((1 << f.n) + 3) // 4}X")


def test_slsb_profile_matches_weight_bit():
    for n in range(2, 9):
        f = boolfun.slsb(n)
        for idx in range(1 << n):
            assert f.truth[idx] == (bin(idx).count("1") >> 1) & 1


def test_maj_and_ip_values():
    f = boolfun.maj(5)
    assert f.truth[0b10111] == 1
    assert f.truth[0b00011] == 0
    g = boolfun.ip(4)
    assert g.truth[0b0011] == 1
    assert g.truth[0b1111] == 0
    assert g.truth[0b1100] == 1
    with pytest.raises(ValueError):
        boolfun.maj(4)
    with pytest.raises(ValueError):
        boolfun.ip(3)


def test_symmetric_constructions_are_symmetric():
    assert boolfun.weight_profile(boolfun.slsb(6)) == boolfun.slsb_spec(6)
    assert boolfun.weight_profile(boolfun.maj(5)) == boolfun.maj_spec(5)
    assert boolfun.weight_profile(boolfun.ip(4)) is None


def test_input_weights_are_the_popcount():
    for n in range(17):
        weights = boolfun.input_weights(n)
        assert weights.dtype == np.uint8
        assert np.array_equal(weights, np.bitwise_count(np.arange(1 << n)))


@functools.cache
def _weight_masks(n):
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    return [weights == w for w in range(n + 1)]


def _weight_profile_loop(f):
    """One masked scan per weight, then the values read at inputs 2^w - 1."""
    for mask in _weight_masks(f.n):
        vals = f.truth[mask]
        if vals.size and not np.all(vals == vals[0]):
            return None
    return boolfun.SymmetricSpec(f.n, tuple(int(f.truth[(1 << w) - 1]) for w in range(f.n + 1)))


def _weight_profile_cases():
    """Every table with n <= 3; for n = 4..12 every symmetric table and a
    seeded one-bit flip of each; seeded uniform tables at n = 4..12."""
    for n in range(1, 4):
        for t in range(1 << (1 << n)):
            yield boolfun.BooleanFunction(n, [(t >> i) & 1 for i in range(1 << n)])
    rng = np.random.default_rng(1019)
    for n in range(4, 13):
        for values in itertools.product((0, 1), repeat=n + 1):
            f = boolfun.make_symmetric(boolfun.SymmetricSpec(n, values))
            flipped = f.truth.copy()
            flipped[rng.integers(0, 1 << n)] ^= 1
            yield f
            yield boolfun.BooleanFunction(n, flipped)
    for n in range(4, 13):
        for _ in range(20):
            yield boolfun.BooleanFunction(n, rng.integers(0, 2, 1 << n))


def test_weight_profile_matches_the_weight_loop():
    found = {True: 0, False: 0}
    for f in _weight_profile_cases():
        spec = boolfun.weight_profile(f)
        assert spec == _weight_profile_loop(f)
        if spec is not None:
            assert boolfun.make_symmetric(spec) == f
        found[spec is not None] += 1
    assert found[True] > 16352 and found[False] > 16000


@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_make_symmetric_permutation_invariant(n, rnd):
    profile = tuple(rnd.randint(0, 1) for _ in range(n + 1))
    f = boolfun.make_symmetric(boolfun.SymmetricSpec(n, profile))
    perm = list(range(n))
    rnd.shuffle(perm)
    idx = np.arange(1 << n)
    permuted = np.zeros_like(idx)
    for target, source in enumerate(perm):
        permuted |= ((idx >> source) & 1) << target
    assert np.array_equal(f.truth[permuted], f.truth)


@given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_parseval(n, rnd):
    bits = [rnd.randint(0, 1) for _ in range(1 << n)]
    spec = boolfun.walsh_spectrum(boolfun.BooleanFunction(n, bits))
    assert abs(np.sum(spec.coeffs**2) - 1.0) <= 1e-10


def test_spectrum_numerators_are_exact_integers():
    spec = boolfun.walsh_spectrum(boolfun.slsb(4))
    assert spec.numerators.dtype == np.int64
    assert np.all(np.abs(spec.numerators) == 4)
    assert boolfun.spectral_max(boolfun.slsb(4)) == 0.25
    assert spec.coeff(0) == spec.numerators[0] / 16.0


def test_flat_spectra_exact_dyadic():
    for n in (4, 6, 8):
        nums = boolfun.walsh_spectrum(boolfun.slsb(n)).numerators
        assert np.all(np.abs(nums) == 1 << (n // 2))
    for n in (4, 6, 8, 10):
        nums = boolfun.walsh_spectrum(boolfun.ip(n)).numerators
        assert np.all(np.abs(nums) == 1 << (n // 2))
    for n in (3, 5, 7, 9):
        nums = np.abs(boolfun.walsh_spectrum(boolfun.slsb(n)).numerators)
        assert set(np.unique(nums)) == {0, 1 << ((n + 1) // 2)}


def test_majority_extreme_coefficient_is_the_central_binomial():
    for n in (3, 5, 7, 9, 11):
        top = boolfun.spectral_max(boolfun.maj(n))
        expected = math.comb(n - 1, (n - 1) // 2) / 2 ** (n - 1)
        assert top == expected
        assert top <= math.sqrt(2.0 / (math.pi * (n - 1)))
        assert top > boolfun.maj_coeff_asymptote(n)
        assert top / boolfun.maj_coeff_asymptote(n) < 1.3


def test_bound_ordering():
    for gmax in (0.0, 0.125, 0.25, 0.5, 1.0):
        assert boolfun.classical_lower_bound(gmax) <= boolfun.classical_upper_bound(gmax)
    assert boolfun.classical_upper_bound(1.0) == 1.0
    assert boolfun.classical_lower_bound(0.125) == 0.5625
    assert boolfun.classical_upper_bound(0.125) == 0.8125
    with pytest.raises(ValueError):
        boolfun.classical_lower_bound(-0.1)
    with pytest.raises(ValueError):
        boolfun.classical_upper_bound(1.5)


def _all_affine_tables(n: int) -> set[bytes]:
    tables = set()
    for c in (0, 1):
        for mask in range(1 << n):
            tables.add(boolfun.AffineWitness(n, c, mask).truth().tobytes())
    return tables


def test_affine_test_exhaustive_small():
    for n in (1, 2, 3, 4):
        affine_tables = _all_affine_tables(n)
        assert len(affine_tables) == 1 << (n + 1)
        hits = 0
        for t in range(1 << (1 << n)):
            bits = (t >> np.arange(1 << n)) & 1
            f = boolfun.BooleanFunction(n, bits)
            witness = boolfun.affine_test(f)
            assert (witness is not None) == (f.truth.tobytes() in affine_tables)
            if witness is not None:
                hits += 1
                assert np.array_equal(witness.truth(), f.truth)
        assert hits == 1 << (n + 1)
