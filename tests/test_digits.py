import copy
import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutiple import (
    DigitString,
    ParameterError,
    Permutation,
    canonical_sigma,
    verify_permutiple,
)
from permutiple.digits import smallest_bijection

from helpers import carries_by_value, make_record


class TestValue:
    def test_known_decimal(self):
        assert DigitString.from_display(10, (8, 7, 9, 1, 2)).value() == 87912

    def test_zero(self):
        assert DigitString(7, (0,)).value() == 0

    def test_base_six_positional(self):
        # 4*6**4 + 3*6**3 + 5*6**2 + 1*6 + 2
        expected = 4 * 6**4 + 3 * 6**3 + 5 * 6**2 + 1 * 6 + 2
        assert expected == 6020
        assert DigitString.from_display(6, (4, 3, 5, 1, 2)).value() == expected

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**9))
    def test_from_int_round_trip(self, base, value):
        assert DigitString.from_int(base, value).value() == value

    def test_from_int_width(self):
        ds = DigitString.from_int(10, 42, width=5)
        assert ds.display == (0, 0, 0, 4, 2)
        with pytest.raises(ParameterError):
            DigitString.from_int(10, 123, width=2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            DigitString(10, ())
        with pytest.raises(ParameterError):
            DigitString(10, (10,))
        with pytest.raises(ParameterError):
            DigitString(1, (0,))


class TestReflect:
    def test_base_four(self):
        ds = DigitString.from_display(4, (2, 2, 3, 1, 1, 0))
        assert ds.reflect().display == (1, 1, 0, 2, 2, 3)

    def test_single_digit(self):
        assert DigitString(10, (0,)).reflect().display == (9,)

    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda b: st.tuples(
                st.just(b), st.lists(st.integers(0, b - 1), min_size=1, max_size=12)
            )
        )
    )
    def test_involution(self, base_and_digits):
        base, digits = base_and_digits
        ds = DigitString(base, tuple(digits))
        assert ds.reflect().reflect() == ds


class TestPermutation:
    def test_constructors(self):
        assert Permutation.identity(4).mapping == (0, 1, 2, 3)
        assert Permutation.reversal(4).mapping == (3, 2, 1, 0)
        assert Permutation.rotation(5, 1).mapping == (1, 2, 3, 4, 0)
        assert Permutation.rotation(5, -1).mapping == (4, 0, 1, 2, 3)
        assert Permutation.transposition(4, 1, 3).mapping == (0, 3, 2, 1)

    def test_compose_and_inverse(self):
        rot = Permutation.rotation(5, 2)
        rev = Permutation.reversal(5)
        composed = rev.compose(rot)
        for i in range(5):
            assert composed(i) == rev(rot(i))
        assert rot.compose(rot.inverse()) == Permutation.identity(5)

    def test_not_bijection(self):
        with pytest.raises(ParameterError):
            Permutation((0, 0, 1))


@functools.cache
def _scanned_permutiples():
    """Every n*q below base**k, for 1 < n < base <= 12 and k <= 4, whose k
    zero-padded digits rearrange those of q, found by integer arithmetic
    alone: (n, base, digits, preimage), least-significant first."""
    found = []
    for base in range(3, 13):
        for k in range(1, 5):
            for n in range(2, base):
                for q in range((base**k - 1) // n + 1):
                    digits = [n * q // base**j % base for j in range(k)]
                    preimage = [q // base**j % base for j in range(k)]
                    if sorted(digits) == sorted(preimage):
                        found.append((n, base, digits, preimage))
    return found


class TestVerify:
    def test_reversal_multiplication(self):
        # derive the expected carries from prefix values, then freeze them
        derived = carries_by_value(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        assert derived == (0, 3, 3, 3, 0, 0)
        digits = DigitString.from_display(10, (8, 7, 9, 1, 2))
        record = verify_permutiple(digits, Permutation.reversal(5), 4)
        assert record is not None
        assert record.carries == derived
        assert record.preimage.display == (2, 1, 9, 7, 8)
        assert record.value() == 4 * record.preimage_value()

    def test_mixed_permutation(self):
        derived = carries_by_value(4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8))
        assert derived == (0, 3, 3, 2, 0, 0)
        record = make_record(4, 10, (8, 6, 7, 1, 2), (2, 1, 6, 7, 8))
        assert record.carries == derived

    def test_zero_string(self):
        digits = DigitString(10, (0, 0))
        record = verify_permutiple(digits, Permutation.identity(2), 5)
        assert record is not None
        assert record.carries == (0, 0, 0)

    def test_failure_is_none(self):
        digits = DigitString.from_display(10, (1, 2))
        assert verify_permutiple(digits, Permutation.identity(2), 2) is None

    def test_parameter_errors(self):
        digits = DigitString.from_display(10, (1, 2))
        with pytest.raises(ParameterError):
            verify_permutiple(digits, Permutation.identity(2), 1)
        with pytest.raises(ParameterError):
            verify_permutiple(digits, Permutation.identity(2), 10)
        with pytest.raises(ParameterError):
            verify_permutiple(digits, Permutation.identity(3), 4)

    # each fault names what the listed carries break.  A record takes no
    # carries from outside: its constructor has no carries argument, and a
    # copy of a record whose carries were tampered with proves its own,
    # (0, 3, 3, 3, 0, 0)
    @pytest.mark.parametrize(
        "carries, fault",
        [
            ((0, 0, 0, 0, 0, 0), "recurrence"),
            # c_4 off by one
            ((0, 3, 3, 3, 1, 0), "recurrence"),
            # a nonzero top carry c_5
            ((0, 3, 3, 3, 0, 1), "end at 0"),
            # one entry short
            ((0, 3, 3, 3, 0), "k\\+1 carries"),
            # c_1 equal to the multiplier
            ((0, 4, 3, 3, 0, 0), "leaves 0..3"),
        ],
    )
    def test_record_invariants_enforced(self, carries, fault):
        record = make_record(4, 10, (8, 7, 9, 1, 2), (2, 1, 9, 7, 8))
        from permutiple import PermutipleRecord

        with pytest.raises(TypeError):
            PermutipleRecord(4, record.digits, record.sigma, carries)
        corrupt = copy.copy(record)
        object.__setattr__(corrupt, "carries", carries)  # as a tampered object would hold
        for again in (pickle.loads(pickle.dumps(corrupt)), copy.copy(corrupt)):
            assert again.carries == (0, 3, 3, 3, 0, 0), fault
            assert again == record
        assert PermutipleRecord(4, record.digits, record.sigma) == record

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_verify_agrees_with_integer_values(self, data):
        if data.draw(st.booleans()):
            # random digits and a random permutation: rarely a permutiple
            base = data.draw(st.integers(min_value=3, max_value=12))
            n = data.draw(st.integers(min_value=2, max_value=base - 1))
            k = data.draw(st.integers(min_value=1, max_value=6))
            digits = data.draw(st.lists(st.integers(0, base - 1), min_size=k, max_size=k))
            mapping = data.draw(st.permutations(range(k)))
        else:
            # a permutiple from the integer scan, with any bijection onto it
            n, base, digits, preimage = data.draw(st.sampled_from(_scanned_permutiples()))
            order = data.draw(st.permutations(range(len(digits))))
            mapping = []
            for p in preimage:
                mapping.append(next(i for i in order if digits[i] == p and i not in mapping))
        preimage = [digits[i] for i in mapping]
        value = sum(d * base**j for j, d in enumerate(digits))
        preimage_value = sum(p * base**j for j, p in enumerate(preimage))
        record = verify_permutiple(DigitString(base, digits), Permutation(mapping), n)
        assert (record is not None) == (value == n * preimage_value)
        if record is not None:
            expected = carries_by_value(n, base, digits[::-1], preimage[::-1])
            assert record.carries == expected

    def test_single_digit_only_zero(self):
        assert verify_permutiple(DigitString(10, (0,)), Permutation.identity(1), 4) is not None
        for d in range(1, 10):
            assert verify_permutiple(DigitString(10, (d,)), Permutation.identity(1), 4) is None


class TestCanonicalSigma:
    def test_lexicographically_smallest(self):
        digits = DigitString.from_display(10, (2, 1, 2))
        preimage = DigitString.from_display(10, (2, 2, 1))
        sigma = canonical_sigma(digits, preimage)
        assert sigma is not None
        assert sigma.mapping == (1, 0, 2)

    def test_mismatch_returns_none(self):
        digits = DigitString.from_display(10, (1, 2))
        preimage = DigitString.from_display(10, (1, 3))
        assert canonical_sigma(digits, preimage) is None

    def test_base_mismatch_raises(self):
        with pytest.raises(ParameterError):
            canonical_sigma(DigitString(10, (1,)), DigitString(8, (1,)))

    def test_bijection_of_plain_sequences(self):
        assert smallest_bijection((2, 1, 2), (1, 2, 2)) == [1, 0, 2]
        assert smallest_bijection((1, 2), (2, 2)) is None  # a digit used twice
        assert smallest_bijection((1, 2), (1, 3)) is None  # a digit missing
        assert smallest_bijection((1, 2), (1,)) is None  # lengths differ

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), base=st.integers(2, 6))
    def test_bijection_against_brute_force(self, data, base):
        # the kernel's records take this result as their sigma unchecked
        digit = st.integers(0, base - 1)
        digits = data.draw(st.lists(digit, max_size=6))
        preimage = data.draw(
            st.one_of(st.permutations(digits), st.lists(digit, max_size=6)), label="preimage"
        )
        mapping = smallest_bijection(digits, preimage)
        if sorted(digits) != sorted(preimage):
            assert mapping is None
            return
        assert sorted(mapping) == list(range(len(digits)))
        assert all(digits[m] == p for m, p in zip(mapping, preimage))
        assert mapping == min(
            list(m)
            for m in itertools.permutations(range(len(digits)))
            if all(digits[i] == p for i, p in zip(m, preimage))
        )
