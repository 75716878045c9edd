"""Exact base-b digit arithmetic and digit-preserving multiplication.

Digit sequences are stored least-significant-first, so ``digits[j]`` is the
coefficient of ``base**j``.  Display order (most-significant first) appears
only at formatting boundaries.  All arithmetic is exact integer arithmetic.
The classes here are the library's validated values (see
:mod:`permutiple.value`).  :func:`check_equation` proves a permutiple
equation and gives a record its carries: it multiplies the preimage out
from the bottom digit and returns them.  The search kernel
(:func:`permutiple.search.walk_records`) proves its walks with the same
step, once for each transition of its plan's option rows, and yields the
same carries.  A
:class:`PermutipleRecord`'s fields are its multiplier, digits and sigma;
its carries are not a field but what the proof returns.  Three paths
build one.  Its public constructor, and so pickling, copying and
:func:`verify_permutiple`, validates every part: the
:class:`DigitString`, the :class:`Permutation`, and the equation.
:func:`build_record`, which builds siblings, symmetry images, seeds and
oracle hits, proves the rearrangement and the equation once each and
leaves sigma unset.  The kernel's records are assembled from its proved
walks by the assembler that :func:`build_record` ends with, with no
second proof.  Every record keeps its proved preimage digits and
carries, which its :attr:`~PermutipleRecord.preimage`, ``key`` and
``string`` read; a built record's sigma is derived by
:func:`smallest_bijection` when first read.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import MultisetMismatchError, ParameterError
from .value import Value

__all__ = [
    "DigitString",
    "Permutation",
    "PermutipleRecord",
    "build_record",
    "canonical_sigma",
    "carry_step",
    "check_equation",
    "check_length",
    "check_multiplier",
    "is_rearrangement",
    "smallest_bijection",
    "verify_permutiple",
]


def check_multiplier(multiplier: int, base: int) -> None:
    """Raise :class:`ParameterError` unless ``1 < multiplier < base``."""
    if not 1 < multiplier < base:
        raise ParameterError(
            f"multiplier must satisfy 1 < n < base; got n={multiplier}, base={base}"
        )


def check_length(length: int) -> None:
    """Raise :class:`ParameterError` unless ``length >= 1``."""
    if length < 1:
        raise ParameterError(f"length must be at least 1; got {length}")


def check_equation(multiplier: int, base: int, digits: Sequence[int],
                   preimage: Sequence[int]) -> tuple[int, ...]:
    """Prove digits = multiplier * preimage and return the carries c_0..c_k.

    The sequences are least-significant first.  Needs 1 < n < b, k >= 1
    and every digit in 0..b-1; then, from c_0 = 0,
    ``c_{j+1}, low = divmod(n*p_j + c_j, b)`` must give ``low == d_j`` at
    every position j, and c_k must be 0.  Each carry lies in 0..n-1, as
    n*p_j + c_j < n*b.  Any failure raises :class:`ParameterError`.
    This is :func:`build_record`'s proof.  The search kernel proves its
    walks with the same step, once for each option of its plan's rows, of
    which every walked position is one.
    """
    n, b, k = multiplier, base, len(digits)
    if not 1 < n < b:
        check_multiplier(n, b)
    if not k or len(preimage) != k:
        raise ParameterError(f"need k >= 1 digits and k preimage digits; k = {k}")
    carries = [0]
    carry = 0
    for j in range(k):
        d, p = digits[j], preimage[j]
        if not (0 <= d < b and 0 <= p < b):
            raise ParameterError(f"digit out of range for base {b}")
        carry, low = divmod(n * p + carry, b)
        if low != d:
            raise ParameterError(f"carry recurrence violated at position {j}")
        carries.append(carry)
    if carry:
        raise ParameterError(f"carries of {n} * preimage do not end at 0: top carry {carry}")
    return tuple(carries)


def carry_step(multiplier: int, base: int, digit: int, preimage: int) -> tuple[int, int] | None:
    """The carries (c, c') into and out of one position of digits = n * preimage.

    The one solution of b*c' + d = n*p + c, the recurrence that
    :func:`check_equation` proves, with c and c' in 0..n-1: c' = -q for
    ``q, c = divmod(d - n*p, b)``, in range whenever c < n and d and p lie
    in 0..b-1.  None when (d, p) is not a mother-graph edge or a digit is
    out of range.  This is the machine's one transition formula.
    """
    q, c = divmod(digit - multiplier * preimage, base)
    if c < multiplier and 0 <= digit < base and 0 <= preimage < base:
        return c, -q
    return None


class DigitString(Value):
    """A base-b digit sequence, least-significant digit first.

    Leading zeros (at the high-index end) are permitted; ``canonical`` is
    true when the most significant digit is nonzero.
    """

    __slots__ = ("base", "digits")
    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.base < 2:
            raise ParameterError(f"base must be at least 2, got {self.base}")
        if not self.digits:
            raise ParameterError("a digit string needs at least one digit")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ParameterError(f"digit {d} out of range for base {self.base}")

    @classmethod
    def from_display(cls, base: int, display: Iterable[int]) -> "DigitString":
        """Build from most-significant-first digit order."""
        return cls(base, tuple(reversed(tuple(display))))

    @classmethod
    def from_int(cls, base: int, value: int, width: int | None = None) -> "DigitString":
        """Digit expansion of ``value`` >= 0, zero-padded up to ``width`` digits."""
        if base < 2:
            raise ParameterError(f"base must be at least 2, got {base}")
        if value < 0:
            raise ParameterError("negative values have no digit string")
        digits = []
        v = value
        while v:
            v, d = divmod(v, base)
            digits.append(d)
        if not digits:
            digits.append(0)
        if width is not None:
            if len(digits) > width:
                raise ParameterError(
                    f"{value} does not fit in {width} base-{base} digits"
                )
            digits.extend([0] * (width - len(digits)))
        return cls(base, tuple(digits))

    @property
    def display(self) -> tuple[int, ...]:
        """Digits in most-significant-first order."""
        return tuple(reversed(self.digits))

    @property
    def canonical(self) -> bool:
        return self.digits[-1] != 0

    def value(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.base + d
        return total

    def reflect(self) -> "DigitString":
        """Replace every digit d by base-1-d (an involution)."""
        m = self.base - 1
        return DigitString(self.base, tuple(m - d for d in self.digits))

    def multiset(self) -> tuple[int, ...]:
        """The digit multiset in sorted form."""
        return tuple(sorted(self.digits))

    def __len__(self) -> int:
        return len(self.digits)


class Permutation(Value):
    """A bijection on {0, ..., size-1}; ``mapping[i]`` is the image of ``i``."""

    __slots__ = ("mapping",)
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ParameterError(f"not a bijection on 0..{len(self.mapping) - 1}: {self.mapping}")

    @property
    def size(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))

    @classmethod
    def rotation(cls, size: int, shift: int) -> "Permutation":
        """The ``shift``-th power of the full cycle 0 -> 1 -> ... -> size-1 -> 0."""
        return cls(tuple((i + shift) % size for i in range(size)))

    @classmethod
    def reversal(cls, size: int) -> "Permutation":
        return cls(tuple(size - 1 - i for i in range(size)))

    @classmethod
    def transposition(cls, size: int, i: int, j: int) -> "Permutation":
        mapping = list(range(size))
        mapping[i], mapping[j] = mapping[j], mapping[i]
        return cls(tuple(mapping))

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: ``self.compose(other)(i) == self(other(i))``."""
        if self.size != other.size:
            raise ParameterError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.mapping[other.mapping[i]] for i in range(self.size)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, m in enumerate(self.mapping):
            inv[m] = i
        return Permutation(tuple(inv))


class _Proof:
    """The slots in which a :class:`PermutipleRecord` keeps what its proof
    gives, outside the record's fields: the preimage digits and the
    carries."""

    __slots__ = ("_preimage", "carries")
    _preimage: tuple[int, ...]
    carries: tuple[int, ...]


class PermutipleRecord(Value, _Proof):
    """A verified digit-preserving multiplication digits = multiplier * permuted digits.

    ``carries[j]`` is the carry entering position j of the single-digit
    multiplication; ``carries[0]`` and ``carries[-1]`` are zero and every
    carry is below the multiplier.  Construction validates the digit
    string and the permutation and runs :func:`check_equation`, which
    gives the carries; :func:`build_record` skips the first two.  The
    carries and the preimage digits the proof read (which
    :attr:`preimage`, :attr:`key` and :attr:`string` read) are kept
    outside the fields, as the fields determine them.  A built record
    leaves ``sigma`` unset until it is first read, and then takes the
    smallest bijection onto that preimage; equality, hashing, repr and
    pickling read it as a field like any other.
    """

    __slots__ = ("multiplier", "digits", "sigma")
    multiplier: int
    digits: DigitString
    sigma: Permutation

    def __post_init__(self) -> None:
        d = self.digits.digits
        if self.sigma.size != len(d):
            raise ParameterError("permutation size must match the digit count")
        preimage = tuple([d[i] for i in self.sigma.mapping])
        carries = check_equation(self.multiplier, self.digits.base, d, preimage)
        object.__setattr__(self, "carries", carries)
        object.__setattr__(self, "_preimage", preimage)

    def __getattr__(self, name: str) -> Permutation:
        # reached only when a slot is unset: a kernel record's sigma
        if name != "sigma":
            raise AttributeError(name)
        sigma = _new(Permutation)
        _set(sigma, "mapping", tuple(smallest_bijection(self.digits.digits, self._preimage)))
        _set(self, "sigma", sigma)
        return sigma

    @property
    def base(self) -> int:
        return self.digits.base

    @property
    def preimage(self) -> DigitString:
        """The multiplicand: the digits of the record permuted by sigma."""
        return _digit_string(self.digits.base, self._preimage)

    @property
    def string(self) -> tuple[tuple[int, int], ...]:
        """Input pairs (d_j, d_sigma(j)) in position order."""
        return tuple(zip(self.digits.digits, self._preimage))

    @property
    def canonical(self) -> bool:
        return self.digits.canonical

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Dedup/sort key: display digits plus display preimage."""
        return (self.digits.display, self._preimage[::-1])

    def value(self) -> int:
        return self.digits.value()

    def preimage_value(self) -> int:
        return self.preimage.value()

    def __len__(self) -> int:
        return len(self.digits)


_new = object.__new__
_set = object.__setattr__
# the slots' own setters, which skip the attribute lookup of ``_set``
_set_base = DigitString.base.__set__
_set_digits = DigitString.digits.__set__
_set_multiplier = PermutipleRecord.multiplier.__set__
_set_record_digits = PermutipleRecord.digits.__set__
_set_carries = _Proof.carries.__set__
_set_preimage = _Proof._preimage.__set__


def _digit_string(base: int, digits: tuple[int, ...]) -> DigitString:
    """A :class:`DigitString` of digits known to lie in 0..base-1, with
    base >= 2 and at least one digit, assembled without re-checking them."""
    string = _new(DigitString)
    _set_base(string, base)
    _set_digits(string, digits)
    return string


def build_record(multiplier: int, base: int, digits: Sequence[int],
                 preimage: Sequence[int]) -> PermutipleRecord:
    """The record of least-significant-first digits and preimage.

    :func:`is_rearrangement` proves that the preimage rearranges the digits
    (tested first, else :class:`MultisetMismatchError`) and one
    :func:`check_equation` proves the equation (else :class:`ParameterError`)
    and gives the record its carries.
    The ``__post_init__`` checks of the record's values are skipped, as
    those two imply them:

    - :func:`check_equation` proves 1 < n < b (so b >= 2), k >= 1 and
      every digit in 0..b-1, which is all :class:`DigitString` checks;
    - as the preimage rearranges the digits, :func:`smallest_bijection`
      finds a bijection on 0..k-1 with ``digits[sigma[j]] == preimage[j]``
      when sigma is first read, which is all :class:`Permutation` checks;
    - so the preimage the record would rebuild from sigma is the one just
      proved, which is all :class:`PermutipleRecord` checks.

    The record keeps the preimage and the proved carries, as its
    constructor would, and leaves sigma unset; every field is a tuple, as
    the public constructors would leave it.
    """
    if not is_rearrangement(digits, preimage):
        raise MultisetMismatchError("digit and preimage multisets differ")
    carries = check_equation(multiplier, base, digits, preimage)
    return _assemble(multiplier, base, tuple(digits), tuple(preimage), carries)


def _assemble(multiplier: int, base: int, digits: tuple[int, ...], preimage: tuple[int, ...],
              carries: tuple[int, ...]) -> PermutipleRecord:
    """The record of digits, preimage and carries, tuples already proved to
    satisfy everything :func:`build_record` proves, assembled without
    checking them again; sigma is left unset."""
    record = _new(PermutipleRecord)
    _set_multiplier(record, multiplier)
    _set_record_digits(record, _digit_string(base, digits))
    _set_carries(record, carries)
    _set_preimage(record, preimage)
    return record


def is_rearrangement(digits: Sequence[int], preimage: Sequence[int]) -> bool:
    """Whether ``preimage`` holds the same digit multiset as ``digits``."""
    return sorted(digits) == sorted(preimage)


def verify_permutiple(
    digits: DigitString, sigma: Permutation, multiplier: int
) -> PermutipleRecord | None:
    """Run the single-digit multiplication and check it reproduces ``digits``.

    The record's constructor proves the equation for the preimage, the
    digits permuted by ``sigma``.  None when the proof fails (not
    digit-preserving).  Parameter-domain problems, a multiplier out of
    range or a permutation of another size, raise :class:`ParameterError`.
    """
    check_multiplier(multiplier, digits.base)
    if sigma.size != len(digits):
        raise ParameterError("permutation size must match the digit count")
    try:
        return PermutipleRecord(multiplier, digits, sigma)
    except ParameterError:
        return None


def smallest_bijection(digits: Sequence[int], preimage: Sequence[int]) -> list[int] | None:
    """The lexicographically smallest ``m`` with ``digits[m[j]] == preimage[j]``.

    Each preimage digit takes the lowest unused position holding it, popped
    from a per-digit bucket; a pop fails exactly when the two sequences are
    not rearrangements of each other, and then the result is None.
    """
    if len(digits) != len(preimage):
        return None
    available: dict[int, list[int]] = {}
    for i in range(len(digits) - 1, -1, -1):
        available.setdefault(digits[i], []).append(i)
    try:
        return [available[value].pop() for value in preimage]
    except (KeyError, IndexError):
        return None


def canonical_sigma(digits: DigitString, preimage: DigitString) -> Permutation | None:
    """Lexicographically smallest bijection with ``digits[sigma(j)] == preimage[j]``.

    Returns None when the two digit multisets differ (no such bijection).
    """
    if digits.base != preimage.base:
        raise ParameterError("digit strings must share a base")
    if len(digits) != len(preimage):
        raise ParameterError("digit strings must share a length")
    mapping = smallest_bijection(digits.digits, preimage.digits)
    return None if mapping is None else Permutation(tuple(mapping))
