"""The immutable base of the package's value classes.

A subclass names its fields in ``__slots__``, in constructor order, none
determined by the others, and defines ``__post_init__`` to normalise them
(through ``object.__setattr__``) and validate them, unless each is itself a
validated value.  What the fields determine, such as a record's carries or
a machine graph's edges, is kept in slots of a base class outside the
fields, filled by ``__post_init__``; the rule holds for every class of the
package.  The base gives positional and keyword construction,
equality and hashing by field values between objects of one class, a
``Name(field=value, ...)`` repr, refusal of assignment and deletion, and
pickling (hence ``copy`` and ``deepcopy``) that rebuilds through the
constructor, so an unpickled object is validated again.  It does what
``dataclasses.dataclass(frozen=True)`` did for these classes without
importing ``dataclasses`` and ``inspect``, which cost every process about
20 ms at start-up.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value"]


class Value:
    """Immutable record whose fields are its class's ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        # A generated __init__ takes the fields by position or keyword, with
        # Python's own errors for a bad call, and runs as fast as written code.
        source = (
            f"def __init__(self, {', '.join(fields)}):\n"
            + "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
            + "    self.__post_init__()\n"
        )
        namespace = {"_set": object.__setattr__}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        get = attrgetter(*fields)
        # the field values as a tuple, one field included
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values
