"""The base of the value types that validate or compute.

Plain result records are ``typing.NamedTuple``s.  A type that checks its
fields, or that must not behave as a tuple (``FloatInterval``, whose
``+`` and ``*`` are interval arithmetic), derives from ``Frozen``
instead: ``__slots__`` holds its fields, and its ``__init__`` validates
them and sets each once with ``object.__setattr__``.  No class is built
by generating and compiling source at import, a fixed cost that every
command would pay.
"""

from __future__ import annotations


class Frozen:
    """Immutable fields, named by ``_fields``.  Values of one type are
    equal, with equal hashes, when their fields are, and the repr is
    ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # every subclass takes its fields, in order, as its arguments
        return type(self), self._values()
