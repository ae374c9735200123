"""The immutable value base shared by the package's record classes.

A subclass lists its fields in the class-level tuple ``_fields`` and sets
them, after validating its arguments, in its own ``__init__`` by writing
``self.__dict__``.  The base derives ``==``, ``hash`` and ``repr`` from
those fields, refuses assignment, and copies with ``_replace``, which runs
``__init__`` (and so the validation) again.  Attributes outside ``_fields``
(a cached property, say) are neither compared nor copied.

This takes the place of ``@dataclass(frozen=True)``, whose import and
per-class code generation were most of the package's import time, paid once
per CLI process.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Equality, hashing, repr and ``_replace`` over the fields in ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value itself, not a 1-tuple.
        cls._field_values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._field_values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with some fields changed, validated by ``__init__`` again."""
        return self.__class__(**dict(zip(self._fields, self._field_values(self)), **changes))
