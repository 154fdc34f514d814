"""The base of the package's immutable value records.

Each record class writes its own __init__, which validates or coerces its
arguments and stores each field through set_field.  The fields are the
class's own annotations, read once when the class is created; equality
(true only against an instance of the same class with equal fields), the
hash (that of the field tuple) and the repr all read them.  That is the
behaviour of a frozen dataclass, without importing dataclasses, which
pulls in inspect and ast and costs a cold command more than the
arithmetic of most of them.
"""

from operator import attrgetter

__all__ = ["Record", "set_field"]

set_field = object.__setattr__


class Record:
    """Refuses assignment and deletion; compares, hashes and prints by
    the annotated fields.

    cached_property still works on a record: it writes the instance
    __dict__ directly rather than through __setattr__.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls._fields = fields
            # a single name gives the bare value, so a one-field record
            # compares without building tuples
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
