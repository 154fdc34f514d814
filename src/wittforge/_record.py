"""The base of the package's immutable value records.

Each record class writes its own __init__ (validating and coercing its
arguments, then storing each field through set_field), its own __eq__,
true only against an instance of the same class with equal field tuples,
and its own __hash__, the hash of that field tuple.  That is the
behaviour of a frozen dataclass, without importing dataclasses, which
pulls in inspect and ast and costs a cold command more than the
arithmetic of most of them.  The methods stay per class on purpose: a
generic loop over the field names costs every construction and
comparison on the hot paths.
"""

set_field = object.__setattr__


class Record:
    """Refuses assignment and deletion; the repr lists the annotated fields.

    cached_property still works on a record: it writes the instance
    __dict__ directly rather than through __setattr__.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"
