"""Plain value records.

A record class lists its fields in ``__slots__`` and assigns them in its
own ``__init__``.  It compares equal to a record of the same class with
equal fields, is unhashable unless it defines ``__hash__``, and shows as
``Name(field=value, ...)``.  The classes are written out by hand:
generating them at import would load ``inspect``, ``ast``, ``dis`` and
``tokenize`` into every CLI process and add their code generation to
its start-up.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
