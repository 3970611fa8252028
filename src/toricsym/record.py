"""Frozen value records: the base class of the package's result types.

A subclass lists its fields in `__slots__`, in construction order, and
gets what `@dataclass(frozen=True)` gave it: positional and keyword
construction with `TypeError` on a missing or unexpected argument, value
equality, a hash, a `Name(field=value, ...)` repr and `AttributeError`
on assignment.  A class-level `_compare` names the fields that equality,
the hash and the repr read, when that is not all of them; a class with
defaults or derived fields writes its own `__init__` and ends it with
`Record.__init__(self, *values)`, one value per slot.

The hash is computed on first use and kept in the `_hash` slot, so a
record used as a cache key hashes its nested tuples once.  The methods
are generic, so defining a record compiles no code.  The standard
dataclass module, with the `inspect` and `ast` it imports and the methods
it execs class by class, took 30-40 ms of each `toricsym` process.
"""

from operator import attrgetter

_set = object.__setattr__


def _restore(cls, values):
    obj = object.__new__(cls)
    Record.__init__(obj, *values)
    return obj


class Record:
    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record {cls.__name__} must list its fields in __slots__")
        cls._fields = tuple(cls.__slots__)
        cls._compare = tuple(cls.__dict__.get("_compare", cls._fields))
        cls._key = attrgetter(*cls._compare)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, names[len(args):]))
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing argument {exc.args[0]!r}") from None
            if kwargs:
                name = next(iter(kwargs))
                how = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{type(self).__name__}() got {how} argument {name!r}")
        elif len(args) < len(names):
            raise TypeError(f"{type(self).__name__}() missing argument {names[len(args)]!r}")
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key(self))
            _set(self, "_hash", h)
            return h

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compare)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self):
        return _restore, (self.__class__, tuple(getattr(self, n) for n in self._fields))
