"""Plain records: the base of the package's spec and result classes.

    class Evaluation(Record, frozen=True):
        value: object
        error: object
        certified: bool
        flagged: bool = False

A subclass's fields are its own annotations, in order, and a class
attribute of a field's name is its default; a dict default is copied for
each instance.  The constructor takes the fields by position or keyword,
then calls ``__post_init__`` when the class has one.  Two records are
equal when they have the same class and equal field tuples, and ``repr``
reads ``Name(field=value, ...)`` without the fields named in ``hide``.
A frozen record hashes by its field tuple and refuses to set or delete
an attribute with ``FrozenInstanceError`` (its ``__post_init__`` sets
through ``object.__setattr__``); other records are unhashable.

This is what the standard library's decorator gave these classes, without
its import, which loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and without executing generated code: the standard module is imported
only to raise its error.
"""

from __future__ import annotations


class Record:
    _fields = ()
    _defaults = {}
    _shown = ()

    def __init_subclass__(cls, frozen=False, hide=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}
        cls._shown = tuple(name for name in cls._fields if name not in hide)
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = Record._refuse_set
            cls.__delattr__ = Record._refuse_delete

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"arguments but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                default = cls._defaults[name]
                values[name] = default.copy() if isinstance(default, dict) else default
        self.__dict__.update(values)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({inner})"

    def _hash(self):
        return hash(self._values())

    def _refuse_set(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def _refuse_delete(self, name):
        _refuse(f"cannot delete field {name!r}")


def _refuse(message):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(message)
