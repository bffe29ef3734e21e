"""``@frozen``: immutable value classes without ``dataclasses``.

``dataclasses`` builds each class's methods with ``exec`` and imports
``inspect`` (and through it ``ast``, ``dis`` and ``tokenize``); for katolab's
few small value classes that was most of the time ``import katolab`` took.
:func:`frozen` reads the field names from the class's own annotations, in
order, and attaches plain functions:

* ``__init__`` takes each field by position or keyword, falls back to the
  class-level default, then calls ``__post_init__`` if the class has one;
* ``__eq__`` compares the fields when the other object is of the same class
  and returns ``NotImplemented`` otherwise; ``__hash__`` hashes the fields;
* ``__repr__`` reads ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` raise ``AttributeError``.

Instances keep a ``__dict__``, so ``functools.cached_property`` works on
them.  A ``__post_init__`` that normalizes a field sets it through
``object.__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields."""
    qualname = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    field_set = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        """Each field's value, from a call that does not pass every field by position."""
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        repeated = not kwargs.keys().isdisjoint(names[: len(args)])
        if len(args) > len(names) or values.keys() != field_set or repeated:
            raise TypeError(
                f"{qualname}() takes the fields {list(names)};"
                f" got {len(args)} by position and {sorted(kwargs)} by keyword"
            )
        return values

    def __init__(self, *args, **kwargs):
        by_position = len(args) == len(names) and not kwargs
        self.__dict__.update(zip(names, args) if by_position else bind(args, kwargs))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{qualname}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
