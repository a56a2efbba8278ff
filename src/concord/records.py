"""Frozen records: immutable value classes described by their annotations.

`@frozen` makes a class whose body annotates its fields, with optional
class-level defaults, into a record:

- `__init__` takes the fields in annotation order, positionally or by
  keyword; a field left out takes its class-level default (one object,
  shared by every instance), and `__post_init__`, when the class has
  one, runs after the fields are set;
- `__eq__` holds only between instances of one class whose compared
  fields are equal, and `__hash__` is the hash of the tuple of those
  fields; `field(compare=False)` leaves a field out of both;
- `__repr__` reads `Name(field=value, ...)`;
- assigning to or deleting an attribute raises `AttributeError`.

A `__repr__`, `__eq__` or `__hash__` that the class defines itself is
kept.  The methods are this module's functions, reading a field table
built once per class: decorating a class generates and compiles no code.
"""

from functools import partial
from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "compare")

    def __init__(self, default, compare):
        self.default = default
        self.compare = compare


def field(*, default=_MISSING, compare=True):
    """A field's options; `compare=False` leaves it out of eq and hash."""
    return _Field(default, compare)


class _Table:
    """A record class's field names in order; how many lead without a
    default, and the defaults of the rest; the key eq and hash compare,
    as a function of the instance; whether `__post_init__` runs."""

    __slots__ = ("names", "required", "defaults", "key", "post_init")


def frozen(cls):
    """Class decorator: make `cls` a frozen record (see the module doc)."""
    names = tuple(cls.__annotations__)
    defaults = []
    compared = []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        compare = True
        if isinstance(value, _Field):
            compare, value = value.compare, value.default
            if value is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value)
        if value is not _MISSING:
            defaults.append(value)
        elif defaults:
            raise TypeError(f"{cls.__qualname__}.{name}: a field without "
                            f"a default follows one with a default")
        if compare:
            compared.append(name)
    table = _Table()
    table.names = names
    table.required = len(names) - len(defaults)
    table.defaults = tuple(defaults)
    # attrgetter gives a tuple only for two names or more
    if len(compared) > 1:
        table.key = attrgetter(*compared)
    elif compared:
        table.key = partial(_one_key, compared[0])
    else:
        table.key = _no_key
    table.post_init = hasattr(cls, "__post_init__")
    cls._record = table
    cls.__init__ = _init
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    for name, method in (("__repr__", _repr), ("__eq__", _eq), ("__hash__", _hash)):
        if cls.__dict__.get(name) is None:
            setattr(cls, name, method)
    return cls


def _init(self, *args, **kwargs):
    table = self._record
    given = len(args)
    if kwargs or not table.required <= given <= len(table.names):
        args = _bind(type(self).__qualname__, table, args, kwargs)
    elif given < len(table.names):
        args += table.defaults[given - table.required:]
    self.__dict__.update(zip(table.names, args))
    if table.post_init:
        self.__post_init__()


def _bind(owner, table, args, kwargs):
    """Every field's value, in order, from a call's arguments and the
    class-level defaults."""
    names = table.names
    values = dict(zip(names[table.required:], table.defaults))
    values.update(zip(names, args))
    values.update(kwargs)
    if (len(args) > len(names) or values.keys() != set(names)
            or not kwargs.keys().isdisjoint(names[:len(args)])):
        raise TypeError(f"{owner}() takes the fields ({', '.join(names)}): "
                        f"got {len(args)} positional and {sorted(kwargs)}")
    return [values[name] for name in names]


def _setattr(self, name, value):
    raise AttributeError(f"{type(self).__qualname__} is frozen: "
                         f"cannot assign to {name!r}")


def _delattr(self, name):
    raise AttributeError(f"{type(self).__qualname__} is frozen: "
                         f"cannot delete {name!r}")


def _one_key(name, self):
    return (getattr(self, name),)


def _no_key(self):
    return ()


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    key = self._record.key
    return key(self) == key(other)


def _hash(self):
    return hash(self._record.key(self))


def _repr(self):
    fields = self.__dict__
    body = ", ".join(f"{name}={fields[name]!r}" for name in self._record.names)
    return f"{type(self).__qualname__}({body})"
