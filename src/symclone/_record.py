"""Base class of symclone's immutable result records.

A record behaves as a frozen dataclass did: value equality and hashing over
its fields, the same ``Name(field=value, ...)`` repr, and no assignment after
construction.  It is written out here because ``dataclasses`` imports
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``) and ``exec``s the
generated methods of every class at import, which cost each CLI process more
start-up time than some of its commands take to run.
"""


class Record:
    """Immutable record whose fields are the parameters of ``__init__``.

    A subclass writes its own ``__init__``, with defaults and checks as it
    needs, and stores every parameter with ``self.__dict__.update(...)``; the
    field order is the parameter order.  ``dataclasses.fields``, ``replace``
    and ``asdict`` do not apply: build a new record with the constructor.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        fields = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
