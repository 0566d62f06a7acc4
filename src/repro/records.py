"""Record classes: every message, spec, fault and result literal.

The protocols are written as many small record types — the ``wr`` /
``rd`` messages and acks of Figures 5 and 7, the prepare / update /
new_view family of Figures 13–15 — and so are the specs, fault plans
and results around them.  :func:`record` builds each of them, in place
of ``@dataclass``.

The stdlib's :func:`dataclasses.dataclass` compiles six methods for a
frozen class with one ``exec`` each (≈ 1.0 ms a class, CPython 3.11 on
a 2-core host), and at start-up a process builds dozens.  A record
keeps what the stdlib makes without compiling anything —
``dataclass(init=False, repr=False, eq=False, slots=…)`` gives the
fields, ``__match_args__``, :func:`~dataclasses.fields`,
:func:`~dataclasses.replace` and the slotted class — and compiles
``__init__``, ``__eq__`` and ``__hash__`` in one ``exec`` (≈ 0.5 ms a
class in all).  The frozen ``__setattr__`` / ``__delattr__`` and
``__repr__`` are shared functions, and a frozen slotted record pickles
through the stdlib's own ``__getstate__`` / ``__setstate__``.  What the
class writes itself (``__init__``, ``__repr__``, ``__eq__``,
``__hash__``) it keeps.

The generated bodies are the stdlib's: the same defaults and default
factories, ``__post_init__`` last, ``__eq__`` / ``__hash__`` on the same
field tuples (so hash values and set orders are the stdlib's).  Only the
stores differ by kind: a frozen slotted record stores each field
through its slot's member descriptor (a protocol builds one payload per
message), another frozen one through ``object.__setattr__``, a mutable
one by plain assignment.
"""

from __future__ import annotations

import dataclasses
import inspect
from _thread import get_ident
from dataclasses import MISSING, FrozenInstanceError, fields
from typing import Any, Dict, List, Optional, TypeVar

T = TypeVar("T", bound=type)


def record(
    cls: Optional[T] = None, /, *, frozen: bool = False,
    slots: bool = False, eq: bool = True,
) -> Any:
    """``@dataclass`` with the same ``frozen`` / ``slots`` / ``eq``
    meaning, built with one ``exec`` (see the module docstring)."""
    def build(cls: T) -> T:
        return _build(cls, frozen, slots, eq)

    return build if cls is None else build(cls)


def _build(cls: type, frozen: bool, slots: bool, eq: bool) -> type:
    written = cls.__dict__
    name = cls.__qualname__
    documented = bool(written.get("__doc__"))
    if not documented:
        # Written below, from the compiled __init__: the stdlib would
        # parse object.__init__'s text signature for it.
        cls.__doc__ = name
    class_hash = written.get("__hash__", MISSING)
    hashed = not (
        class_hash is MISSING or (class_hash is None and "__eq__" in written)
    )
    cls = dataclasses.dataclass(
        cls, init=False, repr=False, eq=False, slots=slots
    )
    params = cls.__dataclass_params__
    params.init = params.repr = True
    params.eq, params.frozen = eq, frozen
    own = fields(cls)
    namespace: Dict[str, Any] = {
        "__name__": cls.__module__,
        "_FACTORY": dataclasses._HAS_DEFAULT_FACTORY,
        "_object_setattr": object.__setattr__,
    }
    source: List[str] = []
    init = "__init__" not in cls.__dict__
    if init:
        source += _init_lines(cls, own, frozen, slots, namespace)
    if eq and "__eq__" not in cls.__dict__:
        compared = [f.name for f in own if f.compare]
        source += [
            "def __eq__(self, other):",
            " if other.__class__ is self.__class__:",
            f"  return {_tuple('self', compared)}=={_tuple('other', compared)}",
            " return NotImplemented",
        ]
    if eq and not hashed:
        if frozen:
            keyed = [
                f.name for f in own
                if (f.compare if f.hash is None else f.hash)
            ]
            source += [
                "def __hash__(self):",
                f" return hash({_tuple('self', keyed)})",
            ]
        else:
            cls.__hash__ = None
    exec("\n".join(source), namespace)
    for method in ("__init__", "__eq__", "__hash__"):
        function = namespace.get(method)
        if function is not None:
            function.__qualname__ = f"{name}.{method}"
            setattr(cls, method, function)
    if init:
        cls.__init__.__annotations__ = {
            **{f.name: f.type for f in own if f.init}, "return": None,
        }
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
        if slots:
            if "__getstate__" not in cls.__dict__:
                cls.__getstate__ = dataclasses._dataclass_getstate
            if "__setstate__" not in cls.__dict__:
                cls.__setstate__ = dataclasses._dataclass_setstate
    if not documented:
        try:
            signature = str(inspect.signature(cls)).replace(" -> None", "")
        except (TypeError, ValueError):
            signature = ""
        cls.__doc__ = cls.__name__ + signature
    return cls


def _init_lines(
    cls: type, own, frozen: bool, slots: bool, namespace: Dict[str, Any],
) -> List[str]:
    """The stdlib's ``__init__`` for ``own``, as source lines; what the
    lines name goes into ``namespace``."""
    arguments, body = [], []
    for f in own:
        if f.default_factory is not MISSING:
            namespace[f"_factory_{f.name}"] = f.default_factory
            value = f"_factory_{f.name}()"
            if f.init:
                arguments.append(f"{f.name}=_FACTORY")
                value += f" if {f.name} is _FACTORY else {f.name}"
        elif f.init:
            value = f.name
            if f.default is MISSING:
                arguments.append(f.name)
            else:
                namespace[f"_default_{f.name}"] = f.default
                arguments.append(f"{f.name}=_default_{f.name}")
        elif slots and f.default is not MISSING:
            namespace[f"_default_{f.name}"] = f.default
            value = f"_default_{f.name}"
        else:
            continue  # the class attribute is the default
        if frozen and slots:
            namespace[f"_set_{f.name}"] = getattr(cls, f.name).__set__
            body.append(f" _set_{f.name}(self, {value})")
        elif frozen:
            body.append(f" _object_setattr(self, {f.name!r}, {value})")
        else:
            body.append(f" self.{f.name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    return [
        f"def __init__(self, {', '.join(arguments)}):",
        *(body or [" pass"]),
    ]


def _tuple(owner: str, names: List[str]) -> str:
    if not names:
        return "()"
    return "(" + ",".join(f"{owner}.{name}" for name in names) + ",)"


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


#: ``(id, thread)`` of each record whose ``repr`` is being built: a
#: record that holds itself prints ``...`` there, as the stdlib's does.
_IN_REPR: set = set()


def _repr(self: Any) -> str:
    key = id(self), get_ident()
    if key in _IN_REPR:
        return "..."
    _IN_REPR.add(key)
    try:
        shown = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr
        )
    finally:
        _IN_REPR.discard(key)
    return f"{self.__class__.__qualname__}({shown})"
