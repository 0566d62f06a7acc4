"""Wire payloads: frozen slotted dataclasses built without
``object.__setattr__``.

A frozen dataclass's generated ``__init__`` stores each field through
``object.__setattr__`` — the way past its own ``__setattr__``, which
raises :class:`~dataclasses.FrozenInstanceError`.  With ``slots=True``
every field is a slot, and the slot's member descriptor can store the
value directly: :func:`wire_payload` swaps in an ``__init__`` that does
only that.  A protocol builds one payload per message, so this is on
every send.

Nothing else changes: assignment and deletion still raise
``FrozenInstanceError``, and ``==``, ``hash``, ``repr``,
:func:`~dataclasses.fields`, :func:`~dataclasses.replace` and pickling
are the dataclass's own.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from types import MemberDescriptorType
from typing import Any, Dict, TypeVar

T = TypeVar("T", bound=type)


def wire_payload(cls: T) -> T:
    """Give the ``@dataclass(frozen=True, slots=True)`` class ``cls`` an
    ``__init__`` that stores each field through its slot's descriptor.

    Same signature, same defaults.  A class whose dataclass ``__init__``
    does more than store its arguments — a ``__post_init__``, a
    ``default_factory``, an ``init=False``, keyword-only or ``InitVar``
    field — is refused (``TypeError``) rather than given an
    ``__init__`` that diverges.
    """
    name = cls.__qualname__
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in vars(cls):
        raise TypeError(
            f"@wire_payload goes on a @dataclass(frozen=True, slots=True); "
            f"{name} is not one"
        )
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"@wire_payload: {name} has a __post_init__")
    own = fields(cls)
    if len(own) != len(cls.__dataclass_fields__):
        raise TypeError(f"@wire_payload: {name} has InitVar/ClassVar fields")
    namespace: Dict[str, Any] = {}
    arguments, body = [], []
    for field in own:
        if not field.init or field.kw_only:
            raise TypeError(
                f"@wire_payload: {name}.{field.name} is not a positional "
                f"__init__ argument"
            )
        if field.default_factory is not MISSING:
            raise TypeError(
                f"@wire_payload: {name}.{field.name} has a default_factory"
            )
        slot = getattr(cls, field.name, None)
        if type(slot) is not MemberDescriptorType:
            raise TypeError(f"@wire_payload: {name}.{field.name} is no slot")
        namespace[f"_set_{field.name}"] = slot.__set__
        if field.default is MISSING:
            arguments.append(field.name)
        else:
            namespace[f"_default_{field.name}"] = field.default
            arguments.append(f"{field.name}=_default_{field.name}")
        body.append(f"    _set_{field.name}(self, {field.name})\n")
    source = (
        f"def __init__(self, {', '.join(arguments)}):\n"
        + ("".join(body) or "    pass\n")
    )
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{name}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
