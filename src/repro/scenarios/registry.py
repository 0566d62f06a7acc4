"""The protocol registry: one id per runnable protocol.

Protocol adapters register themselves with :func:`register_protocol`;
``run(spec)`` resolves ``spec.protocol`` here.  Registering is cheap and
open — downstream code can plug in new protocols without touching the
scenario layer, which is how future workloads are meant to arrive.

The eight built-in ids live in three family modules, and
:data:`_BUILTIN` records which one holds each id: the first lookup of
an id imports its module, whose ``@register_protocol`` rows fill the
table.  A process therefore imports the protocols it names and no
others — an ``abd`` soak never compiles the consensus half.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Tuple

from repro.errors import ScenarioError, UnknownProtocolError

_PROTOCOLS: Dict[str, type] = {}

#: Built-in protocol id -> the module whose rows register it.
_BUILTIN: Dict[str, str] = {
    **dict.fromkeys(
        ("abd", "fastabd", "naive"), "repro.scenarios.abd_adapters"
    ),
    **dict.fromkeys(
        ("rqs-storage", "rqs-regular"), "repro.scenarios.rqs_adapters"
    ),
    **dict.fromkeys(
        ("rqs-consensus", "paxos", "pbft"),
        "repro.scenarios.consensus_adapters",
    ),
}


def register_protocol(protocol_id: str) -> Callable[[type], type]:
    """Class decorator registering a protocol adapter under ``protocol_id``.

    The class must provide ``build(spec) -> adapter`` (classmethod) and a
    ``kind`` attribute (``"storage"`` or ``"consensus"``).
    """

    def decorate(adapter_cls: type) -> type:
        if protocol_id in _PROTOCOLS:
            raise ScenarioError(
                f"protocol id {protocol_id!r} already registered "
                f"(by {_PROTOCOLS[protocol_id].__name__})"
            )
        if not hasattr(adapter_cls, "build"):
            raise ScenarioError(
                f"adapter {adapter_cls.__name__} has no build() classmethod"
            )
        adapter_cls.protocol_id = protocol_id
        _PROTOCOLS[protocol_id] = adapter_cls
        return adapter_cls

    return decorate


def get_protocol(protocol_id: str) -> type:
    """The adapter class registered under ``protocol_id``, importing
    its family module on the first lookup of a built-in id."""
    adapter_cls = _PROTOCOLS.get(protocol_id)
    if adapter_cls is None and protocol_id in _BUILTIN:
        import_module(_BUILTIN[protocol_id])
        adapter_cls = _PROTOCOLS.get(protocol_id)
    if adapter_cls is None:
        known = ", ".join(available_protocols())
        raise UnknownProtocolError(
            f"unknown protocol {protocol_id!r}; registered: {known}"
        )
    return adapter_cls


def available_protocols() -> Tuple[str, ...]:
    """Every registered id, the built-in ones whether or not their
    module has been imported yet."""
    return tuple(sorted({*_PROTOCOLS, *_BUILTIN}))
