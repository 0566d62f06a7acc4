"""Simulated digital signatures.

The consensus algorithm authenticates some messages (``new_view_ack``,
``sign_ack``, ``view_change``) with signatures whose only required
property is the paper's unforgeability axiom: *if a Byzantine process
sends ⟨m⟩_σp for a benign process p, then p already sent ⟨m⟩_σp*.

Instead of real cryptography we use a bookkeeping oracle: a
:class:`SignatureService` records every ``(signer, content)`` pair that
was genuinely signed, and verification checks membership.  Byzantine
processes may *replay* signatures they have seen (matching real crypto)
but any fabricated :class:`Signed` object fails verification because the
service never recorded it.

``Signed`` values are immutable and hashable so they can travel inside
message payloads and be stored in ``Updateproof`` sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Set, Tuple

from repro.errors import ProtocolError


@dataclass(frozen=True)
class Signed:
    """A signed statement: ``content`` claimed to be signed by ``signer``."""

    signer: Hashable
    content: Any

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signed({self.signer!r}, {self.content!r})"


class SignatureService:
    """The signing/verification oracle for one execution."""

    def __init__(self):
        self._genuine: Set[Tuple[Hashable, Any]] = set()

    def sign(self, signer: Hashable, content: Any) -> Signed:
        """Produce a genuine signature (only the signer itself may call).

        Protocol code must route all signing through the owning process;
        the service cannot tell callers apart (that is the processes'
        contract), but Byzantine *forgery* — building a ``Signed`` for a
        benign signer without calling ``sign`` as it — is detected by
        :meth:`verify`.
        """
        record = (signer, _freeze(content))
        self._genuine.add(record)
        return Signed(signer, content)

    def verify(self, signature: Signed) -> bool:
        """True iff the signature was genuinely produced in this execution.

        Hashable content is its own canonical form (``_freeze`` rebuilds
        nested tuples and frozensets into equal ones and leaves every
        other hashable as it is), so it is looked up as it stands; only
        content holding a list, set or dict is frozen first.
        """
        try:
            return (signature.signer, signature.content) in self._genuine
        except TypeError:
            return (
                signature.signer, _freeze(signature.content)
            ) in self._genuine

    def require(self, signature: Signed) -> None:
        if not self.verify(signature):
            raise ProtocolError(f"forged signature detected: {signature!r}")


def _freeze(content: Any) -> Any:
    """Best-effort conversion of content to a hashable canonical form."""
    if isinstance(content, (list, tuple)):
        return tuple(_freeze(c) for c in content)
    if isinstance(content, (set, frozenset)):
        return frozenset(_freeze(c) for c in content)
    if isinstance(content, dict):
        return tuple(
            sorted(((_freeze(k), _freeze(v)) for k, v in content.items()),
                   key=repr)
        )
    return content
