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

The receivers of one broadcast share its payload objects, so the service
of an execution is also where that execution remembers what it derived
from signed content: the signable form of each body, and the proofs it
has accepted.  Each is derived once per run instead of once per receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Set, Tuple

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
        # body -> body.canonical(), for this execution (see canonical())
        self._forms: Dict[Any, Any] = {}
        #: Proofs this execution has accepted, as the checker keys them
        #: (``consensus.acceptor``: the system and the ``Prepare``).
        #: Only acceptances are kept: the genuine record only grows, so
        #: a proof that held keeps holding, while one refused for a
        #: signature not yet made may hold once its signer signs.
        self.accepted: Set[Hashable] = set()

    def canonical(self, body: Any) -> Any:
        """``body.canonical()`` — the content a signature over ``body``
        binds — computed once per body in this execution.

        Sound because a body does not change once built: it is a frozen
        payload whose mappings no code path writes.  An edited body is
        a new object (``dataclasses.replace``), canonicalised afresh, so
        a genuine signature over the original does not match it.
        """
        forms = self._forms
        form = forms.get(body)
        if form is None:
            form = forms[body] = body.canonical()
        return form

    def sign(self, signer: Hashable, content: Any) -> Signed:
        """Produce a genuine signature (only the signer itself may call).

        Protocol code must route all signing through the owning process;
        the service cannot tell callers apart (that is the processes'
        contract), but Byzantine *forgery* — building a ``Signed`` for a
        benign signer without calling ``sign`` as it — is detected by
        :meth:`verify`.  Content is recorded as :meth:`verify` looks it
        up: as it stands when hashable, frozen otherwise.
        """
        try:
            self._genuine.add((signer, content))
        except TypeError:
            self._genuine.add((signer, _freeze(content)))
        return Signed(signer, content)

    def verify(self, signature: Signed) -> bool:
        """True iff the signature was genuinely produced in this execution.

        Hashable content is its own canonical form (``_freeze`` rebuilds
        nested tuples and frozensets into equal ones and leaves every
        other hashable as it is), so :meth:`sign` records it and this
        looks it up as it stands; only content holding a list, set or
        dict is frozen first, on both sides.
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
