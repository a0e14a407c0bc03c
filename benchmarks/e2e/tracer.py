"""Outside-in per-layer tracing for the end-to-end benchmark.

The tracer wraps public functions of each ``repro`` layer from the
benchmark's side; nothing inside the program is instrumented.  Each
call becomes one span: the boundary name, start and end
(``perf_counter_ns``), the enclosing span, and the operation id.

Two things decide whether the numbers mean anything:

- Wrappers must be installed *before* fixtures are built.  Services
  capture the bound ``self.handle`` in ``transport.bind`` when they are
  constructed, so a wrapper installed later never sees those calls.
- A free function is reachable through every ``from ... import`` alias
  of it (``canonicalize`` in ``credentials/credential.py``, ``sign`` in
  ``repro.crypto``), so every alias in a loaded ``repro`` module is
  rebound, not only the defining module's attribute.

Generator and coroutine functions are refused: a wrapper around one
would time the creation of the generator, not its work.

The wrapper only appends ``(boundary, start)`` on entry and
``(-1, end)`` on exit to one flat list, which keeps the cost of a
traced call near half a microsecond on a 2-vCPU container; spans,
parents and self times are rebuilt from that log after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Iterable, Iterator

__all__ = ["BOUNDARIES", "DRIVER", "SETUP_BOUNDARIES", "Tracer"]

#: The benchmark's own boundary: one span around each operation.
DRIVER = "driver"

#: Layer boundary -> the public functions wrapped for it, as
#: ``module:qualname``.  Names follow the ``repro`` module layout.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "vo.toolkit": (
        "repro.services.vo_toolkit:InitiatorEdition.create_vo",
        "repro.services.vo_toolkit:InitiatorEdition.enable_trust_negotiation",
        "repro.services.vo_toolkit:InitiatorEdition.execute_formation",
        "repro.vo.organization:VirtualOrganization.begin_operation",
        "repro.vo.organization:VirtualOrganization.dissolve",
    ),
    "services.client": ("repro.services.tn_client:TNClient.negotiate",),
    "services.resilience": (
        "repro.services.resilience:ResilientTransport.call",
    ),
    "services.transport": ("repro.services.transport:SimTransport.call",),
    "cluster.router": ("repro.cluster.sharded:ShardedTNService.handle",),
    "services.tn": ("repro.services.tn_service:TNWebService.handle",),
    "hardening.guard": ("repro.hardening.guard:ProtocolGuard.validate",),
    "hardening.admission": (
        "repro.hardening.admission:AdmissionController.admit",
    ),
    "storage.wal": ("repro.storage.session_store:WALSessionStore.append",),
    "storage.documents": (
        "repro.storage.document_store:XMLDocumentStore.put",
    ),
    "negotiation.engine": (
        "repro.negotiation.engine:NegotiationEngine.run",
    ),
    "negotiation.sequence_cache": (
        "repro.negotiation.cache:CachingNegotiator.negotiate",
    ),
    "negotiation.agent": (
        "repro.negotiation.agent:TrustXAgent.make_disclosure",
        "repro.negotiation.agent:TrustXAgent.verify_disclosure",
        "repro.negotiation.agent:TrustXAgent.candidates_for",
        "repro.negotiation.agent:TrustXAgent.policies_protecting",
        "repro.negotiation.agent:TrustXAgent.releases_freely",
    ),
    "policy.compliance": (
        "repro.policy.compliance:ComplianceChecker.candidates",
        "repro.policy.compliance:ComplianceChecker.satisfy",
        "repro.policy.compliance:ComplianceChecker.first_satisfiable",
    ),
    "credentials.validate": (
        "repro.credentials.validation:CredentialValidator.validate",
    ),
    "crypto.sign": ("repro.crypto.rsa:sign",),
    "crypto.verify": ("repro.crypto.rsa:verify",),
    "crypto.keygen": ("repro.crypto.rsa:generate_keypair",),
    "xmlutil.canonical": (
        "repro.xmlutil.canonical:canonicalize",
        "repro.xmlutil.canonical:element_digest",
    ),
    "xmlutil.xpath": ("repro.xmlutil.xpath:XPath.evaluate",),
    "trust.retract": ("repro.trust.bus:TrustBus.retract",),
    DRIVER: (),
}

#: Boundaries whose work happens while fixtures are built, not per
#: operation: they are reported over the set-up phase.
SETUP_BOUNDARIES = frozenset({"crypto.keygen"})

_EXIT = -1
_OP = -2
_NO_SPAN = -1


class Tracer:
    """Span recorder over the wrapped boundaries.

    ``begin_op(i)`` stamps the spans that follow with operation id
    ``i``; spans before the first call (fixture build and warm-up)
    carry ``-1``, the set-up phase.
    """

    def __init__(self) -> None:
        self.names = list(BOUNDARIES)
        self._log: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every boundary function; pair with :meth:`restore`."""
        try:
            for index, name in enumerate(self.names):
                for target in BOUNDARIES[name]:
                    self._install_one(index, target)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original function back, in reverse order."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install_one(self, index: int, target: str) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            if attr not in vars(owner):
                raise TypeError(f"{target} is not defined on {owner_name}")
            original = vars(owner)[attr]
            places = [(owner, attr)]
        else:
            original = getattr(module, attr)
            places = _aliases(original)
        if (
            inspect.isgeneratorfunction(original)
            or inspect.iscoroutinefunction(original)
            or inspect.isasyncgenfunction(original)
        ):
            raise TypeError(f"refusing to wrap generator function {target}")
        wrapper = self._wrap(index, original)
        for place, name in places:
            setattr(place, name, wrapper)
            self._restore.append(
                functools.partial(setattr, place, name, original)
            )

    def _wrap(self, index: int, function):
        clock = time.perf_counter_ns
        record = self._log.append

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record(index)
            record(clock())
            try:
                return function(*args, **kwargs)
            finally:
                record(_EXIT)
                record(clock())

        return traced

    def driver(self, function):
        """``function`` wrapped as one ``driver`` span per call."""
        return self._wrap(self.names.index(DRIVER), function)

    def begin_op(self, op: int) -> None:
        """Stamp the spans that follow with operation id ``op``."""
        self._log.extend((_OP, op))

    # -- results -------------------------------------------------------------

    def spans(self) -> Iterator[tuple[int, int, int, int, int, int]]:
        """Yield ``(span id, boundary index, start_ns, end_ns, parent id,
        op)`` as each call ends.  Ids number calls in the order they
        began; a root span's parent is ``-1``."""
        log = self._log
        stack: list[tuple[int, int, int, int, int]] = []
        op = _NO_SPAN
        next_id = 0
        for position in range(0, len(log), 2):
            code, value = log[position], log[position + 1]
            if code == _EXIT:
                span, name, start, parent, span_op = stack.pop()
                yield span, name, start, value, parent, span_op
            elif code == _OP:
                op = value
            else:
                parent = stack[-1][0] if stack else _NO_SPAN
                stack.append((next_id, code, value, parent, op))
                next_id += 1

    def layer_totals(self) -> dict:
        """Calls and self time per boundary, split into the set-up and
        measured phases, plus the measured root-span time."""
        count = len(self.names)
        calls = {"setup": [0] * count, "measured": [0] * count}
        self_ns = {"setup": [0] * count, "measured": [0] * count}
        children: dict[int, int] = {}  # open span -> its children's time
        root_ns = 0
        spans = 0
        for span, name, start, end, parent, op in self.spans():
            duration = end - start
            phase = "setup" if op < 0 else "measured"
            calls[phase][name] += 1
            self_ns[phase][name] += duration - children.pop(span, 0)
            if parent != _NO_SPAN:
                children[parent] = children.get(parent, 0) + duration
            elif op >= 0:
                root_ns += duration
            spans += 1
        totals: dict = {
            phase: {
                name: {
                    "calls": calls[phase][index],
                    "self_ns": self_ns[phase][index],
                }
                for index, name in enumerate(self.names)
            }
            for phase in ("setup", "measured")
        }
        totals["measured_root_ns"] = root_ns
        totals["spans"] = spans
        return totals

    def write_spans(self, path: str) -> None:
        """Write every span once, as JSON lines: a header naming the
        boundaries and fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "boundaries": self.names,
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            }) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _aliases(function) -> Iterable[tuple[object, str]]:
    """Every ``(module, attribute)`` in a loaded ``repro`` module that is
    bound to ``function``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                found.append((module, attr))
    return found
