"""The fault injector: a transport decorator executing a FaultPlan.

Stacks between the resilience layer and the raw
:class:`~repro.services.transport.SimTransport`::

    client → ResilientTransport → FaultInjector → SimTransport

It exposes the full transport interface (``bind`` / ``unbind`` /
``call`` / ``charge_*``), so services and clients built against
``SimTransport`` work unchanged on top of it.

Fault semantics (all waits are simulated time):

- **DROP** — the request is lost: the handler never runs; the caller
  pays one message cost plus the timeout wait, then gets
  :class:`~repro.errors.TimeoutError`.
- **TIMEOUT** — the handler runs (its side effects and charges land)
  but the response is lost; the caller pays the timeout wait and gets
  :class:`~repro.errors.TimeoutError`.
- **DUPLICATE** — the handler runs twice with the same payload; the
  caller sees the second response.
- **CRASH** — the endpoint's crash hook runs (the service drops its
  volatile state and unbinds), the endpoint stays down for
  ``downtime_ms``; once simulated time passes the restart point, the
  registered restart hook is invoked lazily on the next call.
- **DB_FAIL** — the call fails with
  :class:`~repro.errors.DatabaseUnavailableError` after one message
  cost (the service reached its database and could not connect).

Adversarial kinds (MALFORMED, TRUNCATED, OVERSIZED, REPLAYED,
REORDERED, BYZANTINE) model a hostile peer instead of a failing
network: the legitimate call is delivered *unchanged*, and a probe
built by :mod:`repro.faults.adversarial` from the intercepted traffic
is fired at the same endpoint right after it.  The injector records
each probe's fate — a typed rejection in :attr:`probe_rejections`, or
an entry in :attr:`probe_anomalies` when the service accepted a probe
it should have refused or leaked a non-library exception.  A hardened
service must keep ``probe_anomalies`` empty; that is asserted by the
chaos-soak invariant checker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import (
    DatabaseUnavailableError,
    ErrorCode,
    ReproError,
    TimeoutError,
    TransportError,
)
from repro.faults.adversarial import build_probe
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs import count as obs_count, enabled as obs_enabled, event as obs_event
from repro.services.transport import LatencyModel, SimTransport

__all__ = ["FaultInjector"]

#: Per-endpoint delivered-message history depth for replay probes.
_HISTORY_DEPTH = 8


@dataclass
class _Endpoint:
    """Crash/restart wiring for one URL."""

    crash: Optional[Callable[[], None]] = None
    restart: Optional[Callable[[], None]] = None
    #: Tears the final record of the node's write-ahead log (power
    #: loss mid-append), for WAL_TORN_WRITE faults.
    tear: Optional[Callable[[], None]] = None
    down_until_ms: Optional[float] = None
    crashes: int = 0
    restarts: int = 0
    torn_writes: int = 0


@dataclass
class FaultInjector:
    """Injects the plan's faults into calls on the inner transport."""

    inner: SimTransport
    plan: FaultPlan = field(default_factory=FaultPlan)
    _endpoints: dict[str, _Endpoint] = field(default_factory=dict)
    #: Global 1-based call counter the plan's ``call_index`` refers to.
    call_index: int = 0
    injected: dict[FaultKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in FaultKind}
    )
    #: Faults whose call index fell while the endpoint was already
    #: down: consumed from the plan (so it drains deterministically and
    #: ``FaultPlan.pending()`` converges) but not injected — the call
    #: failed from the crash alone.
    skipped: dict[FaultKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in FaultKind}
    )
    #: ``(kind, error_code)`` of every adversarial probe the service
    #: rejected with a typed library error.
    probe_rejections: list[tuple[FaultKind, Optional[ErrorCode]]] = field(
        default_factory=list
    )
    #: Human-readable records of probes that were *not* cleanly
    #: rejected (accepted when they must not be, or leaked a
    #: non-library exception).  Must stay empty for a hardened service.
    probe_anomalies: list[str] = field(default_factory=list)
    #: Bounded per-endpoint history of delivered messages, the raw
    #: material for replay/Byzantine probes.
    _history: dict[str, deque] = field(default_factory=dict)

    # -- transport interface (delegation) ------------------------------------------

    @property
    def clock(self):
        return self.inner.clock

    @property
    def base_clock(self):
        return self.inner.base_clock

    def clock_branch(self, source=None):
        return self.inner.clock_branch(source)

    @property
    def model(self) -> LatencyModel:
        return self.inner.model

    @property
    def calls(self) -> int:
        return self.inner.calls

    @property
    def charges(self):
        return self.inner.charges

    def bind(self, url: str, handler) -> None:
        self.inner.bind(url, handler)

    def unbind(self, url: str) -> None:
        self.inner.unbind(url)

    def is_bound(self, url: str) -> bool:
        return self.inner.is_bound(url)

    def endpoints(self) -> list[str]:
        return self.inner.endpoints()

    def charge_messages(self, count: int) -> None:
        self.inner.charge_messages(count)

    def charge_db(self, reads: int = 0, writes: int = 0,
                  connect: bool = False) -> None:
        self.inner.charge_db(reads=reads, writes=writes, connect=connect)

    def charge_crypto(self, signs: int = 0, verifies: int = 0) -> None:
        self.inner.charge_crypto(signs=signs, verifies=verifies)

    def charge_ui(self, interactions: int = 1) -> None:
        self.inner.charge_ui(interactions)

    def charge_mail(self, deliveries: int = 1) -> None:
        self.inner.charge_mail(deliveries)

    # -- crash / restart wiring ------------------------------------------------------

    def register_endpoint(
        self,
        url: str,
        crash: Optional[Callable[[], None]] = None,
        restart: Optional[Callable[[], None]] = None,
        tear: Optional[Callable[[], None]] = None,
    ) -> None:
        """Wire crash/restart behavior for ``url``.

        ``crash`` simulates the process dying (e.g.
        :meth:`TNWebService.crash`); ``restart`` revives it (e.g. a
        :meth:`TNWebService.restore` closure that passes the crashed
        service's ``session_store`` and rebinds the URL);
        ``tear`` damages the node's WAL tail for
        :data:`FaultKind.WAL_TORN_WRITE` (e.g. a
        :meth:`SessionStore.tear_last_record` closure).
        """
        entry = self._endpoints.setdefault(url, _Endpoint())
        if crash is not None:
            entry.crash = crash
        if restart is not None:
            entry.restart = restart
        if tear is not None:
            entry.tear = tear

    def crash_endpoint(self, url: str,
                       downtime_ms: Optional[float] = None) -> None:
        """Crash ``url`` now (also used by CRASH faults)."""
        entry = self._endpoints.setdefault(url, _Endpoint())
        entry.crashes += 1
        entry.down_until_ms = self.clock.elapsed_ms + (
            self.plan.downtime_ms if downtime_ms is None else downtime_ms
        )
        if entry.crash is not None:
            entry.crash()
        else:
            self.inner.unbind(url)

    def is_down(self, url: str) -> bool:
        entry = self._endpoints.get(url)
        return (
            entry is not None
            and entry.down_until_ms is not None
            and self.clock.elapsed_ms < entry.down_until_ms
        )

    def _maybe_restart(self, url: str) -> None:
        """Lazily revive an endpoint whose downtime has elapsed."""
        entry = self._endpoints.get(url)
        if entry is None or entry.down_until_ms is None:
            return
        if self.clock.elapsed_ms < entry.down_until_ms:
            return
        entry.down_until_ms = None
        if entry.restart is not None and not self.inner.is_bound(url):
            entry.restart()
            entry.restarts += 1

    def _note_injection(self, spec, url: str, operation: str) -> None:
        self.injected[spec.kind] += 1
        if obs_enabled():
            obs_count(f"faults.injected.{spec.kind.value}")
            obs_event(
                "fault.injected",
                clock=self.clock,
                kind=spec.kind.value,
                url=url,
                operation=operation,
                call_index=self.call_index,
            )

    def _deliver_after_restart(
        self, url: str, operation: str, payload: dict
    ) -> dict:
        """Cancel any remaining downtime, run the restart hook if the
        endpoint is actually unbound, and deliver the call to the
        recovered node."""
        entry = self._endpoints.setdefault(url, _Endpoint())
        entry.down_until_ms = None
        if entry.restart is not None and not self.inner.is_bound(url):
            entry.restart()
            entry.restarts += 1
        response = self.inner.call(url, operation, payload)
        self._remember(url, operation, payload)
        return response

    # -- invocation -------------------------------------------------------------------

    def call(self, url: str, operation: str, payload: dict) -> dict:
        self.call_index += 1
        if self.is_down(url):
            # The caller retransmits into a dead endpoint and waits out
            # its deadline.  A fault scheduled for this call index is
            # still consumed (as a skip) so the plan drains instead of
            # keeping a spec whose index has passed pending forever —
            # except NODE_RESTART, whose whole point is to revive a
            # downed node, downtime or not.
            spec = self.plan.take(url, operation, self.call_index)
            if spec is not None and spec.kind is FaultKind.NODE_RESTART:
                self._note_injection(spec, url, operation)
                return self._deliver_after_restart(url, operation, payload)
            if spec is not None:
                self.skipped[spec.kind] += 1
                obs_count(f"faults.skipped.{spec.kind.value}")
            self.clock.advance(
                self.model.message_cost() + self.plan.timeout_wait_ms
            )
            raise TimeoutError(
                f"endpoint {url!r} is down (crashed; call {self.call_index})"
            )
        self._maybe_restart(url)
        spec = self.plan.take(url, operation, self.call_index)
        if spec is None:
            response = self.inner.call(url, operation, payload)
            self._remember(url, operation, payload)
            return response
        self._note_injection(spec, url, operation)
        if spec.kind.adversarial:
            # Hostile peer: the legitimate call goes through unchanged,
            # then the probe derived from it strikes the same endpoint.
            response = self.inner.call(url, operation, payload)
            self._remember(url, operation, payload)
            self._fire_probe(spec.kind, url, operation, payload)
            return response
        if spec.kind is FaultKind.DROP:
            self.clock.advance(
                self.model.message_cost() + self.plan.timeout_wait_ms
            )
            raise TimeoutError(
                f"request {operation!r} to {url!r} dropped "
                f"(call {self.call_index})"
            )
        if spec.kind is FaultKind.TIMEOUT:
            self.inner.call(url, operation, payload)  # effects happen
            self.clock.advance(self.plan.timeout_wait_ms)
            raise TimeoutError(
                f"response for {operation!r} from {url!r} lost "
                f"(call {self.call_index})"
            )
        if spec.kind is FaultKind.DUPLICATE:
            self.inner.call(url, operation, payload)
            return self.inner.call(url, operation, payload)
        if spec.kind in (FaultKind.CRASH, FaultKind.NODE_CRASH):
            self.crash_endpoint(url)
            self.clock.advance(
                self.model.message_cost() + self.plan.timeout_wait_ms
            )
            raise TimeoutError(
                f"endpoint {url!r} crashed handling {operation!r} "
                f"(call {self.call_index})"
            )
        if spec.kind is FaultKind.NODE_RESTART:
            # Revive-now: the restart hook replays the node's durable
            # journal, then the call is delivered to the recovered node.
            return self._deliver_after_restart(url, operation, payload)
        if spec.kind is FaultKind.WAL_TORN_WRITE:
            # Power fails while the checkpoint record is mid-append:
            # the handler's effects land, the WAL tail is torn, the
            # node dies, and the caller never hears back.
            self.inner.call(url, operation, payload)
            entry = self._endpoints.setdefault(url, _Endpoint())
            if entry.tear is not None:
                entry.tear()
                entry.torn_writes += 1
            self.crash_endpoint(url)
            self.clock.advance(
                self.model.message_cost() + self.plan.timeout_wait_ms
            )
            raise TimeoutError(
                f"endpoint {url!r} lost power mid-WAL-append handling "
                f"{operation!r} (call {self.call_index})"
            )
        if spec.kind is FaultKind.DB_FAIL:
            self.clock.advance(
                self.model.message_cost() + self.model.db_connect_ms
            )
            raise DatabaseUnavailableError(
                f"database connection failed during {operation!r} at "
                f"{url!r} (call {self.call_index})"
            )
        if spec.kind is FaultKind.SLOW:
            # Degraded but alive: the handler runs and the response
            # arrives — late.  Retries can't fix this; hedging can.
            response = self.inner.call(url, operation, payload)
            self._remember(url, operation, payload)
            self.clock.advance(self.plan.slow_ms)
            return response
        raise TransportError(  # pragma: no cover - enum is closed
            f"unhandled fault kind {spec.kind!r}"
        )

    # -- adversarial probes --------------------------------------------------------------

    def _remember(self, url: str, operation: str, payload: dict) -> None:
        history = self._history.get(url)
        if history is None:
            history = self._history[url] = deque(maxlen=_HISTORY_DEPTH)
        history.append((operation, payload))

    def _fire_probe(
        self, kind: FaultKind, url: str, operation: str, payload: dict
    ) -> None:
        """Deliver one adversarial probe and record its fate."""
        probe = build_probe(
            kind, operation, payload,
            self._history.get(url, ()), self.plan.random(),
        )
        try:
            self.inner.call(url, probe.operation, probe.payload)
        except ReproError as exc:
            code = getattr(exc, "error_code", None)
            if code is None:
                self.probe_anomalies.append(
                    f"{kind.value} probe ({probe.operation}) rejected "
                    f"with untyped {type(exc).__name__}: {exc}"
                )
            else:
                self.probe_rejections.append((kind, code))
                if obs_enabled():
                    obs_count(f"faults.probe_rejected.{kind.value}")
        except Exception as exc:  # noqa: BLE001 - anomaly detection
            self.probe_anomalies.append(
                f"{kind.value} probe ({probe.operation}) leaked "
                f"{type(exc).__name__}: {exc}"
            )
        else:
            if probe.replay_tolerant:
                # Idempotent replay answered from the recorded
                # response: correct behavior, not an anomaly.
                self.probe_rejections.append((kind, None))
            else:
                self.probe_anomalies.append(
                    f"{kind.value} probe ({probe.operation}) was accepted"
                )
        if obs_enabled():
            obs_count(f"faults.probes.{kind.value}")

    # -- introspection ------------------------------------------------------------------

    def total_injected(self) -> int:
        return sum(self.injected.values())

    def total_skipped(self) -> int:
        return sum(self.skipped.values())

    def crash_count(self, url: str) -> int:
        entry = self._endpoints.get(url)
        return entry.crashes if entry else 0

    def restart_count(self, url: str) -> int:
        entry = self._endpoints.get(url)
        return entry.restarts if entry else 0

    def torn_write_count(self, url: str) -> int:
        entry = self._endpoints.get(url)
        return entry.torn_writes if entry else 0
