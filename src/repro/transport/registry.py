"""Protocol registry: protocol-owned fabric hooks plus the flow opener.

Experiments want one call that wires up a flow of a given protocol between
two hosts, and one chokepoint that prepares a network for that protocol.
The registry hosts both, behind a plugin-style :class:`Protocol` spec:

* ``Protocol.queue_factory(buffer_bytes, rate_bps)`` — build the switch
  port queue discipline the protocol expects (drop-tail, ECN-marking,
  per-flow backpressure queues...).
* ``Protocol.install(network, params)`` — install the protocol's switch
  behaviour (TFC token agents, PFC lossless fabric, BFC per-flow pause,
  FairQ fair-share marking) after the topology is wired.
* ``Protocol.params_cls`` / ``default_params`` — the typed per-protocol
  parameter slot both hooks receive.
* Capability surface (``supports_weight``, ``monitor_invariants``) for
  the few call sites that must know *what* a protocol can do without
  knowing *which* protocol it is.

New transports register through :func:`register_protocol` — experiments
and tests can add entries without editing this module, and a registered
name is immediately valid everywhere a transport name is accepted
(scenario ``transport:``/``fabric:`` fields, ``SimConfig.transport``,
the runner's ``--scenario-transports`` sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from ..net.host import Host
from ..net.network import Network
from ..net.queues import DropTailQueue, EcnQueue
from ..sim.units import MILLISECOND
from .base import Receiver, Sender

DEFAULT_DCTCP_K_BYTES = 32_000  # paper: K = 32 KB on the 1 Gbps testbed


@dataclass(frozen=True)
class EcnParams:
    """Step-marking threshold for ECN-queue protocols (DCTCP's ``K``)."""

    ecn_threshold_bytes: int = DEFAULT_DCTCP_K_BYTES

    def __post_init__(self) -> None:
        if self.ecn_threshold_bytes <= 0:
            raise ValueError(
                f"ecn threshold must be positive, got {self.ecn_threshold_bytes}"
            )


@dataclass(frozen=True)
class Protocol:
    """Everything needed to run one transport protocol in a scenario.

    The two callables are the protocol-owned fabric hooks; both receive
    the resolved params object (an instance of ``params_cls``, or None
    for parameterless protocols):

    ``make_queue(params, buffer_bytes, rate_bps)``
        One switch-port queue.  None means plain drop-tail.
    ``installer(network, params)``
        Switch-side install (agents, fabrics).  None means the protocol
        is purely end-to-end.
    """

    name: str
    sender_cls: Type[Sender]
    receiver_cls: Type[Receiver]
    #: Human-readable label for report tables ("" = name.upper()).
    label: str = ""
    #: Typed per-protocol parameter slot.
    params_cls: Optional[type] = None
    default_params: Optional[object] = None
    make_queue: Optional[Callable[[object, int, int], DropTailQueue]] = None
    installer: Optional[Callable[[Network, object], object]] = None
    #: Capability surface — the only booleans call sites may consult.
    supports_weight: bool = False
    monitor_invariants: bool = False

    # ------------------------------------------------------------------
    @property
    def display_label(self) -> str:
        """Label for tables (explicit ``label`` or the uppercased name)."""
        return self.label or self.name.upper()

    def resolve_params(self, params: Optional[object] = None) -> Optional[object]:
        """Validate ``params`` against the typed slot (None = defaults)."""
        if params is None:
            return self.default_params
        if self.params_cls is None:
            raise TypeError(
                f"protocol {self.name!r} takes no params, got {params!r}"
            )
        if not isinstance(params, self.params_cls):
            raise TypeError(
                f"protocol {self.name!r} expects {self.params_cls.__name__} "
                f"params, got {type(params).__name__}"
            )
        return params

    def queue_factory(
        self,
        buffer_bytes: int,
        rate_bps: int,
        params: Optional[object] = None,
    ) -> DropTailQueue:
        """Build one switch-port queue for a port of ``rate_bps``."""
        params = self.resolve_params(params)
        if self.make_queue is None:
            return DropTailQueue(buffer_bytes)
        return self.make_queue(params, buffer_bytes, rate_bps)

    def port_queue_factory(
        self, buffer_bytes: int, params: Optional[object] = None
    ) -> Callable[[int], DropTailQueue]:
        """Adapter for topology builders: ``rate_bps -> queue``."""
        params = self.resolve_params(params)
        return lambda rate_bps: self.queue_factory(
            buffer_bytes, rate_bps, params
        )

    def install(
        self,
        network: Network,
        params: Optional[object] = None,
        pfc_params=None,
    ) -> None:
        """Install this protocol's switch behaviour on ``network``.

        Runs the protocol's own installer first (so a PFC wrapper, when
        one applies, wraps the protocol agent rather than the reverse),
        then the fabric-wide lossless layer: an explicit ``pfc_params``
        (a :class:`repro.net.pfc.PfcParams`, the pathology scenarios'
        knob) forces PFC regardless of protocol; otherwise the
        ``$REPRO_LOSSLESS`` environment knob decides.
        """
        params = self.resolve_params(params)
        if self.installer is not None:
            self.installer(network, params)
        if pfc_params is not None:
            from ..net.pfc import enable_pfc

            enable_pfc(network, pfc_params)
        elif getattr(network, "lossless", None) is None:
            from ..config import lossless_mode

            if lossless_mode() == "pfc":
                from ..net.pfc import enable_pfc

                enable_pfc(network)


# Populated lazily: repro.core imports this module (its endpoints subclass
# Sender/Receiver), so importing repro.core.sender at module scope here
# would be circular.
PROTOCOLS: Dict[str, Protocol] = {}


def _ecn_queue(params: EcnParams, buffer_bytes: int, rate_bps: int) -> EcnQueue:
    return EcnQueue(buffer_bytes, params.ecn_threshold_bytes)


def _ensure_registry() -> Dict[str, Protocol]:
    if not PROTOCOLS:
        from ..core.params import DEFAULT_PARAMS, TfcParams
        from ..core.sender import TfcReceiver, TfcSender
        from ..core.switch_agent import enable_tfc
        from ..net.bfc import BfcParams, enable_bfc, make_bfc_queue
        from ..net.fairq import FairqParams, enable_fairq, make_fairq_queue
        from ..net.pfc import PfcParams, enable_pfc
        from .bfc import BfcReceiver, BfcSender
        from .dctcp import DctcpReceiver, DctcpSender
        from .fairq import FairqReceiver, FairqSender
        from .newreno import NewRenoReceiver, NewRenoSender
        from .tbtcp import TbtcpParams, TbtcpReceiver, TbtcpSender, make_tbtcp_queue
        from .tracks import TracksReceiver, TracksSender

        PROTOCOLS["tcp"] = Protocol("tcp", NewRenoSender, NewRenoReceiver)
        PROTOCOLS["dctcp"] = Protocol(
            "dctcp",
            DctcpSender,
            DctcpReceiver,
            params_cls=EcnParams,
            default_params=EcnParams(),
            make_queue=_ecn_queue,
        )
        PROTOCOLS["tfc"] = Protocol(
            "tfc",
            TfcSender,
            TfcReceiver,
            params_cls=TfcParams,
            default_params=DEFAULT_PARAMS,
            installer=enable_tfc,
            supports_weight=True,
            monitor_invariants=True,
        )
        # The PFC baseline TFC argues against: a loss-based transport on
        # a fabric made lossless by hop-by-hop pausing (RoCE-style
        # deployments).  The endpoints are plain NewReno — with no drops
        # they simply never cut cwnd — and the switches do the pausing.
        # default_params=None: enable_pfc scales thresholds to the
        # network's buffer size when no explicit PfcParams is given.
        PROTOCOLS["pfc"] = Protocol(
            "pfc",
            NewRenoSender,
            NewRenoReceiver,
            label="TCP+PFC",
            params_cls=PfcParams,
            installer=enable_pfc,
        )
        # --- Baseline transports from the related work (DESIGN.md §6k) ---
        PROTOCOLS["bfc"] = Protocol(
            "bfc",
            BfcSender,
            BfcReceiver,
            label="TCP+BFC",
            params_cls=BfcParams,
            default_params=BfcParams(),
            make_queue=make_bfc_queue,
            installer=enable_bfc,
        )
        PROTOCOLS["tbtcp"] = Protocol(
            "tbtcp",
            TbtcpSender,
            TbtcpReceiver,
            label="TB-TCP",
            params_cls=TbtcpParams,
            default_params=TbtcpParams(),
            make_queue=make_tbtcp_queue,
        )
        PROTOCOLS["tracks"] = Protocol(
            "tracks",
            TracksSender,
            TracksReceiver,
            label="T-RACKs",
        )
        PROTOCOLS["fairq"] = Protocol(
            "fairq",
            FairqSender,
            FairqReceiver,
            label="FairQ",
            params_cls=FairqParams,
            default_params=FairqParams(),
            make_queue=make_fairq_queue,
            installer=enable_fairq,
        )
    return PROTOCOLS


def register_protocol(protocol: Protocol, replace: bool = False) -> Protocol:
    """Add ``protocol`` to the live registry (the public plugin point).

    The name becomes immediately valid everywhere transports are named:
    :func:`open_flow`, scenario ``transport:``/``fabric:`` fields,
    ``SimConfig.transport`` and the experiment runner's transport sweeps.
    Registering an existing name raises unless ``replace=True`` (tests
    overriding a baseline restore the original afterwards).
    """
    registry = _ensure_registry()
    if not replace and protocol.name in registry:
        raise ValueError(
            f"protocol {protocol.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    registry[protocol.name] = protocol
    return protocol


def unregister_protocol(name: str) -> None:
    """Remove a registered protocol (test cleanup for late registrations)."""
    _ensure_registry().pop(name, None)


def registered_protocols() -> Tuple[str, ...]:
    """Sorted names currently in the live registry."""
    return tuple(sorted(_ensure_registry()))


def get_protocol(name: str) -> Protocol:
    """Look up a protocol by name with a helpful error.

    The error lists the *live* registry — late registrations via
    :func:`register_protocol` appear in it too.
    """
    registry = _ensure_registry()
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(registry)}"
        ) from None


def resolve_legacy_params(
    spec: Protocol,
    params: Optional[object] = None,
    tfc_params=None,
    pfc_params=None,
    ecn_threshold_bytes: Optional[int] = None,
) -> Optional[object]:
    """Map the old per-protocol keyword soup onto the typed params slot.

    The only place allowed to branch on protocol parameter types: the
    deprecated ``tfc_params``/``pfc_params``/``ecn_threshold_bytes``
    keywords apply exactly when the protocol's params slot is of the
    matching type, and are ignored otherwise (a ``pfc_params`` on a
    non-PFC protocol still layers the lossless fabric via
    :meth:`Protocol.install`'s own keyword).
    """
    if params is not None:
        return spec.resolve_params(params)
    from ..core.params import TfcParams
    from ..net.pfc import PfcParams

    if tfc_params is not None and spec.params_cls is TfcParams:
        return spec.resolve_params(tfc_params)
    if pfc_params is not None and spec.params_cls is PfcParams:
        return spec.resolve_params(pfc_params)
    if (
        ecn_threshold_bytes is not None
        and spec.params_cls is EcnParams
        and ecn_threshold_bytes != DEFAULT_DCTCP_K_BYTES
    ):
        return EcnParams(ecn_threshold_bytes)
    return spec.default_params


def open_flow(
    src: Host,
    dst: Host,
    protocol: str,
    size_bytes: Optional[int] = None,
    start_ns: Optional[int] = None,
    on_complete: Optional[Callable[[Sender], None]] = None,
    min_rto_ns: int = 10 * MILLISECOND,
    awnd_bytes: Optional[int] = None,
    weight: Optional[int] = None,
    tenant: Optional[str] = None,
) -> Sender:
    """Create a ``src -> dst`` flow and schedule its start.

    ``size_bytes=None`` makes the flow long-lived; ``start_ns=None`` starts
    it immediately.  ``weight`` selects the weighted allocation policy on
    transports whose spec declares ``supports_weight`` (today: TFC).
    ``tenant`` tags both endpoints for multi-tenant accounting (per-tenant
    goodput/FCT in ``repro.obs`` and ``repro.metrics.fct``).  Returns the
    sender (its ``stats`` carry everything the experiments measure; the
    receiver is reachable for tests via ``sender.receiver``).
    """
    spec = get_protocol(protocol)
    sport = src.allocate_port()
    dport = dst.allocate_port()
    common = {} if awnd_bytes is None else {"awnd_bytes": awnd_bytes}
    sender_kwargs = dict(common)
    if weight is not None:
        if not spec.supports_weight:
            raise ValueError(
                "weighted allocation is a TFC feature "
                f"({spec.name!r} does not support flow weights)"
            )
        sender_kwargs["weight"] = weight
    sender = spec.sender_cls(
        src,
        dst.node_id,
        dport,
        size_bytes=size_bytes,
        sport=sport,
        min_rto_ns=min_rto_ns,
        on_complete=on_complete,
        **sender_kwargs,
    )
    receiver = spec.receiver_cls(dst, sender.flow_key, **common)
    sender.receiver = receiver  # convenience back-reference for tests
    if tenant is not None:
        sender.tenant = tenant
        receiver.tenant = tenant
    if start_ns is None or start_ns <= src.sim.now:
        sender.start()
    else:
        src.sim.schedule_at(start_ns, sender.start)
    return sender
