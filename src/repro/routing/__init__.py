"""Pluggable routing / load-balancing policies for multi-path fabrics.

Mirrors the :mod:`repro.sim.sched` backend pattern: a small registry of
named policies, selection through three surfaces, and an environment
variable for code paths that build their own :class:`~repro.net.network.
Network` internally:

* ``Network(routing=...)`` — a name or a policy instance;
* ``REPRO_ROUTING`` — validated env default (what the experiment runner
  and the CI shard export process-wide);
* ``runner --routing`` — pins the policy for every experiment cell.

Policies, all bit-deterministic under a fixed network seed:

* ``single``  — fixed BFS next hop (the default; bit-identical to the
  pre-multipath datapath, enforced by the golden-determinism suite);
* ``ecmp``    — per-flow seeded 5-tuple hash;
* ``flowlet`` — idle-gap flowlet switching (``FlowletPolicy(gap_ns=...)``
  for a non-default gap);
* ``spray``   — per-packet round-robin (reordering stress case).
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .base import RoutingPolicy, flow_hash
from .policies import EcmpPolicy, FlowletPolicy, SinglePathPolicy, SprayPolicy

#: Name -> policy class.
ROUTING_POLICIES = {
    "single": SinglePathPolicy,
    "ecmp": EcmpPolicy,
    "flowlet": FlowletPolicy,
    "spray": SprayPolicy,
}

#: Every accepted value for Network(routing=...) / REPRO_ROUTING.
ROUTING_NAMES = tuple(sorted(ROUTING_POLICIES))

ROUTING_ENV_VAR = "REPRO_ROUTING"


def make_routing(name: str) -> RoutingPolicy:
    """Instantiate a policy by registry name."""
    try:
        policy_cls = ROUTING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; "
            f"choose from {', '.join(ROUTING_NAMES)}"
        ) from None
    return policy_cls()


def resolve_routing(
    routing: Optional[Union[str, RoutingPolicy]],
) -> RoutingPolicy:
    """Turn a Network's ``routing=`` argument into a policy instance.

    ``None`` falls back to ``$REPRO_ROUTING`` (validated), then to
    ``single``.  Policy instances pass through untouched, so one
    pre-configured policy (e.g. a custom flowlet gap) can be handed to a
    network directly.
    """
    if isinstance(routing, RoutingPolicy):
        return routing
    if routing is None:
        routing = os.environ.get(ROUTING_ENV_VAR, "") or "single"
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"${ROUTING_ENV_VAR}={routing!r} is not a routing policy; "
                f"choose from {', '.join(ROUTING_NAMES)}"
            )
    return make_routing(routing)


__all__ = [
    "RoutingPolicy",
    "SinglePathPolicy",
    "EcmpPolicy",
    "FlowletPolicy",
    "SprayPolicy",
    "ROUTING_POLICIES",
    "ROUTING_NAMES",
    "ROUTING_ENV_VAR",
    "flow_hash",
    "make_routing",
    "resolve_routing",
]
