"""Probe bundles: the contact surface between hot code and the registry.

Each instrumented component asks for its bundle once, at construction::

    self._obs = kernel_probes()   # None while the registry is disabled

and every hot site is then a single guarded line::

    if self._obs is not None:
        self._obs.pushed.value += 1

While the registry is disabled the factories return ``None``, so the
per-event cost of instrumentation is one attribute load plus an
``is None`` test — the ≤2% disabled-overhead budget pinned by
``benchmarks/bench_obs.py``.  None of the probes consume RNG or touch
simulation state; they only count and (for cost centers) read the wall
clock, which is what keeps the A/B bit-identity pin valid with
everything enabled.

The probe catalog (names, types, recording sites) is documented in
``docs/OBSERVABILITY.md``; keep the two in sync.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.registry import MetricsRegistry, registry


def callback_label(callback: Callable[..., Any]) -> str:
    """A low-cardinality cost-center label for an event callback.

    Bound methods label as ``Class.method``.  Process resumptions all
    funnel through ``Process._resume``, which would hide every protocol
    loop behind one row — those are refined to ``process:<generator>``
    (e.g. ``process:_hello_loop``) using the generator function's name,
    which is shared across instances, so cardinality stays bounded by
    the code, not the topology.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return repr(callback)
    if qualname.endswith("Process._resume"):
        process = getattr(callback, "__self__", None)
        generator = getattr(process, "_generator", None)
        name = getattr(generator, "__name__", None)
        if name:
            return f"process:{name}"
    return qualname


class KernelProbes:
    """Event-kernel metrics: push/fire/cancel counts, depth, cost centers."""

    __slots__ = ("pushed", "fired", "cancelled", "depth", "costs")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.pushed = reg.counter("sim.events_pushed")
        self.fired = reg.counter("sim.events_fired")
        self.cancelled = reg.counter("sim.events_cancelled")
        self.depth = reg.gauge("sim.queue_depth")
        self.costs = reg.table("sim.cost_centers")

    def record_fire(
        self, callback: Callable[..., Any], seconds: float, depth: int
    ) -> None:
        """Account one fired event: count, queue depth, cost center."""
        self.fired.value += 1
        self.depth.set(depth)
        self.costs.add(callback_label(callback), seconds)


class MediumProbes:
    """Reception-ladder metrics: broadcasts, culling, batch-vs-scalar."""

    __slots__ = (
        "broadcasts",
        "batch_broadcasts",
        "scalar_broadcasts",
        "unheard_broadcasts",
        "candidates",
        "admitted",
        "lanes",
        "delivery_lanes",
        "scalar_floor_calls",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.broadcasts = reg.counter("medium.broadcasts")
        self.batch_broadcasts = reg.counter("medium.batch_broadcasts")
        self.scalar_broadcasts = reg.counter("medium.scalar_broadcasts")
        # Broadcasts sent before their transmitter's reach horizon: no
        # radio could be in reach, so no receiver was even looked up.
        self.unheard_broadcasts = reg.counter("medium.unheard_broadcasts")
        self.candidates = reg.counter("medium.candidates_before_cull")
        self.admitted = reg.counter("medium.candidates_after_cull")
        self.lanes = reg.histogram("medium.batch_lanes", lo=1.0, hi=1e4)
        # Scalar channel.sample calls issued by the medium's per-receiver
        # loop (candidate sets below batch_min_candidates, and every
        # broadcast of the oracle); the batch kernel's per-lane draws
        # below its crossover are not counted here.
        self.scalar_floor_calls = reg.counter("medium.scalar_floor_calls")
        # Successful receivers per frame-end event (one per broadcast).
        self.delivery_lanes = reg.histogram("medium.delivery_lanes", lo=1.0, hi=1e4)

    def on_broadcast(self, candidates: int, admitted: int, batch: bool) -> None:
        """Account one transmission's whole reception pass."""
        self.broadcasts.value += 1
        self.candidates.value += candidates
        self.admitted.value += admitted
        if batch:
            self.batch_broadcasts.value += 1
        else:
            self.scalar_broadcasts.value += 1

    def on_unheard(self) -> None:
        """Account one broadcast skipped by the reach horizon."""
        self.broadcasts.value += 1
        self.unheard_broadcasts.value += 1


class ProtocolProbes:
    """C-ARQ frame-level counts (HELLO / REQUEST / coop-data, buffering)."""

    __slots__ = (
        "hello_tx",
        "hello_rx",
        "request_tx",
        "request_rx",
        "coop_data_tx",
        "coop_data_rx",
        "responses_suppressed",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.hello_tx = reg.counter("proto.hello_tx")
        self.hello_rx = reg.counter("proto.hello_rx")
        self.request_tx = reg.counter("proto.request_tx")
        self.request_rx = reg.counter("proto.request_rx")
        self.coop_data_tx = reg.counter("proto.coop_data_tx")
        self.coop_data_rx = reg.counter("proto.coop_data_rx")
        self.responses_suppressed = reg.counter("proto.responses_suppressed")


class BufferProbes:
    """PacketBuffer lookup outcomes and capacity-pressure evictions."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.hits = reg.counter("buffer.hits")
        self.misses = reg.counter("buffer.misses")
        self.evictions = reg.counter("buffer.evictions")


def kernel_probes() -> KernelProbes | None:
    """Event-kernel probe bundle, or ``None`` while metrics are disabled."""
    reg = registry()
    return KernelProbes(reg) if reg.enabled else None


def medium_probes() -> MediumProbes | None:
    """Medium probe bundle, or ``None`` while metrics are disabled."""
    reg = registry()
    return MediumProbes(reg) if reg.enabled else None


def protocol_probes() -> ProtocolProbes | None:
    """Protocol probe bundle, or ``None`` while metrics are disabled."""
    reg = registry()
    return ProtocolProbes(reg) if reg.enabled else None


def buffer_probes() -> BufferProbes | None:
    """Buffer probe bundle, or ``None`` while metrics are disabled."""
    reg = registry()
    return BufferProbes(reg) if reg.enabled else None
