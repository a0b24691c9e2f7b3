"""The Cooperative-ARQ vehicle protocol (paper §3).

One :class:`CarqProtocol` instance runs per vehicle.  It owns:

* the per-flow reception state (own download) and the cooperative buffer
  (packets held for platoon partners);
* the HELLO beacon process that maintains the cooperator table and
  responder ordering;
* the coverage watchdog that flips the node between the Reception phase
  and the dark-area Cooperative-ARQ phase;
* the recovery loop (requester side) and the ordered-response logic with
  overhearing suppression (responder side).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import CarqConfig
from repro.core.cooperators import CooperatorTable
from repro.core.state import FlowReceptionState, Phase
from repro.errors import ProtocolError
from repro.mac.frames import (
    BROADCAST,
    CoopDataFrame,
    DataFrame,
    Frame,
    HelloFrame,
    NodeId,
    RequestFrame,
)
from repro.mac.medium import RxInfo
from repro.mac.timing import frame_airtime
from repro.net.buffer import PacketBuffer
from repro.net.node import Node
from repro.obs.probes import protocol_probes
from repro.sim import Event, Interrupt, Process, Simulator


@dataclass(slots=True)
class CarqStats:
    """Protocol activity counters for one vehicle and one round."""

    hellos_sent: int = 0
    request_frames_sent: int = 0
    seqs_requested: int = 0
    responses_sent: int = 0
    responses_suppressed: int = 0
    duplicate_recoveries: int = 0
    recovery_passes: int = 0
    recovery_completed_at: float | None = None
    recovery_started_at: float | None = None


class CarqProtocol:
    """Vehicle-side Cooperative ARQ.

    Parameters
    ----------
    sim:
        The simulation kernel.
    node:
        The vehicle node (provides identity, mobility and the interface).
    ap_ids:
        Identity (or identities, for multi-AP roads) of the access points
        whose frames define coverage.
    config:
        Protocol tunables (defaults = the paper's prototype).
    rng:
        Stream for HELLO jitter.
    """

    __slots__ = (
        "sim",
        "node",
        "my_flow",
        "config",
        "_rng",
        "phase",
        "state",
        "table",
        "coop_buffer",
        "stats",
        "_obs",
        "_started",
        "_last_ap_time",
        "_coverage_event",
        "_recovery_process",
        "_overheard_responses",
        "ap_ids",
    )

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        ap_ids: NodeId | typing.Iterable[NodeId],
        config: CarqConfig,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.node = node
        #: The flow addressed to this vehicle (its own download).  A plain
        #: attribute, not a property — it is read on every frame.
        self.my_flow: NodeId = node.node_id
        if isinstance(ap_ids, int):
            self.ap_ids: frozenset[NodeId] = frozenset({NodeId(ap_ids)})
        else:
            self.ap_ids = frozenset(ap_ids)
        self.config = config
        self._rng = rng

        self.phase = Phase.IDLE
        self.state = FlowReceptionState()
        self.table = CooperatorTable()
        self.coop_buffer = PacketBuffer(config.buffer_capacity)
        self.stats = CarqStats()
        # Frame-level metrics (None while repro.obs is disabled).  The
        # per-round science numbers stay in ``stats``; the probes feed the
        # cross-round/cross-task telemetry stream.
        self._obs = protocol_probes()

        self._started = False
        self._last_ap_time: float | None = None
        self._coverage_event: Event | None = None
        self._recovery_process: Process | None = None
        # (flow, seq) → time a coop response was last overheard (suppression).
        self._overheard_responses: dict[tuple[NodeId, int], float] = {}

        node.iface.add_receive_callback(self._on_frame)

    # ------------------------------------------------------------------ API --

    def start(self) -> None:
        """Launch the HELLO beacon process.

        Raises
        ------
        ProtocolError
            If called twice.
        """
        if self._started:
            raise ProtocolError(f"protocol on {self.node.name!r} already started")
        self._started = True
        self.sim.process(self._hello_loop(), name=f"{self.node.name}.hello")

    def lost_before_cooperation(self) -> list[int]:
        """Sequence numbers in the known range missed from the AP directly."""
        if self.state.known_lo is None:
            return []
        return [
            seq
            for seq in range(self.state.known_lo, self.state.known_hi + 1)
            if seq not in self.state.received
        ]

    def lost_after_cooperation(self) -> list[int]:
        """Sequence numbers still missing after cooperative recovery."""
        return self.state.missing()

    # ------------------------------------------------------------ HELLO beacon --

    def _hello_loop(self) -> typing.Generator[float, None, None]:
        period = self.config.hello_period_s
        jitter = self.config.hello_jitter_fraction * period
        next_double = self._rng.random
        # Both draws are ``Generator.uniform(low, high)`` written out as
        # NumPy computes it, ``low + (high - low) * random()``: the same
        # bits, without the call overhead (see repro.net.ap).
        # Desynchronise first beacons across cars.
        yield 0.0 + (period - 0.0) * next_double()
        while True:
            self._broadcast_hello()
            if jitter > 0.0:
                yield period + (-jitter + (jitter - -jitter) * next_double())
            else:
                yield period

    def _broadcast_hello(self) -> None:
        now = self.sim.now
        self.table.expire(now, self.config.cooperator_ttl_s)
        cooperators = self.table.my_cooperators()
        if self.config.selection is not None:
            cooperators = self.config.selection.select(self.table, cooperators)
        flow_ranges = tuple(
            (flow, *self.coop_buffer.flow_range(flow))
            for flow in sorted(self.coop_buffer.flows())
        )
        frame = HelloFrame(
            src=self.node.node_id,
            dst=BROADCAST,
            size_bytes=HelloFrame.size_for(len(cooperators), len(flow_ranges)),
            cooperators=cooperators,
            flow_ranges=flow_ranges,
        )
        self.node.iface.send(frame)
        self.stats.hellos_sent += 1
        if self._obs is not None:
            self._obs.hello_tx.value += 1

    # ------------------------------------------------------------ frame dispatch --

    def _on_frame(self, frame: Frame, info: RxInfo) -> None:
        if isinstance(frame, DataFrame):
            self._on_data(frame, info)
        elif isinstance(frame, HelloFrame):
            self._on_hello(frame, info)
        elif isinstance(frame, RequestFrame):
            self._on_request(frame, info)
        elif isinstance(frame, CoopDataFrame):
            self._on_coop_data(frame, info)
        # Other frame kinds (baseline ACK/NACK/SUMMARY) are not ours.

    def _on_data(self, frame: DataFrame, info: RxInfo) -> None:
        if frame.src not in self.ap_ids:
            return
        now = self.sim.now
        self._last_ap_time = now
        # AP contact: abort any recovery and enter the Reception phase.
        if self.phase is Phase.RECOVERY and self._recovery_process is not None:
            if self._recovery_process.alive:
                self._recovery_process.interrupt("ap-contact")
            self._recovery_process = None
        self.phase = Phase.RECEPTION
        if frame.flow_dst == self.my_flow:
            self.state.record_direct(frame.seq, now)
        elif self.table.is_partner(frame.flow_dst):
            self.coop_buffer.add(frame.flow_dst, frame.seq, frame.size_bytes)
        # Re-arm the coverage watchdog.
        if self._coverage_event is not None:
            self.sim.cancel(self._coverage_event)
        self._coverage_event = self.sim.schedule(
            self.config.coverage_timeout_s, self._coverage_timeout
        )

    def _on_hello(self, frame: HelloFrame, info: RxInfo) -> None:
        now = self.sim.now
        if self._obs is not None:
            self._obs.hello_rx.value += 1
        src = NodeId(frame.src)
        self.table.hear_hello(src, now, info.rx_power_dbm)
        me = self.node.node_id
        if me in frame.cooperators:
            self.table.note_partner(src, frame.cooperators.index(me), now)
        else:
            self.table.forget_partner(src)
        if self.config.recovery_range == "platoon":
            extended = False
            for flow, lo, hi in frame.flow_ranges:
                if flow != self.my_flow:
                    continue
                old = (self.state.known_lo, self.state.known_hi)
                self.state.extend_range(lo, hi)
                extended = extended or old != (
                    self.state.known_lo,
                    self.state.known_hi,
                )
            if extended:
                self._maybe_restart_recovery()

    def _on_request(self, frame: RequestFrame, info: RxInfo) -> None:
        if self._obs is not None:
            self._obs.request_rx.value += 1
        requester = NodeId(frame.src)
        my_order = self.table.my_order_for(requester)
        if my_order is None:
            return  # the requester does not consider me a cooperator
        held = [seq for seq in frame.seqs if self.coop_buffer.has(requester, seq)]
        if not held:
            return
        self.sim.process(
            self._respond(requester, held, my_order, self.sim.now),
            name=f"{self.node.name}.respond-{requester}",
        )

    def _on_coop_data(self, frame: CoopDataFrame, info: RxInfo) -> None:
        now = self.sim.now
        if self._obs is not None:
            self._obs.coop_data_rx.value += 1
        key = (frame.flow_dst, frame.seq)
        self._overheard_responses[key] = now
        if frame.flow_dst == self.my_flow:
            if not self.state.record_recovered(frame.seq, now):
                self.stats.duplicate_recoveries += 1
        elif self.table.is_partner(frame.flow_dst):
            self.coop_buffer.add(frame.flow_dst, frame.seq, frame.size_bytes)

    # ------------------------------------------------------------ coverage watchdog --

    def _coverage_timeout(self) -> None:
        """The watchdog verdict: no AP heard for the timeout → dark area."""
        self._coverage_event = None
        if self.phase is not Phase.RECEPTION:
            return
        self.phase = Phase.RECOVERY
        if self.stats.recovery_started_at is None:
            self.stats.recovery_started_at = self.sim.now
        self._start_recovery()

    def _start_recovery(self) -> None:
        self._recovery_process = self.sim.process(
            self._recovery_loop(), name=f"{self.node.name}.recovery"
        )

    def _maybe_restart_recovery(self) -> None:
        """New range knowledge arrived while idle in the dark area."""
        if self.phase is Phase.RECOVERY and (
            self._recovery_process is None or not self._recovery_process.alive
        ):
            if self.state.missing():
                self._start_recovery()

    # ------------------------------------------------------------ requester side --

    def _response_window(self, n_seqs: int) -> float:
        """How long to wait for cooperators to answer *n_seqs* requests."""
        cooperators = max(len(self.table), 1)
        per_frame = self._coop_frame_airtime() + self.config.request_guard_s
        return cooperators * self.config.responder_slot_s + n_seqs * per_frame

    def _coop_frame_airtime(self) -> float:
        size = DataFrame.size_for_payload(1000)
        return frame_airtime(size, self.node.iface.config.rate)

    def _recovery_loop(self) -> typing.Generator[float, None, None]:
        """Cycle REQUESTs over the missing list (paper §3.3).

        The paper's node "starts again from the beginning of the actualized
        (shorter) list" after each pass; we additionally stop after
        ``max_stagnant_passes`` passes with zero progress, because two cars
        that have drifted out of range would otherwise request forever.
        """
        stagnant_passes = 0
        try:
            while True:
                missing = self.state.missing()
                if not missing:
                    if self.stats.recovery_completed_at is None:
                        self.stats.recovery_completed_at = self.sim.now
                    return
                if len(self.table) == 0:
                    return  # nobody to ask
                recovered_before = len(self.state.recovered)
                self.stats.recovery_passes += 1
                yield from self._request_batched(missing)
                if len(self.state.recovered) == recovered_before:
                    stagnant_passes += 1
                    if stagnant_passes >= self.config.max_stagnant_passes:
                        return
                else:
                    stagnant_passes = 0
                yield self.config.request_guard_s
        except Interrupt:
            return  # back in AP coverage: the reception phase takes over

    def _request_batched(
        self, missing: list[int]
    ) -> typing.Generator[float, None, None]:
        """One pass: REQUESTs of up to ``max_batch`` seqs still missing.

        At the default ``max_batch = 1`` this is the paper's one REQUEST
        per missing packet; a larger cap is the §3.3 optimisation.
        """
        for start in range(0, len(missing), self.config.max_batch):
            chunk = tuple(
                seq for seq in missing[start : start + self.config.max_batch]
                if not self.state.has(seq)
            )
            if not chunk:
                continue
            frame = RequestFrame(
                src=self.node.node_id,
                dst=BROADCAST,
                size_bytes=RequestFrame.size_for(len(chunk)),
                seqs=chunk,
            )
            self.node.iface.send(frame)
            self.stats.request_frames_sent += 1
            self.stats.seqs_requested += len(chunk)
            if self._obs is not None:
                self._obs.request_tx.value += 1
            yield self._response_window(len(chunk))

    # ------------------------------------------------------------ responder side --

    def _respond(
        self,
        requester: NodeId,
        seqs: list[int],
        my_order: int,
        request_time: float,
    ) -> typing.Generator[float, None, None]:
        """Answer a REQUEST after the order-based back-off (§3.2/§3.3)."""
        yield my_order * self.config.responder_slot_s
        for seq in seqs:
            size_bytes = self.coop_buffer.size_of(requester, seq)
            if size_bytes is None:
                continue  # evicted meanwhile
            overheard = self._overheard_responses.get((requester, seq))
            if overheard is not None and overheard >= request_time:
                self.stats.responses_suppressed += 1
                if self._obs is not None:
                    self._obs.responses_suppressed.value += 1
                continue
            frame = CoopDataFrame(
                src=self.node.node_id,
                dst=requester,
                size_bytes=size_bytes,
                flow_dst=requester,
                seq=seq,
                relayer=self.node.node_id,
            )
            self.node.iface.send(frame)
            self.stats.responses_sent += 1
            if self._obs is not None:
                self._obs.coop_data_tx.value += 1
            yield frame_airtime(size_bytes, self.node.iface.config.rate) + (
                self.config.request_guard_s
            )
