"""The per-node network interface: CSMA/CA transmit queue + promiscuous RX.

The interface accepts frames from the protocol layer, contends for the
medium (DIFS + slotted random back-off, redrawing with a doubled contention
window when the medium is sensed busy — see the fidelity note in
:mod:`repro.mac`), transmits them in FIFO order, and delivers *every*
correctly received frame to the receive callback (monitor mode, as in the
testbed).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

import numpy as np

from repro.errors import MacError
from repro.geom import Vec2
from repro.mac.frames import Frame, NodeId
from repro.mac.medium import Medium, RxInfo
from repro.mac.timing import timing_for
from repro.mobility.base import MobilityModel
from repro.radio.modulation import WifiRate
from repro.radio.phy import RadioConfig
from repro.sim import Simulator

ReceiveCallback = Callable[[Frame, RxInfo], None]


class NetworkInterface:
    """One radio attached to one node and one medium.

    Parameters
    ----------
    sim, medium:
        Simulation kernel and the shared medium.
    node_id:
        Identity used in frames and channel link keys.
    mobility:
        The radio's only position source (a fixed mount or a
        trajectory), queried at the simulator clock.  Its
        :meth:`~repro.mobility.base.MobilityModel.max_speed_ms` feeds the
        medium's speed bound.  Like ``config``, it is snapshotted by
        ``Medium.attach`` and must not be reassigned afterwards.
    config:
        Static PHY parameters.
    rng:
        Stream for back-off draws (one per node).
    name:
        Human-readable label for diagnostics.
    """

    __slots__ = (
        "_sim",
        "_medium",
        "node_id",
        "mobility",
        "config",
        "_rng",
        "name",
        "_queue",
        "_transmitting",
        "_contending",
        "_timing",
        "_cw",
        "_receive_callbacks",
        "frames_sent",
        "bytes_sent",
        "frames_received",
    )

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: NodeId,
        mobility: MobilityModel,
        config: RadioConfig,
        rng: np.random.Generator,
        name: str = "",
    ) -> None:
        self._sim = sim
        self._medium = medium
        self.node_id = node_id
        self.mobility = mobility
        self.config = config
        self._rng = rng
        self.name = name or f"iface-{node_id}"

        self._queue: deque[tuple[Frame, WifiRate]] = deque()
        self._transmitting = False
        self._contending = False
        # Contention-cycle state (valid while _contending): the timing
        # grid of the head frame and the current contention window.
        self._timing = None
        self._cw = 0
        self._receive_callbacks: list[ReceiveCallback] = []

        # Counters for overhead accounting (epidemic-vs-C-ARQ experiment).
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0

        medium.attach(self)

    # -- geometry ----------------------------------------------------------------

    def position(self) -> Vec2:
        """Current node position (delegates to the mobility model)."""
        return self.mobility.position(self._sim.now)

    # -- receive path ---------------------------------------------------------------

    def add_receive_callback(self, callback: ReceiveCallback) -> None:
        """Register a promiscuous receive handler."""
        self._receive_callbacks.append(callback)

    def deliver(self, frame: Frame, info: RxInfo) -> None:
        """Called by the medium for each successfully received frame."""
        self.frames_received += 1
        for callback in list(self._receive_callbacks):
            callback(frame, info)

    # -- transmit path ----------------------------------------------------------------

    @property
    def transmitting(self) -> bool:
        """True while a frame from this interface is on the air."""
        return self._transmitting

    def send(self, frame: Frame, rate: WifiRate | None = None) -> None:
        """Enqueue *frame* for transmission at *rate* (default: config rate).

        Raises
        ------
        MacError
            If the frame's source does not match this interface's node.
        """
        if frame.src != self.node_id:
            raise MacError(
                f"frame src {frame.src!r} does not match interface node {self.node_id!r}"
            )
        self._queue.append((frame, rate if rate is not None else self.config.rate))
        if not self._contending and not self._transmitting:
            self._contending = True
            # Kick-off at the current instant (not inline): creation
            # order must not leak into execution order, exactly as a
            # process kick-off.
            self._sim.schedule(0.0, self._start_cycle)

    def flush(self) -> int:
        """Drop all queued (not yet on-air) frames; returns how many."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    # The CSMA/CA loop is a flat callback state machine rather than a
    # generator process: contention is the hottest control flow in a
    # dense scenario (one cycle per frame, several wake-ups per cycle),
    # and the process machinery's per-resumption cost — generator send,
    # yield-type dispatch, Process bookkeeping — dominated large-N
    # profiles.  The callbacks schedule exactly the events the generator
    # version yielded, in the same order with the same RNG draws, so
    # event sequence numbers (and thus all downstream tie-breaking) are
    # unchanged — pinned by the scenario golden tests.

    def _start_cycle(self) -> None:
        """Begin one contention cycle for the head frame (DIFS + back-off)."""
        if not self._queue:  # flushed since the kick-off was scheduled
            self._contending = False
            return
        timing = timing_for(self._queue[0][1])
        self._timing = timing
        self._cw = timing.cw_min
        backoff_slots = int(self._rng.integers(0, self._cw + 1))
        self._sim.schedule(
            timing.difs_s + backoff_slots * timing.slot_s, self._backoff_done
        )

    def _backoff_done(self) -> None:
        """Back-off expired: transmit if the medium is free, else redraw."""
        timing = self._timing
        if self._medium.busy(self):
            self._cw = min(2 * self._cw + 1, timing.cw_max)
            backoff_slots = int(self._rng.integers(0, self._cw + 1))
            self._sim.schedule(
                timing.difs_s + backoff_slots * timing.slot_s, self._backoff_done
            )
            return
        frame, rate = self._queue.popleft()
        airtime = self._medium.transmit(self, frame, rate)
        self._transmitting = True
        self.frames_sent += 1
        self.bytes_sent += frame.size_bytes
        self._sim.schedule(airtime, self._tx_done)

    def _tx_done(self) -> None:
        """Frame left the air: start the next cycle or go idle."""
        self._transmitting = False
        if self._queue:
            # The generator version continued its loop within the same
            # event callback; starting the next cycle inline keeps the
            # RNG-draw and schedule order identical.
            self._start_cycle()
        else:
            self._contending = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkInterface({self.name!r}, queue={len(self._queue)})"
