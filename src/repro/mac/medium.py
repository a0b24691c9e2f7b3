"""The shared wireless medium.

One :class:`Medium` instance connects all interfaces of a scenario.  For
every transmission it samples the channel toward attached receivers,
tracks concurrent arrivals for interference/SINR, enforces half-duplex
radios, and reports outcomes to an optional trace collector.

Every radio's position comes from its mobility model, and so does the
medium's speed bound: the fastest attached model's
:meth:`~repro.mobility.base.MobilityModel.max_speed_ms`, where a model
that reports none makes the bound unbounded.

Reception pipeline per (frame, receiver):

0. skip the receiver lookup altogether while the transmitter is before
   its reach horizon: a simulated time before which no other attached
   radio can be inside the transmitter's reach radius R (the distance
   past which its power cannot pass any receiver's step-1 bound, plus a
   1 m guard).  One scan over the other radios finds the nearest
   distance d; if d > R, no radio can close the gap before
   ``now + (d - R) / (2 · speed bound)``, since both ends move at most
   that fast.  Every link such a broadcast would have looked at fails
   step 1's bound, and a culled link draws no randomness, so skipping
   them is exact.  The broadcast still takes its ``tx_seq``, calls the
   trace's ``on_tx`` hook and marks the transmitter's own arrivals
   half-duplex.  Past its horizon, a
   fixed transmitter (one whose model's top speed is 0) skips the fixed
   receivers in its cull verdict: those that failed step 1's bound when
   it was evaluated once, at the transmitter's first full-path
   broadcast since the last attach.  Neither end moves and every other
   term of the bound is fixed at attach, so they fail it on every
   broadcast until the next attach, which drops every verdict;
1. bound the receiver's best-case mean power deterministically (path loss
   at current positions plus :data:`CULL_HEADROOM_DB` of shadowing
   headroom) and cull
   the link if it can never clear the noise floor minus
   :data:`SENSITIVITY_MARGIN_DB` — no RNG is consumed, and because all
   stochastic channel draws are keyed per ``(link, transmission)``,
   skipping a link cannot perturb any other link's realisation;
2. sample path loss + shadowing + fading → received power;
3. drop silently if the mean power is far below the noise floor (the
   receiver's hardware would never sync to the preamble — real sniffers
   record nothing there either);
4. accumulate interference from temporally overlapping arrivals;
5. at frame end, draw delivery from the SINR-dependent frame error rate;
6. a receiver that transmitted during any part of the arrival loses the
   frame outright (half-duplex).

Past its horizon, a broadcast's candidates are every attached radio (a
fixed transmitter's without its verdict's fixed receivers).  A
transmitter in reach of some radio rescans its horizon once per
:data:`NEIGHBOR_REFRESH_S`, not per broadcast.  Candidate sets of at
least :data:`BATCH_MIN_CANDIDATES` receivers run step 1 as one
NumPy pass through the batch channel kernel (:mod:`repro.radio.batch`),
which then draws steps 2–3 vectorized only for at least
:data:`~repro.radio.batch.DRAW_CROSSOVER` survivors and per lane below
that; smaller candidate sets take the scalar per-receiver loop.  Every
frame end classifies per arrival (step 5), on either path.

``fast_path=False`` selects the exhaustive scalar oracle instead: every
attached interface is bounded *and sampled* by the scalar loop; it never
consults the reach horizon.  It exists for tests — the production path
must reproduce it bit for bit (the A/B pin in
``tests/scenarios/test_fast_path_ab.py``).
"""

from __future__ import annotations

import enum
import math
import typing
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import MacError
from repro.mac.frames import Frame
from repro.mac.timing import frame_airtime
from repro.obs.probes import medium_probes
from repro.radio.batch import LaneScratch, broadcast_samples
from repro.radio.channel import Channel, LinkSample
from repro.radio.modulation import WifiRate
from repro.sim import Priority, Simulator
from repro.units import dbm_sum

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.geom import Vec2
    from repro.mac.interface import NetworkInterface

#: Arrivals whose mean power is more than this below the receiver noise
#: floor are discarded without bookkeeping (step 3), and links that can
#: never clear that line are culled (step 1).
SENSITIVITY_MARGIN_DB = 10.0
#: Shadowing boost granted to a link before step 1 declares it
#: unreachable: a receiver is culled when ``tx_power + rx_gain -
#: pathloss - obstruction + CULL_HEADROOM_DB`` is below its threshold.
#: The bound is part of the reception model: the fast path and the
#: oracle both apply it, which is what makes them bit-identical.  It is
#: an approximation of the exact bound, the shadowing clamps (±4σ per
#: component) summed.  A culled link would have been admitted only with
#: a shadowing boost above 12 dB; at a composite σ of about 7 dB that
#: happens to a few percent of edge-of-range frames.  Such frames arrive
#: at least :data:`SENSITIVITY_MARGIN_DB` under the noise floor, so they
#: never deliver; they are lost only as weak interferers and ``on_rx``
#: reports.  Whether the constant becomes the exact bound is ROADMAP
#: item 6.
CULL_HEADROOM_DB = 12.0
#: Below this candidate count the scalar loop culls and samples each
#: candidate itself (NumPy's fixed per-op overhead beats a short Python
#: loop); at or above it the batch kernel's cull pass runs.  Purely a
#: throughput constant: both paths produce the same arrivals.
BATCH_MIN_CANDIDATES = 8
#: Rescan period of a transmitter's reach horizon while it is in reach.
NEIGHBOR_REFRESH_S = 1.0


class LossCause(enum.Enum):
    """Why a frame did or did not make it to a given receiver."""

    DELIVERED = "delivered"
    CHANNEL = "channel"            # SNR-driven corruption, no interference present
    INTERFERENCE = "interference"  # corrupted with concurrent arrivals on air
    HALF_DUPLEX = "half-duplex"    # receiver was transmitting
    BELOW_SENSITIVITY = "below-sensitivity"


@dataclass(slots=True, frozen=True)
class RxInfo:
    """Receive-side metadata handed to the interface with each frame."""

    time: float
    rx_power_dbm: float
    snr_db: float


class _Arrival:
    """Book-keeping for one frame in flight toward one receiver."""

    __slots__ = (
        "frame", "rate", "sample", "start", "end",
        "interferers_dbm", "half_duplex",
    )

    def __init__(
        self,
        frame: Frame,
        rate: WifiRate,
        sample: LinkSample,
        start: float,
        end: float,
    ) -> None:
        self.frame = frame
        self.rate = rate
        self.sample = sample
        self.start = start
        self.end = end
        self.interferers_dbm: list[float] = []
        self.half_duplex = False


class Medium:
    """Connects interfaces through a :class:`~repro.radio.channel.Channel`.

    Parameters
    ----------
    sim:
        The simulator that provides the clock and event queue.
    channel:
        Propagation model shared by all links.
    trace:
        Optional collector told of every frame put on the air
        (``on_tx(time, node, frame, rate)``) and every arrival's outcome
        (``on_rx(time, node, frame, cause, snr_db, rx_power_dbm)``); the
        production :class:`~repro.trace.capture.TraceCollector` keeps only
        first data deliveries.
    fast_path:
        When true (default), the production path: broadcasts before
        their transmitter's reach horizon skip reception, a fixed
        transmitter skips the fixed receivers its cull verdict found
        unreachable, hopeless links are culled before sampling, and
        candidate sets of at least :data:`BATCH_MIN_CANDIDATES` are
        culled by the batch kernel (:mod:`repro.radio.batch`) — one
        NumPy pass over the whole set instead of a per-receiver Python
        loop.  When false, the exhaustive scalar oracle: every attached
        interface is bounded and sampled by the per-receiver reference
        loop.  The two are
        bit-identical by construction (keyed draws + pinned float64
        semantics); the oracle exists so tests can prove it.

    Both paths apply the same reachability bound, with the fixed
    :data:`CULL_HEADROOM_DB` of shadowing headroom; the medium has no
    other reception setting.  The speed bound that times reach horizons
    comes from the radios: it starts at 0, and :meth:`attach` raises it
    to each attached model's top speed (unbounded for a model that
    reports none).  :meth:`attach` also drops every fixed transmitter's
    cull verdict, which the next full-path broadcast of that transmitter
    evaluates again.
    """

    __slots__ = (
        "_sim",
        "_channel",
        "_trace",
        "_fast_path",
        "_max_speed_ms",
        "_scratch",
        "_interfaces",
        "_ongoing",
        "_rx_static",
        "_obs",
        "_spans",
        "_tx_seq",
        "_tx_radius_m",
        "_horizons",
        "_verdicts",
    )

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        *,
        trace: typing.Any | None = None,
        fast_path: bool = True,
    ) -> None:
        self._sim = sim
        self._channel = channel
        self._trace = trace
        self._fast_path = fast_path
        # Reusable lane-gather buffers of the batch kernel.
        self._scratch = LaneScratch()
        # Top speed of the fastest attached model (math.inf: unbounded).
        self._max_speed_ms = 0.0
        self._interfaces: list[NetworkInterface] = []
        self._ongoing: dict[NetworkInterface, list[_Arrival]] = {}
        # (node id, antenna gain, threshold, mobility batch key, mobility,
        # fixed) per interface — the attach-time snapshot both reception
        # paths read: one probe per candidate instead of attribute chases
        # and a batch_key() call per candidate per broadcast.  Fixed: the
        # model's top speed is 0, so the radio never leaves its position.
        self._rx_static: dict[
            NetworkInterface,
            tuple[typing.Hashable, float, float, object, object, bool],
        ] = {}
        # Observability snapshot (see repro.obs): probe bundle + tracer
        # are captured here, so enable/install before building the medium.
        # Both default to None, leaving the hot paths a single is-test.
        self._obs = medium_probes()
        self._spans = obs.tracer()
        self._tx_seq = 0
        # Per-transmit-power reach radius (radios share a handful of
        # distinct powers, so this stays tiny).
        self._tx_radius_m: dict[float, float] = {}
        # Per-transmitter reach horizon: (valid until, quiet).  Quiet
        # means no other radio can be in reach before that time; a
        # transmitter in reach keeps the full path until its next scan.
        self._horizons: dict[NetworkInterface, tuple[float, bool]] = {}
        # Per fixed transmitter, its cull verdict over the fixed
        # receivers: the attach-order candidates without the receivers
        # that fail the bound.
        self._verdicts: dict[NetworkInterface, list[NetworkInterface]] = {}

    def attach(self, iface: "NetworkInterface") -> None:
        """Register an interface.  Each interface joins exactly one medium.

        The interface's ``config`` and ``mobility`` are snapshotted here
        (thresholds, antenna gain, mobility batch group) and must not be
        reassigned afterwards — both reception paths read the snapshot,
        so a mid-run swap would silently keep the attach-time values.
        Positions stay live: the model is queried per broadcast.  The
        speed bound rises to the model's top speed if that is higher
        (unbounded if the model reports none); it is never lowered.  A
        model whose top speed is 0 makes the radio fixed, which is read
        here only, never per broadcast.  Every attach drops every reach
        horizon and every fixed transmitter's cull verdict.
        """
        if iface in self._ongoing:
            raise MacError(f"interface {iface.name!r} already attached")
        self._interfaces.append(iface)
        self._ongoing[iface] = []
        threshold = iface.config.noise_floor_dbm - SENSITIVITY_MARGIN_DB
        mobility = iface.mobility
        top_speed = mobility.max_speed_ms()
        self._rx_static[iface] = (
            iface.node_id,
            iface.config.antenna_gain_db,
            threshold,
            mobility.batch_key(),
            mobility,
            top_speed == 0.0,
        )
        self._max_speed_ms = max(
            self._max_speed_ms, math.inf if top_speed is None else top_speed
        )
        # The topology changed: rescan every horizon, re-bound every
        # fixed pair.
        self._tx_radius_m.clear()
        self._horizons.clear()
        self._verdicts.clear()

    # -- candidate discovery --------------------------------------------------

    def _tx_reach_m(self, tx_power_dbm: float) -> float:
        """Radius beyond which *tx_power* cannot pass any receiver's bound,
        cached per transmit power (radios share a handful of them)."""
        radius = self._tx_radius_m.get(tx_power_dbm)
        if radius is None:
            best = tx_power_dbm + max(
                iface.config.antenna_gain_db for iface in self._interfaces
            )
            min_threshold = min(
                threshold for _, _, threshold, _, _, _ in self._rx_static.values()
            )
            max_loss = best - min_threshold + CULL_HEADROOM_DB
            radius = (
                self._channel.max_range_m(max_loss)
                if math.isfinite(max_loss) else math.inf
            )
            self._tx_radius_m[tx_power_dbm] = radius
        return radius

    def _scan_horizon(
        self, tx_iface: "NetworkInterface", now: float
    ) -> tuple[float, bool]:
        """Rescan *tx_iface*'s reach horizon: ``(valid until, quiet)``.

        Quiet: the nearest other radio is at d > R, so none can enter
        reach before ``now + (d - R) / (2 · speed bound)``; under an
        unbounded speed that is ``now``, quiet for this broadcast only.
        In reach: the next scan waits :data:`NEIGHBOR_REFRESH_S`.  An
        infinite R is never quiet.
        """
        # The 1 m guard absorbs rounding in the closed-form range inverse.
        reach = self._tx_reach_m(tx_iface.config.tx_power_dbm) + 1.0
        nearest = math.inf
        if math.isfinite(reach):
            tx_pos = tx_iface.position()
            for iface in self._interfaces:
                if iface is not tx_iface:
                    nearest = min(nearest, tx_pos.distance_to(iface.position()))
                    if nearest <= reach:
                        break
        if nearest > reach:
            closing_speed = 2.0 * self._max_speed_ms
            # Alone on the air (d = ∞) or among radios that never move:
            # quiet until the next attach, which drops every horizon.
            until = (
                now + (nearest - reach) / closing_speed
                if closing_speed > 0.0 and nearest < math.inf else math.inf
            )
            horizon = (until, True)
        else:
            horizon = (now + NEIGHBOR_REFRESH_S, False)
        self._horizons[tx_iface] = horizon
        return horizon

    def _fixed_verdict(
        self, tx_iface: "NetworkInterface", tx_pos: "Vec2"
    ) -> list["NetworkInterface"]:
        """A fixed transmitter's cull verdict: its candidate list.

        Bounds each fixed receiver once, with the scalar
        :meth:`Channel.link_budget` at both fixed positions (the call the
        oracle makes), and leaves out those that fail step 1's bound.
        Both ends and every term of the bound stay as they are until the
        next attach, which drops the verdict, so they fail it on every
        broadcast until then.  The list keeps attach order and, like
        every candidate list, the transmitter.
        """
        tx_power = tx_iface.config.tx_power_dbm
        static = self._rx_static
        budget = self._channel.link_budget
        # Term for term the bound of transmit() and the batch kernel, so
        # each verdict is the float comparison they would make.
        headroom = CULL_HEADROOM_DB
        candidates: list[NetworkInterface] = []
        for rx_iface in self._interfaces:
            if rx_iface is not tx_iface:
                _, rx_gain, threshold, _, _, fixed = static[rx_iface]
                if (
                    fixed
                    and tx_power + rx_gain
                    - budget(tx_pos, rx_iface.position())[1]
                    + headroom < threshold
                ):
                    continue
            candidates.append(rx_iface)
        self._verdicts[tx_iface] = candidates
        return candidates

    def _candidates(self, tx_iface: "NetworkInterface", tx_pos: "Vec2") -> list:
        """Receivers that could possibly pass the reachability bound.

        Returns a superset of the bound-passing set, in attach order (the
        per-pair bound in :meth:`transmit` does the exact cull): every
        attached interface, except that a fixed transmitter's set leaves
        out the fixed receivers its verdict found unreachable.
        """
        if not self._fast_path or not self._rx_static[tx_iface][5]:
            return self._interfaces
        candidates = self._verdicts.get(tx_iface)
        if candidates is None:
            candidates = self._fixed_verdict(tx_iface, tx_pos)
        return candidates

    # -- transmission ---------------------------------------------------------

    def transmit(self, tx_iface: "NetworkInterface", frame: Frame, rate: WifiRate) -> float:
        """Put *frame* on the air from *tx_iface*; returns the airtime.

        Called by the interface at the instant its back-off completed; the
        interface is responsible for marking itself as transmitting for the
        returned duration.
        """
        ongoing = self._ongoing
        if tx_iface not in ongoing:
            raise MacError(f"interface {tx_iface.name!r} not attached to this medium")
        now = self._sim.now
        airtime = frame_airtime(frame.size_bytes, rate)
        self._tx_seq += 1
        tx_seq = self._tx_seq
        if self._trace is not None:
            self._trace.on_tx(now, tx_iface.node_id, frame, rate)

        # A station that starts transmitting kills anything it was receiving.
        for arrival in ongoing[tx_iface]:
            arrival.half_duplex = True

        fast = self._fast_path
        if fast:
            horizon = self._horizons.get(tx_iface)
            if horizon is None or now >= horizon[0]:
                horizon = self._scan_horizon(tx_iface, now)
            if horizon[1]:
                # Before the reach horizon: nobody can hear this frame.
                # No span either — 100k+ empty ones would flood the
                # tracer's ring buffer; the probe counts them.
                if self._obs is not None:
                    self._obs.on_unheard()
                return airtime

        end = now + airtime
        tx_pos = tx_iface.position()
        channel = self._channel
        headroom = CULL_HEADROOM_DB
        tx_power = tx_iface.config.tx_power_dbm
        tx_id = tx_iface.node_id
        candidates = self._candidates(tx_iface, tx_pos)
        finishing: list[tuple[NetworkInterface, _Arrival]] = []
        use_batch = fast and len(candidates) >= BATCH_MIN_CANDIDATES
        spans = self._spans
        if spans is not None:
            spans.begin(
                "broadcast", cat="medium", sim_time=now, tx=str(tx_id),
                candidates=len(candidates),
                path="batch" if use_batch else "scalar",
            )
        scalar_samples = 0
        if use_batch:
            self._receive_batch(
                tx_iface, candidates, frame, rate, tx_pos, tx_power, tx_id,
                now, end, tx_seq, finishing,
            )
        else:
            static = self._rx_static
            for rx_iface in candidates:
                if rx_iface is tx_iface:
                    continue
                # Same attach-time snapshot the batch gather reads, so
                # the two paths can never disagree about radio params.
                _, rx_gain, threshold, _, _, _ = static[rx_iface]
                rx_pos = rx_iface.position()
                budget = channel.link_budget(tx_pos, rx_pos)
                reachable = tx_power + rx_gain - budget[1] + headroom >= threshold
                if fast and not reachable:
                    continue  # culled without consuming any stochastic draw
                sample = channel.sample(
                    tx_id,
                    rx_iface.node_id,
                    tx_pos,
                    rx_pos,
                    tx_power,
                    rx_gain,
                    time=now,
                    tx_seq=tx_seq,
                    budget=budget,
                )
                scalar_samples += 1
                if not reachable or sample.mean_rx_power_dbm < threshold:
                    continue  # far out of range: the radio never syncs
                self._admit_arrival(
                    rx_iface, _Arrival(frame, rate, sample, now, end), finishing
                )

        if self._obs is not None:
            self._obs.on_broadcast(len(candidates), len(finishing), use_batch)
            self._obs.scalar_floor_calls.value += scalar_samples
        if spans is not None:
            spans.end(admitted=len(finishing))
        if finishing:
            # One frame-end event for the whole broadcast (the arrivals all
            # end at the same instant and carry consecutive ranks anyway).
            # URGENT so medium bookkeeping settles before normal callbacks
            # at the same instant observe the channel state.
            self._sim.schedule(
                airtime, self._finish_transmission, finishing, priority=Priority.URGENT
            )
        return airtime

    def _admit_arrival(
        self,
        rx_iface: "NetworkInterface",
        arrival: _Arrival,
        finishing: list[tuple["NetworkInterface", _Arrival]],
    ) -> None:
        """Register an in-range arrival: interference links + bookkeeping."""
        sample = arrival.sample
        # Mutual interference with everything already on the air here.
        for other in self._ongoing[rx_iface]:
            other.interferers_dbm.append(sample.rx_power_dbm)
            arrival.interferers_dbm.append(other.sample.rx_power_dbm)
        if rx_iface.transmitting:
            arrival.half_duplex = True
        self._ongoing[rx_iface].append(arrival)
        finishing.append((rx_iface, arrival))

    def _receive_batch(
        self,
        tx_iface: "NetworkInterface",
        candidates: list["NetworkInterface"],
        frame: Frame,
        rate: WifiRate,
        tx_pos: "Vec2",
        tx_power: float,
        tx_id: typing.Hashable,
        now: float,
        end: float,
        tx_seq: int,
        finishing: list[tuple["NetworkInterface", _Arrival]],
    ) -> None:
        """One vectorized cull pass over the candidate set (bit-identical).

        Gathers the candidates into flat arrays — positions unpacked
        once per Vec2, gains and cached thresholds alongside — and hands
        them to :func:`repro.radio.batch.broadcast_samples`, which culls
        every lane at once and draws the survivors (per lane below its
        crossover).  They come back as ``(candidate index, LinkSample)``
        pairs in candidate order and are admitted in that order, so
        arrival ordering (and with it interference pairing and event
        ranks) matches the scalar loop exactly.
        """
        static = self._rx_static
        scratch = self._scratch
        scratch.reserve(len(candidates))
        rx_gains = scratch.rx_gains
        rx_floors = scratch.rx_floors
        rx_ifaces: list[NetworkInterface] = []
        rx_ids: list[typing.Hashable] = []
        # Mobility batch groups: candidates whose models share a batch
        # key get their positions from one vectorized query (index list,
        # model list); everyone else queries its own model per candidate.
        groups: dict[object, tuple[list[int], list[object]]] = {}
        scalar_pos: list[int] = []
        index = 0
        for rx_iface in candidates:
            if rx_iface is tx_iface:
                continue
            rx_ifaces.append(rx_iface)
            node_id, gain, floor, key, mobility, _ = static[rx_iface]
            rx_ids.append(node_id)
            rx_gains[index] = gain
            rx_floors[index] = floor
            if key is None:
                scalar_pos.append(index)
            else:
                group = groups.get(key)
                if group is None:
                    groups[key] = ([index], [mobility])
                else:
                    group[0].append(index)
                    group[1].append(mobility)
            index += 1
        if not index:
            return
        xs = scratch.rx_xs
        ys = scratch.rx_ys
        for indices, models in groups.values():
            if len(indices) < 4:
                # Tiny group: the vectorized query's fixed overhead loses
                # to a couple of scalar calls (same values either way).
                scalar_pos.extend(indices)
                continue
            group_xs, group_ys = models[0].positions_at_time(models, now)
            lanes = np.array(indices)
            xs[lanes] = group_xs
            ys[lanes] = group_ys
        for i in scalar_pos:
            pos = rx_ifaces[i].position()
            xs[i] = pos.x
            ys[i] = pos.y
        obs_probes = self._obs
        if obs_probes is not None:
            obs_probes.lanes.observe(index)
        spans = self._spans
        if spans is not None:
            spans.begin("batch-kernel", cat="medium", lanes=index)
        survivors = broadcast_samples(
            self._channel, tx_id, rx_ids, tx_pos,
            xs[:index], ys[:index], rx_gains[:index], rx_floors[:index],
            tx_power, CULL_HEADROOM_DB, now, tx_seq,
        )
        if spans is not None:
            spans.end(kept=len(survivors))
        for i, sample in survivors:
            self._admit_arrival(
                rx_ifaces[i], _Arrival(frame, rate, sample, now, end), finishing
            )

    def _finish_transmission(
        self, finishing: list[tuple["NetworkInterface", _Arrival]]
    ) -> None:
        """Frame end for one broadcast: classify all arrivals, then deliver.

        Classification runs per arrival in arrival order, collecting the
        successful receptions into one ``delivered`` list that is handed
        to each receiver's ``iface.deliver`` once every arrival is
        classified.  Deferring delivery past classification is exact:
        channel draws are keyed per (link, transmission) and protocol
        reactions only schedule future events, so no classification can
        observe a delivery's side effects either way.
        """
        delivered: list[tuple[NetworkInterface, Frame, RxInfo]] = []
        for rx_iface, arrival in finishing:
            self._finish_arrival(rx_iface, arrival, delivered)
        if not delivered:
            return
        if self._obs is not None:
            self._obs.delivery_lanes.observe(len(delivered))
        for rx_iface, frame, info in delivered:
            rx_iface.deliver(frame, info)

    def _finish_arrival(
        self,
        rx_iface: "NetworkInterface",
        arrival: _Arrival,
        delivered: list[tuple["NetworkInterface", Frame, RxInfo]],
    ) -> None:
        """Frame end at one receiver: interference, capture, delivery draw.

        A successful reception is appended to *delivered* for the caller
        to dispatch.
        """
        self._ongoing[rx_iface].remove(arrival)
        noise_floor = rx_iface.config.noise_floor_dbm
        interferers = arrival.interferers_dbm
        if not interferers:
            noise_plus_interference = noise_floor
        else:
            noise_plus_interference = dbm_sum(noise_floor, *interferers)
        snr_db = arrival.sample.rx_power_dbm - noise_plus_interference
        if arrival.half_duplex:
            cause = LossCause.HALF_DUPLEX
        elif interferers and snr_db < rx_iface.config.capture_threshold_db:
            # Same-code DSSS interference is not suppressed by processing
            # gain: without a capture margin over the interferers the frame
            # is destroyed (classic 802.11 capture model).
            cause = LossCause.INTERFERENCE
        elif self._channel.frame_delivered(
            arrival.sample,
            arrival.rate,
            arrival.frame,
            noise_plus_interference,
            rx_id=rx_iface.node_id,
        ):
            cause = LossCause.DELIVERED
        elif interferers:
            cause = LossCause.INTERFERENCE
        else:
            cause = LossCause.CHANNEL

        if self._trace is not None:
            self._trace.on_rx(
                self._sim.now, rx_iface.node_id, arrival.frame, cause, snr_db,
                arrival.sample.rx_power_dbm,
            )
        if cause is LossCause.DELIVERED:
            delivered.append((
                rx_iface,
                arrival.frame,
                RxInfo(self._sim.now, arrival.sample.rx_power_dbm, snr_db),
            ))

    # -- carrier sense ----------------------------------------------------------

    def busy(self, iface: "NetworkInterface") -> bool:
        """Whether *iface* senses energy above its carrier-sense threshold.

        Concurrent arrivals add up in the detector: two frames each just
        below the threshold are sensed busy together, so the arrivals'
        mean powers are aggregated with :func:`~repro.units.dbm_sum`
        before the comparison.
        """
        if iface.transmitting:
            return True
        arrivals = self._ongoing[iface]
        if not arrivals:
            return False
        threshold = iface.config.carrier_sense_threshold_dbm
        if len(arrivals) == 1:
            return arrivals[0].sample.mean_rx_power_dbm >= threshold
        total = dbm_sum(*(arrival.sample.mean_rx_power_dbm for arrival in arrivals))
        return total >= threshold
