"""The channel façade queried by the MAC's shared medium.

For every transmitted frame and every potential receiver the
:class:`Channel` combines path loss, correlated shadowing and per-frame
fading into one received-power figure, from which the medium derives
carrier-sense levels, SINR and frame-error draws.

The deterministic part of the link budget (distance, path loss,
obstruction) is exposed separately via :meth:`Channel.link_budget`, so
the medium can bound a receiver's best-case power — and cull hopeless
links — *before* any stochastic component is evaluated.  The stochastic
components (shadowing, fading) draw keyed randomness per
``(link, transmission)`` (see :mod:`repro.radio.keyed`), so a culled link
never perturbs another link's realisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.geom import Vec2
from repro.radio.error_models import frame_error_rate
from repro.radio.fading import FadingModel, NoFading
from repro.radio.keyed import hypot_map, stable_hash64
from repro.radio.modulation import WifiRate
from repro.radio.obstruction import NoObstruction, ObstructionModel
from repro.radio.pathloss import LogDistancePathLoss, PathLossModel
from repro.radio.shadowing import NoShadowing, ShadowingModel


@dataclass(frozen=True, slots=True)
class LinkSample:
    """One channel realisation for a frame on a link.

    Attributes
    ----------
    rx_power_dbm:
        Received signal power (after path loss, shadowing and fading).
    mean_rx_power_dbm:
        Received power *without* the per-frame fading draw — used for
        carrier sensing, which averages over small-scale fading.
    distance_m:
        Link distance at transmission time.
    """

    rx_power_dbm: float
    mean_rx_power_dbm: float
    distance_m: float


class Channel:
    """Combines propagation effects into per-frame link samples.

    Parameters
    ----------
    pathloss:
        Large-scale model (shared by all links).
    shadowing:
        Spatially-correlated medium-scale model (stateful per link).
    fading:
        Per-frame small-scale model.
    obstruction:
        Geometry-dependent extra loss (building blockage).
    rng:
        Stream for the frame-error Bernoulli draws.
    """

    __slots__ = (
        "pathloss",
        "shadowing",
        "fading",
        "obstruction",
        "_rng",
        "_links",
    )

    def __init__(
        self,
        *,
        pathloss: PathLossModel | None = None,
        shadowing: ShadowingModel | None = None,
        fading: FadingModel | None = None,
        obstruction: ObstructionModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.pathloss = pathloss if pathloss is not None else LogDistancePathLoss()
        self.shadowing = shadowing if shadowing is not None else NoShadowing()
        self.fading = fading if fading is not None else NoFading()
        self.obstruction = obstruction if obstruction is not None else NoObstruction()
        # repro: lint-ok RPL101 (ad-hoc convenience fallback only; every scenario builder injects a RandomStreams-derived generator)
        self._rng = rng if rng is not None else np.random.default_rng()
        # (tx_id, rx_id) → (canonical link key, stable 64-bit link hash);
        # pure values, memoised off the per-frame hot path.
        self._links: dict[tuple[Hashable, Hashable], tuple[tuple, int]] = {}

    @staticmethod
    def link_key(node_a: Hashable, node_b: Hashable) -> tuple[Hashable, Hashable]:
        """Canonical (order-independent) link identifier for reciprocity."""
        return (node_a, node_b) if repr(node_a) <= repr(node_b) else (node_b, node_a)

    def _link(self, tx_id: Hashable, rx_id: Hashable) -> tuple[tuple, int]:
        cached = self._links.get((tx_id, rx_id))
        if cached is None:
            key = self.link_key(tx_id, rx_id)
            cached = (key, stable_hash64(key))
            self._links[(tx_id, rx_id)] = cached
        return cached

    # -- deterministic link budget -------------------------------------------

    def link_budget(self, tx_pos: Vec2, rx_pos: Vec2) -> tuple[float, float]:
        """``(distance_m, base_loss_db)`` — the deterministic budget part.

        ``base_loss_db`` is path loss plus obstruction; shadowing and
        fading are not included, so ``tx_power + rx_gain - base_loss_db``
        is the link's mean received power before any stochastic draw.

        It must be a pure function of the two positions, and so must an
        override.  The oracle, the batch kernel and the medium's cull
        verdict for fixed radios all rely on that: the oracle and the
        kernel get the same budget for the same pair, and a verdict
        taken once holds for as long as both ends stay where they are.
        """
        distance = tx_pos.distance_to(rx_pos)
        loss = self.pathloss.loss_db(distance)
        loss += self.obstruction.extra_loss_db(tx_pos, rx_pos)
        return distance, loss

    def link_budget_batch(
        self, tx_pos: Vec2, rx_xs: np.ndarray, rx_ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`link_budget` for a whole candidate set, bit-identically.

        Returns ``(distances_m, base_losses_db)`` arrays aligned with the
        candidate order.  Distances use the same libm ``hypot`` as
        :meth:`Vec2.distance_to`, losses the models' pinned batch paths.
        Subclasses that override :meth:`link_budget` (scripted physics in
        protocol tests) are honoured by falling back to the scalar call
        per candidate.
        """
        if type(self).link_budget is not Channel.link_budget:
            pairs = [
                self.link_budget(tx_pos, Vec2(x, y))
                for x, y in zip(rx_xs.tolist(), rx_ys.tolist())
            ]
            return (
                np.array([d for d, _ in pairs]),
                np.array([loss for _, loss in pairs]),
            )
        distances = hypot_map(tx_pos.x - rx_xs, tx_pos.y - rx_ys)
        losses = self.pathloss.loss_db_batch(distances)
        losses = losses + self.obstruction.extra_loss_db_batch(tx_pos, rx_xs, rx_ys)
        return distances, losses

    def max_range_m(self, max_loss_db: float) -> float:
        """Largest distance whose *path* loss stays within *max_loss_db*.

        Obstruction only ever adds loss, so this is a conservative
        (never-too-small) radius for the medium's reach horizon.
        """
        return self.pathloss.range_for_loss(max_loss_db)

    # -- stochastic realisation ----------------------------------------------

    def sample(
        self,
        tx_id: Hashable,
        rx_id: Hashable,
        tx_pos: Vec2,
        rx_pos: Vec2,
        tx_power_dbm: float,
        rx_gain_db: float = 0.0,
        time: float = 0.0,
        *,
        tx_seq: int,
        budget: tuple[float, float] | None = None,
    ) -> LinkSample:
        """Draw the channel realisation for one frame on one link.

        ``tx_seq`` is the medium's per-transmission counter.  The fading
        draw is keyed by ``(link, tx_seq)`` and shadowing by the link,
        the positions and *time*, so the sample is a pure function of its
        arguments: calling it twice with the same ones returns the same
        sample.  ``budget`` forwards a precomputed :meth:`link_budget` so
        the deterministic part is not evaluated twice.
        """
        if budget is None:
            budget = self.link_budget(tx_pos, rx_pos)
        distance, loss = budget
        link, link_hash = self._link(tx_id, rx_id)
        shadow = self.shadowing.sample_db(link, tx_pos, rx_pos, time)
        mean_power = tx_power_dbm + rx_gain_db - loss - shadow
        fade = self.fading.sample_db((link_hash, tx_seq))
        return LinkSample(
            rx_power_dbm=mean_power + fade,
            mean_rx_power_dbm=mean_power,
            distance_m=distance,
        )

    def sample_batch(
        self,
        tx_id: Hashable,
        rx_ids: list[Hashable],
        tx_pos: Vec2,
        rx_xs: np.ndarray,
        rx_ys: np.ndarray,
        tx_power_dbm: float,
        rx_gains_db: np.ndarray,
        time: float,
        tx_seq: int,
        budget: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one transmission's realisation toward many receivers.

        The batch counterpart of :meth:`sample`: returns
        ``(rx_power_dbm, mean_rx_power_dbm)`` arrays aligned with
        *rx_ids*, each lane bit-identical to the scalar call for that
        link (the keyed draws make the decomposition exact).  *budget*
        forwards the :meth:`link_budget_batch` result.  It does not call
        an overridden :meth:`sample`;
        :func:`~repro.radio.batch.broadcast_samples` draws such channels
        per lane instead.
        """
        distances, losses = budget
        links: list[tuple] = []
        hash_list: list[int] = []
        cache_get = self._links.get
        for rx_id in rx_ids:
            cached = cache_get((tx_id, rx_id))
            if cached is None:
                cached = self._link(tx_id, rx_id)
            links.append(cached[0])
            hash_list.append(cached[1])
        link_hashes = np.array(hash_list, dtype=np.uint64)
        shadow = self.shadowing.sample_db_batch(
            links, link_hashes, tx_pos, rx_xs, rx_ys, distances, time
        )
        mean_power = tx_power_dbm + rx_gains_db - losses - shadow
        fade = self.fading.sample_db_batch(link_hashes, tx_seq)
        return mean_power + fade, mean_power

    def frame_delivered(
        self,
        sample: LinkSample,
        rate: WifiRate,
        frame: object,
        noise_plus_interference_dbm: float,
        rx_id: Hashable | None = None,
    ) -> bool:
        """Bernoulli frame-delivery outcome given the link sample and SINR.

        *frame* (anything with ``size_bytes``) and *rx_id* are passed so
        subclasses can implement scripted per-frame/per-receiver outcomes
        for deterministic protocol tests.
        """
        sinr_db = sample.rx_power_dbm - noise_plus_interference_dbm
        size_bytes = getattr(frame, "size_bytes")
        fer = frame_error_rate(rate, sinr_db, size_bytes)
        return bool(self._rng.random() >= fer)

    def reset(self) -> None:
        """Clear per-link shadowing state (between rounds)."""
        self.shadowing.reset()
