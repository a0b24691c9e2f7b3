"""The vectorized batch channel kernel.

:func:`broadcast_samples` evaluates one transmission against its whole
candidate receiver set: deterministic link budgets and the reachability
cull run as a handful of NumPy operations over every candidate lane,
then the survivors' Gudmundson lattice shadowing, keyed fading and
sensitivity filter run either vectorized or per lane, whichever is
cheaper for that many survivors.  The receivers that pass come back as
``(candidate index, LinkSample)`` pairs in candidate order, ready for the
medium to admit.  It exists because the keyed counter-based randomness
made every stochastic draw a *pure function* of
``(link, transmission)``: with no hidden stream state, the candidate set
can be evaluated in any grouping, so batching is free of semantic risk
and the kernel is pinned **bit-identical** to the scalar reference path
(``tests/scenarios/test_fast_path_ab.py``,
``tests/radio/test_batch_parity.py``).

Below :data:`DRAW_CROSSOVER` survivors each one is drawn by the scalar
:meth:`~repro.radio.channel.Channel.sample`, with the lane's budget
forwarded; at or above it one :meth:`~repro.radio.channel.Channel.sample_batch`
call draws them all.  The crossover was measured per survivor count on
the corridor (``multi_ap``) and highway (``trace``) channel stacks on a
2-vCPU Xeon host (EXPERIMENTS.md, "Draw only what survives the cull").
From 1 to 32 survivors, a pass with the vectorized draw rises from about
225 µs (mostly fixed NumPy call overhead) by about 4 µs per survivor,
and a pass with per-lane draws from about 55 µs by 15–17 µs per
survivor.  They break even at 16 survivors on the highway stack; on the
corridor stack they stay within noise of each other from 16 to 20
survivors, so the constant takes 16.

Exactness ground rules (shared by every ``*_batch`` method downstream):

* float64 arithmetic (`+ - * /`, comparisons, ``np.sqrt``/``np.floor``/
  ``minimum``/``maximum``) is evaluated elementwise in the scalar
  operation order, which IEEE-754 makes bit-identical;
* transcendentals (``log``/``log10``/``hypot``/``cos``/``sin``) go
  through :func:`repro.radio.keyed.libm_map` because NumPy's SIMD
  kernels can differ from libm in the last ulp (hardware-dependent
  dispatch);
* splitmix64 runs on uint64 lanes with explicit carry handling where the
  scalar code's unmasked Python ints grow a 65th bit
  (:func:`repro.radio.keyed._finish_mix_u64`).

The medium calls this once per transmission; everything here is
allocation-lean but *not* stateful — all memoisation lives in the models
themselves, keyed by pure values.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.geom import Vec2

from repro.radio.channel import Channel, LinkSample

#: Survivors of the reachability cull below which each one is drawn by
#: the scalar channel path instead of one vectorized pass: the measured
#: break-even on the corridor and highway channel stacks (see above).
#: It must stay above 8, so that the 8-vehicle trace round draws per lane.
DRAW_CROSSOVER = 16


class LaneScratch:
    """Preallocated gather buffers for the medium's candidate-lane tables.

    The per-broadcast gather used to build fresh ``np.array``/``np.empty``
    arrays for every transmission; with thousands of small broadcasts per
    round that small-array churn dominates the kernel's profile.  The
    medium instead fills (geometrically grown) scratch columns and hands
    ``[:n]`` views to the kernels — safe because every consumer either
    reads the lanes synchronously or copies through fancy indexing before
    the next gather reuses the buffers.
    """

    __slots__ = ("rx_xs", "rx_ys", "rx_gains", "rx_floors", "_capacity")

    def __init__(self, capacity: int = 64) -> None:
        self._capacity = 0
        self.reserve(capacity)

    def reserve(self, n: int) -> None:
        """Ensure every column holds at least *n* lanes."""
        if n <= self._capacity:
            return
        capacity = max(64, 1 << (n - 1).bit_length())
        self.rx_xs = np.empty(capacity, dtype=np.float64)
        self.rx_ys = np.empty(capacity, dtype=np.float64)
        self.rx_gains = np.empty(capacity, dtype=np.float64)
        self.rx_floors = np.empty(capacity, dtype=np.float64)
        self._capacity = capacity


def broadcast_samples(
    channel: Channel,
    tx_id: typing.Hashable,
    rx_ids: list[typing.Hashable],
    tx_pos: "Vec2",
    rx_xs: np.ndarray,
    rx_ys: np.ndarray,
    rx_gains_db: np.ndarray,
    rx_thresholds_dbm: np.ndarray,
    tx_power_dbm: float,
    headroom_db: float,
    time: float,
    tx_seq: int,
) -> list[tuple[int, LinkSample]]:
    """Evaluate one broadcast against its whole candidate set.

    Returns the receivers that pass as ``(index, sample)`` pairs in
    ascending candidate index (an index into *rx_ids* and the lane
    arrays).  It mirrors the medium's scalar per-receiver pipeline
    exactly:

    1. deterministic link budget (path loss + obstruction) per candidate;
    2. reachability bound ``tx_power + gain - loss + headroom ≥
       threshold`` — lanes failing it are culled without consuming any
       stochastic draw (keyed randomness makes that safe);
    3. shadowing + fading realisation for the survivors;
    4. sensitivity filter ``mean_rx_power ≥ threshold``.

    The scalar exhaustive path also *samples* bound-failing links before
    discarding them; because every draw is pure and side-effect-free,
    skipping those samples here changes nothing — the A/B pins prove it.
    Fewer than :data:`DRAW_CROSSOVER` survivors take step 3 through the
    scalar :meth:`Channel.sample` per lane; the keyed draws make each
    lane's value independent of that grouping.  A channel that overrides
    :meth:`Channel.sample` (a scripted realisation) is drawn per lane at
    any survivor count, so the override is honoured.  Per-lane draws
    hand over the samples :meth:`Channel.sample` returned; a vectorized
    draw builds each sample from its lane's float64 values, which
    ``tolist()`` converts exactly.
    """
    budget = channel.link_budget_batch(tx_pos, rx_xs, rx_ys)
    distances, losses = budget
    reachable = tx_power_dbm + rx_gains_db - losses + headroom_db >= rx_thresholds_dbm
    idx = np.flatnonzero(reachable)
    if idx.size == 0:
        return []
    if idx.size < DRAW_CROSSOVER or type(channel).sample is not Channel.sample:
        return _draw_per_lane(
            channel, tx_id, rx_ids, tx_pos, rx_xs, rx_ys, rx_gains_db,
            rx_thresholds_dbm, tx_power_dbm, time, tx_seq, idx, budget,
        )
    sub_ids = [rx_ids[i] for i in idx.tolist()]
    rx_power, mean_power = channel.sample_batch(
        tx_id,
        sub_ids,
        tx_pos,
        rx_xs[idx],
        rx_ys[idx],
        tx_power_dbm,
        rx_gains_db[idx],
        time,
        tx_seq,
        (distances[idx], losses[idx]),
    )
    keep = mean_power >= rx_thresholds_dbm[idx]
    kept = idx[keep]
    samples = map(
        LinkSample,
        rx_power[keep].tolist(),
        mean_power[keep].tolist(),
        distances[kept].tolist(),
    )
    return list(zip(kept.tolist(), samples))


def _draw_per_lane(
    channel: Channel,
    tx_id: typing.Hashable,
    rx_ids: list[typing.Hashable],
    tx_pos: Vec2,
    rx_xs: np.ndarray,
    rx_ys: np.ndarray,
    rx_gains_db: np.ndarray,
    rx_thresholds_dbm: np.ndarray,
    tx_power_dbm: float,
    time: float,
    tx_seq: int,
    idx: np.ndarray,
    budget: tuple[np.ndarray, np.ndarray],
) -> list[tuple[int, LinkSample]]:
    """Steps 3–4 for a few survivors: one scalar draw per lane.

    ``tolist()`` yields the lanes' exact float64 values as Python
    floats, so each :meth:`Channel.sample` call sees the same inputs as
    the medium's scalar loop would.
    """
    xs = rx_xs.tolist()
    ys = rx_ys.tolist()
    gains = rx_gains_db.tolist()
    thresholds = rx_thresholds_dbm.tolist()
    distances = budget[0].tolist()
    losses = budget[1].tolist()
    survivors: list[tuple[int, LinkSample]] = []
    for i in idx.tolist():
        sample = channel.sample(
            tx_id,
            rx_ids[i],
            tx_pos,
            Vec2(xs[i], ys[i]),
            tx_power_dbm,
            gains[i],
            time=time,
            tx_seq=tx_seq,
            budget=(distances[i], losses[i]),
        )
        if sample.mean_rx_power_dbm >= thresholds[i]:
            survivors.append((i, sample))
    return survivors
