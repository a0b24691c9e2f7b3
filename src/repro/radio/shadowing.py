"""Log-normal shadowing with Gudmundson spatial correlation.

Shadowing captures obstruction by buildings, parked cars and street
furniture.  Two properties matter for reproducing the paper:

1. **Temporal correlation** — consecutive packets on the *same* link share
   fate while the vehicle moves less than a decorrelation distance, which
   produces the burst losses visible in the per-packet reception curves
   (Figs 3–5).
2. **Link independence** — different cars behind different obstructions
   fade *independently*, which is precisely the spatial diversity that
   Cooperative ARQ converts into recovered packets.

Both models here realise their process from *keyed* randomness
(:mod:`repro.radio.keyed`): the value on a link is a pure function of the
link, the geometry (or time) and the round epoch — never of how often or
in which order links were sampled.  That invariance is what lets the
medium's reception fast path cull out-of-range links without perturbing
any other link's realisation:

* :class:`GudmundsonShadowing` is a frozen spatial random field — a unit
  Gaussian lattice with cell size equal to the decorrelation distance,
  interpolated and re-normalised to keep the marginal exactly
  ``N(0, σ²)``.  The lattice is indexed by the summed endpoint position
  *and* the endpoint separation, so any relative movement — a follower
  trailing the AP, or two cars passing head-on (where the position sum
  is stationary but the separation sweeps) — walks into fresh cells at
  the summed-displacement rate, reproducing Gudmundson's (1991)
  ``ρ(Δd) ≈ exp(-Δd/d_corr)`` roll-off; a stationary link keeps its
  value; both indices are symmetric in tx/rx, so the field is
  reciprocal by construction.
* :class:`TemporalTxShadowing` is an Ornstein–Uhlenbeck chain realised on
  a fixed time grid with keyed innovations, advanced lazily to the
  queried instant.

Values are clamped to ``±clamp_sigmas·σ`` (default 4σ, clipping
probability ~6e-5 per draw); the clamps shape the values and nothing
else.  The medium's reachability bound does not read them: it grants a
fixed :data:`~repro.mac.medium.CULL_HEADROOM_DB` of shadowing boost, an
approximation of the exact bound, which is the clamps summed over the
components.
"""

from __future__ import annotations

import abc
import math
from typing import Hashable

import numpy as np

from repro.errors import RadioError
from repro.geom import Vec2
from repro.radio.keyed import KeyedRandom, stable_hash64

LinkKey = tuple[Hashable, Hashable]

#: Corner offsets of one lattice cell, in the exact order the scalar
#: trilinear expression visits them: x fastest, then y, then z.
_CORNER_DX = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
_CORNER_DY = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=np.int64)
_CORNER_DZ = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)


class ShadowingModel(abc.ABC):
    """Interface: per-link, position- and time-indexed shadowing in dB."""

    __slots__ = ()

    @abc.abstractmethod
    def sample_db(
        self, link: LinkKey, tx_pos: Vec2, rx_pos: Vec2, time: float = 0.0
    ) -> float:
        """Shadowing value (dB, may be negative) for a packet on *link*.

        Implementations must be pure in ``(link, positions, time)``
        between :meth:`reset` calls; *link* must be symmetric (callers
        normalise the endpoint order) so the channel is reciprocal.
        """

    def sample_db_batch(
        self,
        links: list[LinkKey],
        link_hashes: np.ndarray,
        tx_pos: Vec2,
        rx_xs: np.ndarray,
        rx_ys: np.ndarray,
        distances_m: np.ndarray,
        time: float = 0.0,
    ) -> np.ndarray:
        """Shadowing for a whole candidate set of one broadcast.

        *link_hashes* carries ``stable_hash64(link)`` per candidate (the
        channel already memoises them) and *distances_m* the exact
        tx→rx distances, so vectorized models need no per-link Python
        work.  Must be bit-identical to mapping :meth:`sample_db`; this
        fallback does exactly that, which also keeps stateful models
        (the lazily advanced OU chain) trivially correct.
        """
        out = np.empty(len(links), dtype=np.float64)
        xs = rx_xs.tolist()
        ys = rx_ys.tolist()
        for i, link in enumerate(links):
            out[i] = self.sample_db(link, tx_pos, Vec2(xs[i], ys[i]), time)
        return out

    def reset(self) -> None:
        """Start a fresh realisation (called between simulation rounds)."""


class NoShadowing(ShadowingModel):
    """Deterministic zero shadowing — for unit tests and calibration."""

    __slots__ = ()

    def sample_db(
        self, link: LinkKey, tx_pos: Vec2, rx_pos: Vec2, time: float = 0.0
    ) -> float:
        return 0.0

    def sample_db_batch(
        self, links, link_hashes, tx_pos, rx_xs, rx_ys, distances_m, time=0.0
    ) -> np.ndarray:
        return np.zeros(len(links), dtype=np.float64)

    def reset(self) -> None:  # no state
        return None


class GudmundsonShadowing(ShadowingModel):
    """Spatially correlated log-normal shadowing as a frozen keyed field.

    Parameters
    ----------
    rng:
        Source of the field seed (a dedicated stream, see
        :class:`repro.sim.RandomStreams`).
    sigma_db:
        Standard deviation of the shadowing process (4–8 dB urban).
    decorrelation_distance_m:
        Lattice cell size: correlation decays over roughly this distance
        of summed endpoint movement, after Gudmundson (1991).
    clamp_sigmas:
        Values are clipped to ``±clamp_sigmas·sigma_db``.

    Notes
    -----
    The value for a link is ``σ·Σ wᵢ gᵢ / ‖w‖₂`` over the eight unit
    Gaussians ``gᵢ`` anchored at the corners of the lattice cell in
    ``(summed position, separation)`` space, with trilinear weights
    ``wᵢ``; the ``‖w‖₂`` renormalisation keeps the marginal exactly
    ``N(0, σ²)`` everywhere.  Each ``gᵢ`` is a pure function of
    ``(link, epoch, corner)``, so the field is deterministic per round
    no matter which links the medium samples or skips.
    """

    __slots__ = (
        "_keyed",
        "sigma_db",
        "decorrelation_distance_m",
        "clamp_sigmas",
        "_epoch",
        "_link_hashes",
        "_corner_blocks",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        sigma_db: float = 6.0,
        decorrelation_distance_m: float = 15.0,
        clamp_sigmas: float = 4.0,
    ) -> None:
        if sigma_db < 0.0:
            raise RadioError(f"shadowing sigma must be >= 0, got {sigma_db!r}")
        if decorrelation_distance_m <= 0.0:
            raise RadioError("decorrelation distance must be positive")
        self._keyed = KeyedRandom.from_rng(rng)
        self.sigma_db = sigma_db
        self.decorrelation_distance_m = decorrelation_distance_m
        self.clamp_sigmas = clamp_sigmas
        self._epoch = 0
        self._link_hashes: dict[LinkKey, int] = {}
        # link hash → (ix, iy, iz, block) of the lattice cell the link
        # was last sampled in, the block being that cell's eight corner
        # Gaussians in trilinear order: a pure memo of keyed values that
        # the scalar and batch paths share.  Consecutive frames of a
        # moving link live in the same cell for ~d_corr/speed seconds, so
        # one cell's draws are reused hundreds of times, and a link that
        # leaves a cell seldom comes back: one entry per link is all that
        # is read again.  Tuples assemble into the batch kernel's (n, 8)
        # matrix with a single np.array call.
        self._corner_blocks: dict[
            int, tuple[int, int, int, tuple[float, ...]]
        ] = {}

    def _link_hash(self, link: LinkKey) -> int:
        cached = self._link_hashes.get(link)
        if cached is None:
            cached = stable_hash64(link)
            self._link_hashes[link] = cached
        return cached

    def _corner_block(
        self, h: int, ix: int, iy: int, iz: int
    ) -> tuple[int, int, int, tuple[float, ...]]:
        """Draw one cell's eight corner Gaussians and memoise them as the
        link's cell (the memo's miss path)."""
        normal = self._keyed.normal
        epoch = self._epoch
        block = (
            normal(h, epoch, ix, iy, iz),
            normal(h, epoch, ix + 1, iy, iz),
            normal(h, epoch, ix, iy + 1, iz),
            normal(h, epoch, ix + 1, iy + 1, iz),
            normal(h, epoch, ix, iy, iz + 1),
            normal(h, epoch, ix + 1, iy, iz + 1),
            normal(h, epoch, ix, iy + 1, iz + 1),
            normal(h, epoch, ix + 1, iy + 1, iz + 1),
        )
        cell = self._corner_blocks[h] = (ix, iy, iz, block)
        return cell

    def sample_db(
        self, link: LinkKey, tx_pos: Vec2, rx_pos: Vec2, time: float = 0.0
    ) -> float:
        inv_cell = 1.0 / self.decorrelation_distance_m
        # Two symmetric geometry indices: the summed endpoint position
        # (decorrelates co-moving and single-mover links) and the
        # separation (decorrelates head-on passes, where the sum is
        # stationary but the endpoints sweep past each other).
        sx = (tx_pos.x + rx_pos.x) * inv_cell
        sy = (tx_pos.y + rx_pos.y) * inv_cell
        sz = tx_pos.distance_to(rx_pos) * inv_cell
        ix = math.floor(sx)
        iy = math.floor(sy)
        iz = math.floor(sz)
        fx = sx - ix
        fy = sy - iy
        fz = sz - iz
        h = self._link_hash(link)
        gx = 1.0 - fx
        gy = 1.0 - fy
        gz = 1.0 - fz
        cell = self._corner_blocks.get(h)
        if cell is None or cell[0] != ix or cell[1] != iy or cell[2] != iz:
            cell = self._corner_block(h, ix, iy, iz)
        c000, c100, c010, c110, c001, c101, c011, c111 = cell[3]
        mix = gz * (
            gx * gy * c000
            + fx * gy * c100
            + gx * fy * c010
            + fx * fy * c110
        ) + fz * (
            gx * gy * c001
            + fx * gy * c101
            + gx * fy * c011
            + fx * fy * c111
        )
        # Trilinear weights factorise, so ‖w‖₂² does too.
        norm = math.sqrt(
            (gx * gx + fx * fx) * (gy * gy + fy * fy) * (gz * gz + fz * fz)
        )
        value = self.sigma_db * mix / norm
        cap = self.clamp_sigmas * self.sigma_db
        return min(max(value, -cap), cap)

    def sample_db_batch(
        self,
        links: list[LinkKey],
        link_hashes: np.ndarray,
        tx_pos: Vec2,
        rx_xs: np.ndarray,
        rx_ys: np.ndarray,
        distances_m: np.ndarray,
        time: float = 0.0,
    ) -> np.ndarray:
        """Vectorized :meth:`sample_db` for one broadcast's candidate set.

        Same math, array-shaped: the lattice indices, trilinear weights
        and renormalisation evaluate in NumPy with the scalar operation
        order preserved; the eight corner Gaussians come from
        :meth:`_corner_block_matrix` (keyed draws memoised per link).
        *distances_m* must be the exact ``tx_pos.distance_to(rx_pos)``
        values (the channel's link budget already computed them).
        """
        if len(links) == 0:
            return np.zeros(0, dtype=np.float64)
        inv_cell = 1.0 / self.decorrelation_distance_m
        sx = (tx_pos.x + rx_xs) * inv_cell
        sy = (tx_pos.y + rx_ys) * inv_cell
        sz = distances_m * inv_cell
        ixf = np.floor(sx)
        iyf = np.floor(sy)
        izf = np.floor(sz)
        fx = sx - ixf
        fy = sy - iyf
        fz = sz - izf
        corners = self._corner_block_matrix(
            link_hashes,
            ixf.astype(np.int64),
            iyf.astype(np.int64),
            izf.astype(np.int64),
        )
        gx = 1.0 - fx
        gy = 1.0 - fy
        gz = 1.0 - fz
        mix = gz * (
            gx * gy * corners[0]
            + fx * gy * corners[1]
            + gx * fy * corners[2]
            + fx * fy * corners[3]
        ) + fz * (
            gx * gy * corners[4]
            + fx * gy * corners[5]
            + gx * fy * corners[6]
            + fx * fy * corners[7]
        )
        norm = np.sqrt(
            (gx * gx + fx * fx) * (gy * gy + fy * fy) * (gz * gz + fz * fz)
        )
        value = self.sigma_db * mix / norm
        cap = self.clamp_sigmas * self.sigma_db
        return np.minimum(np.maximum(value, -cap), cap)

    def _corner_block_matrix(
        self, link_hashes: np.ndarray, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
    ) -> np.ndarray:
        """The ``(8, n)`` corner Gaussians for each candidate's cell.

        A candidate still in the cell its link was last sampled in
        resolves with one memo probe; all others evaluate as a single
        ``(8, m)`` vectorized keyed draw and become their links' cells.
        """
        n = ix.shape[0]
        cells = self._corner_blocks
        h_list = link_hashes.tolist()
        ix_list = ix.tolist()
        iy_list = iy.tolist()
        iz_list = iz.tolist()
        rows: list[tuple[float, ...] | None] = [None] * n
        misses: list[int] = []
        for i in range(n):
            cell = cells.get(h_list[i])
            if (
                cell is None
                or cell[0] != ix_list[i]
                or cell[1] != iy_list[i]
                or cell[2] != iz_list[i]
            ):
                misses.append(i)
            else:
                rows[i] = cell[3]
        if misses:
            miss_idx = np.array(misses)
            values = self._keyed.normal_batch(
                [
                    link_hashes[miss_idx],
                    self._epoch,
                    ix[miss_idx] + _CORNER_DX[:, None],
                    iy[miss_idx] + _CORNER_DY[:, None],
                    iz[miss_idx] + _CORNER_DZ[:, None],
                ],
                (8, len(misses)),
            )
            for j, i in enumerate(misses):
                block = tuple(values[:, j].tolist())
                cells[h_list[i]] = (ix_list[i], iy_list[i], iz_list[i], block)
                rows[i] = block
        return np.array(rows, dtype=np.float64).T

    def reset(self) -> None:
        self._epoch += 1
        self._corner_blocks.clear()


class TemporalTxShadowing(ShadowingModel):
    """Transmitter-side time-correlated shadowing, shared by all links.

    Models obstruction events local to the transmitter — pedestrians and
    vehicles passing in front of the testbed's first-floor window antenna.
    Because the process is keyed by the *transmitter*, a deep dip hits
    every receiver at once: this is the common-mode loss component that
    makes different cars lose the *same* packets (the paper's joint-loss
    floor in Figs 6–8).  It evolves as an Ornstein–Uhlenbeck chain with
    correlation time ``tau_s``, realised on a fixed grid of
    ``tau_s / 4``-second steps with keyed innovations and advanced lazily
    to the queried instant (so the value at a time is independent of the
    sampling pattern).

    Per-link diversity still comes from :class:`GudmundsonShadowing`;
    compose the two with :class:`CompositeShadowing`.
    """

    __slots__ = (
        "_keyed",
        "sigma_db",
        "tau_s",
        "clamp_sigmas",
        "_hub",
        "_step_s",
        "_rho",
        "_innovation_scale",
        "_epoch",
        "_state",
    )

    #: Grid steps per correlation time; within one step the process is
    #: constant, matching the sub-coherence packet spacing of the flows.
    _STEPS_PER_TAU = 4

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        sigma_db: float = 4.0,
        tau_s: float = 2.0,
        hub: Hashable | None = None,
        clamp_sigmas: float = 4.0,
    ) -> None:
        if sigma_db < 0.0:
            raise RadioError(f"shadowing sigma must be >= 0, got {sigma_db!r}")
        if tau_s <= 0.0:
            raise RadioError("correlation time must be positive")
        self._keyed = KeyedRandom.from_rng(rng)
        self.sigma_db = sigma_db
        self.tau_s = tau_s
        self.clamp_sigmas = clamp_sigmas
        self._hub = hub
        self._step_s = tau_s / self._STEPS_PER_TAU
        rho = math.exp(-1.0 / self._STEPS_PER_TAU)
        self._rho = rho
        self._innovation_scale = math.sqrt(max(0.0, 1.0 - rho * rho))
        self._epoch = 0
        # process key → (hash, last grid index, value there) — a pure
        # cache: values are deterministic in (key, epoch, grid index).
        self._state: dict[Hashable, tuple[int, int, float]] = {}

    def _process_key(self, link: LinkKey) -> Hashable:
        """All links touching the hub share one process; others are per-link."""
        if self._hub is not None and self._hub in link:
            return self._hub
        return link

    def sample_db(
        self, link: LinkKey, tx_pos: Vec2, rx_pos: Vec2, time: float = 0.0
    ) -> float:
        return self._value_at(
            self._process_key(link), max(0, math.floor(time / self._step_s))
        )

    def _value_at(self, key: Hashable, k: int) -> float:
        """The process value at grid step *k* (pure in key, epoch, k)."""
        cached = self._state.get(key)
        if cached is None or cached[1] > k:
            h = cached[0] if cached is not None else stable_hash64(key)
            j, value = 0, self._clamp(self.sigma_db * self._keyed.normal(h, self._epoch, 0))
        else:
            h, j, value = cached
        sigma_innovation = self._innovation_scale * self.sigma_db
        while j < k:
            j += 1
            value = self._clamp(
                self._rho * value
                + sigma_innovation * self._keyed.normal(h, self._epoch, j)
            )
        self._state[key] = (h, k, value)
        return value

    def sample_db_batch(
        self, links, link_hashes, tx_pos, rx_xs, rx_ys, distances_m, time=0.0
    ) -> np.ndarray:
        """Batch evaluation: all innovations of the set in one keyed draw.

        All lanes share the grid step, so every link touching the hub —
        the whole candidate set when the AP transmits — resolves to one
        process value.  Distinct processes that need advancing (or
        initialising) pool their keyed innovations into a single
        vectorized draw; the cheap ``clamp(ρ·v + σ·z)`` recurrence then
        runs per process on those bit-identical variates, so the values
        match the scalar chain exactly (it is pure in
        ``(key, epoch, step)``).
        """
        k = max(0, math.floor(time / self._step_s))
        n = len(links)
        out = np.empty(n, dtype=np.float64)
        hub = self._hub
        state = self._state
        # Process key → resolved value (float) or pending lane list.
        seen: dict[Hashable, float | list[int]] = {}
        pending = False
        for i, link in enumerate(links):
            key = hub if (hub is not None and hub in link) else link
            entry = seen.get(key)
            if entry is None:
                cached = state.get(key)
                if cached is not None and cached[1] == k:
                    value = cached[2]
                    seen[key] = value
                    out[i] = value
                else:
                    seen[key] = [i]
                    pending = True
            elif type(entry) is list:
                entry.append(i)
            else:
                out[i] = entry
        if pending:
            self._advance_batch(
                {key: v for key, v in seen.items() if type(v) is list}, k, out
            )
        return out

    def _advance_batch(
        self, pending: dict[Hashable, list[int]], k: int, out: np.ndarray
    ) -> None:
        """Advance (or start) each pending process to step *k* at once.

        The keyed innovations ``normal(h, epoch, j)`` for every needed
        ``(process, step)`` pair are drawn as one vectorized batch — they
        are pure, so pooling them changes nothing — and the sequential
        clamp recurrence consumes them per process in scalar float64,
        exactly as :meth:`_value_at` would.
        """
        state = self._state
        starts: list[int] = []  # first innovation step needed per process
        hashes: list[int] = []
        values: list[float] = []
        for key in pending:
            cached = state.get(key)
            if cached is None or cached[1] > k:
                h = cached[0] if cached is not None else stable_hash64(key)
                starts.append(0)
                hashes.append(h)
                values.append(0.0)  # seeded by the j=0 draw below
            else:
                h, j, value = cached
                starts.append(j + 1)
                hashes.append(h)
                values.append(value)
        h_arr = np.array(hashes, dtype=np.uint64)
        if all(start == k for start in starts):
            # Common steady-state shape: every stale process advances by
            # exactly one grid step — one draw per process, no ragged
            # index assembly.
            draws = self._keyed.normal_batch(
                [h_arr, self._epoch, k], (len(starts),)
            ).tolist()
        else:
            counts = [k - start + 1 for start in starts]
            h_flat = np.repeat(h_arr, counts)
            steps: list[int] = []
            for start in starts:
                steps.extend(range(start, k + 1))
            j_flat = np.array(steps, dtype=np.int64)
            draws = self._keyed.normal_batch(
                [h_flat, self._epoch, j_flat], (h_flat.shape[0],)
            ).tolist()
        clamp = self._clamp
        rho = self._rho
        sigma_innovation = self._innovation_scale * self.sigma_db
        offset = 0
        for index, (key, lanes) in enumerate(pending.items()):
            start = starts[index]
            value = values[index]
            for step in range(start, k + 1):
                z = draws[offset]
                offset += 1
                if step == 0:
                    value = clamp(self.sigma_db * z)
                else:
                    value = clamp(rho * value + sigma_innovation * z)
            state[key] = (hashes[index], k, value)
            for lane in lanes:
                out[lane] = value

    def _clamp(self, value: float) -> float:
        cap = self.clamp_sigmas * self.sigma_db
        return min(max(value, -cap), cap)

    def reset(self) -> None:
        self._epoch += 1
        self._state.clear()


class CompositeShadowing(ShadowingModel):
    """Sum of independent shadowing components.

    Typical use: ``CompositeShadowing([per_link, tx_common])`` where the
    per-link component carries spatial diversity across cars and the
    common component carries the shared AP-side variation.
    """

    __slots__ = ("components",)

    def __init__(self, components: list[ShadowingModel]) -> None:
        if not components:
            raise RadioError("CompositeShadowing needs at least one component")
        self.components = list(components)

    def sample_db(
        self, link: LinkKey, tx_pos: Vec2, rx_pos: Vec2, time: float = 0.0
    ) -> float:
        total = 0.0
        for component in self.components:
            total += component.sample_db(link, tx_pos, rx_pos, time)
        return total

    def sample_db_batch(
        self, links, link_hashes, tx_pos, rx_xs, rx_ys, distances_m, time=0.0
    ) -> np.ndarray:
        # Accumulates from zeros in component order, matching the scalar
        # ``0.0 + a + b`` summation bit for bit.
        total = np.zeros(len(links), dtype=np.float64)
        for component in self.components:
            total = total + component.sample_db_batch(
                links, link_hashes, tx_pos, rx_xs, rx_ys, distances_m, time
            )
        return total

    def reset(self) -> None:
        for component in self.components:
            component.reset()
