"""Intelligent Driver Model (IDM) platoon integration.

Treiber's IDM gives the acceleration of a vehicle following a leader at
gap ``s`` with speed ``v`` and approach rate ``Δv``:

    a = a_max · [ 1 − (v/v₀)⁴ − (s*/s)² ]
    s* = s₀ + v·T + v·Δv / (2·√(a_max·b))

The platoon leader follows the track's target-speed profile; each follower
follows its predecessor.  Per-driver parameters plus white acceleration
noise reproduce the round-to-round variability of the human drivers in the
testbed (including the paper's "inexperienced driver of car 2" anecdote:
a timid parameter set brakes earlier at corners, letting car 3 close up).

The integrator produces :class:`~repro.mobility.base.TraceMobility`
trajectories, decoupling vehicle dynamics from the event-driven network
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import MobilityError
from repro.geom import Polyline
from repro.mobility.base import TraceMobility
from repro.mobility.profile import CurvatureSpeedProfile


@dataclass(frozen=True)
class IdmParameters:
    """Treiber IDM parameters for one driver.

    Attributes
    ----------
    max_acceleration:
        ``a_max`` [m/s²].
    comfortable_deceleration:
        ``b`` [m/s²].
    desired_time_headway:
        ``T`` [s].
    minimum_gap:
        ``s₀`` [m] (bumper-to-bumper standstill gap).
    vehicle_length:
        Used to convert front-bumper positions into gaps [m].
    """

    max_acceleration: float = 1.5
    comfortable_deceleration: float = 2.0
    desired_time_headway: float = 1.4
    minimum_gap: float = 2.0
    vehicle_length: float = 4.5

    def __post_init__(self) -> None:
        if min(
            self.max_acceleration,
            self.comfortable_deceleration,
            self.desired_time_headway,
            self.minimum_gap,
            self.vehicle_length,
        ) <= 0.0:
            raise MobilityError("all IDM parameters must be positive")


@dataclass(frozen=True)
class DriverProfile:
    """A driver: IDM parameters plus behavioural noise.

    Attributes
    ----------
    idm:
        Car-following parameters.
    speed_factor:
        Multiplier on the track target speed (a timid driver < 1).
    acceleration_noise_std:
        White acceleration noise [m/s²] integrated into the dynamics.
    """

    idm: IdmParameters = IdmParameters()
    speed_factor: float = 1.0
    acceleration_noise_std: float = 0.15

    def __post_init__(self) -> None:
        if self.speed_factor <= 0.0:
            raise MobilityError("speed factor must be positive")
        if self.acceleration_noise_std < 0.0:
            raise MobilityError("noise std must be >= 0")

    def timid(self) -> "DriverProfile":
        """A more cautious variant (the paper's car-2 driver).

        Timidity is expressed through a longer desired headway and gentler
        acceleration — *not* a lower cruise speed, which would make the
        platoon drift apart indefinitely instead of stretching at corners
        and re-compacting on straights like the real cars did.
        """
        return replace(
            self,
            idm=replace(
                self.idm,
                max_acceleration=self.idm.max_acceleration * 0.7,
                desired_time_headway=self.idm.desired_time_headway * 1.5,
            ),
        )

    def aggressive(self) -> "DriverProfile":
        """A tighter-following variant (the paper's car-3 driver at corner C)."""
        return replace(
            self,
            idm=replace(
                self.idm,
                max_acceleration=self.idm.max_acceleration * 1.2,
                desired_time_headway=self.idm.desired_time_headway * 0.6,
                minimum_gap=self.idm.minimum_gap * 0.8,
            ),
        )


def _idm_acceleration(
    params: IdmParameters,
    speed: float,
    target_speed: float,
    gap: float | None,
    approach_rate: float,
) -> float:
    """IDM acceleration; ``gap=None`` means free road (the leader)."""
    target_speed = max(target_speed, 0.1)
    free_term = 1.0 - (speed / target_speed) ** 4
    if gap is None:
        return params.max_acceleration * free_term
    gap = max(gap, 0.1)
    desired_gap = (
        params.minimum_gap
        + speed * params.desired_time_headway
        + speed * approach_rate / (2.0 * math.sqrt(
            params.max_acceleration * params.comfortable_deceleration
        ))
    )
    desired_gap = max(desired_gap, params.minimum_gap)
    interaction = (desired_gap / gap) ** 2
    return params.max_acceleration * (free_term - interaction)


def simulate_platoon(
    track: Polyline,
    profile: CurvatureSpeedProfile,
    drivers: list[DriverProfile],
    *,
    duration: float,
    rng: np.random.Generator,
    dt: float = 0.1,
    initial_gap: float = 12.0,
    lead_start_arc: float = 0.0,
) -> list[TraceMobility]:
    """Integrate a platoon and return one trajectory per car.

    Cars are returned leader-first (car 1, car 2, …); car *i* starts
    ``i · initial_gap`` metres behind the leader.

    The acceleration noise of the whole run is drawn by one
    ``rng.normal`` call, a ``(steps − 1) × n`` array filled in C order:
    the same variates in the same order as one size-*n* draw per step,
    leaving *rng* in the same state.  The integrator then steps Python
    floats, whose IEEE arithmetic (and libm ``pow``) gives the bits the
    same expressions give on NumPy scalars.

    Parameters
    ----------
    track:
        Road to drive (closed = keep lapping).
    profile:
        Target-speed profile the leader follows.
    drivers:
        One profile per car (at least one).
    duration:
        Simulated horizon [s].
    rng:
        Randomness for acceleration noise (one stream per round gives
        independent rounds).
    dt:
        Integration step [s].
    initial_gap:
        Initial front-bumper spacing [m].
    lead_start_arc:
        Leader's initial arc-length position.
    """
    if not drivers:
        raise MobilityError("a platoon needs at least one driver")
    if duration <= 0.0 or dt <= 0.0:
        raise MobilityError("duration and dt must be positive")

    n = len(drivers)
    steps = int(round(duration / dt)) + 1
    noise_std = np.array([d.acceleration_noise_std for d in drivers])
    sqrt_dt = math.sqrt(dt)
    noise = (
        rng.normal(0.0, 1.0, size=(steps - 1, n)) * noise_std / max(sqrt_dt, 1e-9) * dt
    ).tolist()

    # Each car's unwrapped arc length at every step, and its speed now.
    positions = [[float(lead_start_arc - i * initial_gap)] for i in range(n)]
    speeds = [
        float(profile.target_speed(lead_start_arc) * driver.speed_factor)
        for driver in drivers
    ]
    target_speed = profile.target_speed
    for step_noise in noise:
        ahead_s = ahead_v = ahead_length = 0.0
        for i, driver in enumerate(drivers):
            arcs = positions[i]
            s_here = arcs[-1]
            v = speeds[i]
            target = target_speed(s_here) * driver.speed_factor
            if i == 0:
                accel = _idm_acceleration(driver.idm, v, target, None, 0.0)
            else:
                accel = _idm_acceleration(
                    driver.idm, v, target, ahead_s - s_here - ahead_length, v - ahead_v
                )
            # The next car follows this one as it was before this step.
            ahead_s, ahead_v, ahead_length = s_here, v, driver.idm.vehicle_length
            v_new = max(v + (accel * dt) + step_noise[i], 0.0)
            arcs.append(s_here + 0.5 * (v + v_new) * dt)
            speeds[i] = v_new

    times = [k * dt for k in range(steps)]
    return [TraceMobility(track, times, positions[i]) for i in range(n)]
