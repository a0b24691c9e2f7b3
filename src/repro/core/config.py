"""C-ARQ protocol configuration."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, require_positive

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.selection import CooperatorSelection


@dataclass(slots=True, frozen=True)
class CarqConfig:
    """All tunables of the vehicle-side protocol.

    Defaults reproduce the paper's prototype.

    Attributes
    ----------
    hello_period_s:
        Interval between HELLO broadcasts (§3.2).
    hello_jitter_fraction:
        Uniform jitter on the HELLO period, preventing synchronised
        beacons.
    coverage_timeout_s:
        Silence from the AP after which the car leaves the Reception
        phase and starts Cooperative-ARQ (5 s in the prototype, §3.3).
    cooperator_ttl_s:
        A cooperator whose HELLOs have not been heard for this long is
        dropped from the table.
    responder_slot_s:
        The fixed back-off unit: the cooperator with order *i* answers a
        REQUEST after ``i × responder_slot_s`` (§3.2/§3.3).  Must exceed
        the coop-data airtime so lower-order answers are overheard (and
        suppress) before higher orders fire.
    request_guard_s:
        Extra wait after the last responder slot before the requester
        moves on to its next missing packet.
    max_batch:
        Most sequence numbers one REQUEST frame carries: 1 is the
        paper's base protocol, one REQUEST per missing packet; a larger
        cap packs the missing list into fewer frames (the §3.3
        optimisation).
    recovery_range:
        ``"platoon"`` — learn the full flow range from cooperator
        advertisements (matches the paper's figures; see DESIGN.md §2);
        ``"self"`` — only recover between own first and last direct
        receptions (the literal §3.3 reading).
    max_stagnant_passes:
        Stop requesting after this many consecutive full passes with no
        new recovery (cooperators are out of range or have nothing more).
    buffer_capacity:
        Cooperative-buffer capacity in packets (``None`` = unbounded).
    selection:
        Cooperator-selection strategy (``None`` = the paper's implicit
        all-one-hop-neighbours rule).
    """

    hello_period_s: float = 1.0
    hello_jitter_fraction: float = 0.1
    coverage_timeout_s: float = 5.0
    cooperator_ttl_s: float = 10.0
    responder_slot_s: float = 0.012
    request_guard_s: float = 0.012
    max_batch: int = 1
    recovery_range: str = "platoon"
    max_stagnant_passes: int = 3
    buffer_capacity: int | None = None
    selection: "CooperatorSelection | None" = None

    def __post_init__(self) -> None:
        require_positive(
            "protocol timings",
            hello_period_s=self.hello_period_s,
            coverage_timeout_s=self.coverage_timeout_s,
            cooperator_ttl_s=self.cooperator_ttl_s,
            responder_slot_s=self.responder_slot_s,
        )
        if not 0.0 <= self.hello_jitter_fraction < 1.0:
            raise ConfigurationError("hello jitter fraction must be in [0, 1)")
        if not 0.0 <= self.request_guard_s < math.inf:
            raise ConfigurationError(
                "request guard must be finite and not negative: "
                f"request_guard_s={self.request_guard_s!r}"
            )
        if self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
        if self.recovery_range not in ("platoon", "self"):
            raise ConfigurationError(
                f"recovery_range must be 'platoon' or 'self', got {self.recovery_range!r}"
            )
        if self.max_stagnant_passes <= 0:
            raise ConfigurationError("max_stagnant_passes must be positive")
        capacity = self.buffer_capacity
        if capacity is not None and (type(capacity) is not int or capacity <= 0):
            raise ConfigurationError(
                "buffer capacity must be None or a positive int: "
                f"buffer_capacity={capacity!r}"
            )
