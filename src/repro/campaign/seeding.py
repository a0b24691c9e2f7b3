"""Deterministic seed derivation for campaign tasks.

The whole point of the campaign engine is that execution order never
matters: a task's simulation is seeded purely from values recorded in the
task spec, so a 16-worker run, a serial run, and a resumed run all
produce bit-identical rows.

Two layers cooperate:

* The scenario builders already derive each round's simulator seed from
  ``(config seed, round_index)`` (e.g. ``seed + 7919 * (round + 1)`` for
  the urban testbed) — tasks inherit that unchanged, which is what keeps
  a campaign's rows equal to a direct loop over the plugin's rounds.
* When a spec asks for ``independent_seeds``, each grid point gets its
  own config seed derived here from the campaign master seed and the
  point's labels, so adding or removing grid points never shifts the
  random streams of the others.
"""

from __future__ import annotations

import hashlib
import json

#: Mask keeping derived seeds inside the range every stdlib and numpy
#: generator accepts (and JSON round-trips losslessly).
_SEED_BITS = 63


def derive_seed(master_seed: int, key: str) -> int:
    """A reproducible 63-bit seed from a master seed and a string key.

    Uses BLAKE2b (keyed by the master seed) so distinct keys give
    independent, well-spread seeds and the derivation is stable across
    Python versions and platforms (unlike ``hash``).
    """
    digest = hashlib.blake2b(
        key.encode(),
        digest_size=8,
        key=str(int(master_seed)).encode(),
    ).digest()
    return int.from_bytes(digest, "big") & ((1 << _SEED_BITS) - 1)


def point_seed(master_seed: int, labels: tuple) -> int:
    """The config seed of one grid point under ``independent_seeds``."""
    key = json.dumps(list(labels), sort_keys=True, separators=(",", ":"))
    return derive_seed(master_seed, "point:" + key)
