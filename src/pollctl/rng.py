"""Named random substreams for reproducible simulation.

Every random source in a run (arrivals per queue, services per queue,
switchovers per stage, the binomial draw of each polling epoch, replication
seeding) gets its own generator derived from the run seed and a structural
key.  Draws from one source never shift another, so extending a run or
changing what is measured leaves earlier randomness untouched.
"""

from __future__ import annotations

import numpy as np

ARRIVALS = 0
SERVICES = 1
SWITCHOVERS = 2
BINOMIALS = 3
REPLICATIONS = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the source identified by ``key`` under ``seed``."""
    sequence = np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(k) for k in key)
    )
    return np.random.Generator(np.random.PCG64(sequence))


def replication_seed(seed: int, replication: int) -> int:
    """Derived integer seed for one replication of a scenario."""
    sequence = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(REPLICATIONS, int(replication))
    )
    return int(sequence.generate_state(1, np.uint64)[0])
