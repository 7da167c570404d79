"""Deterministic derivation of per-block random streams.

Every stochastic component of the library draws from a Philox counter-based
generator whose key is derived from (master_seed, stream_tag, index).  Any
block of work can therefore be regenerated in isolation, and simulation
output cannot depend on how blocks are scheduled across workers.
"""

import numpy as np

__all__ = ["GAUSSIAN_STREAM", "UNIFORM_STREAM", "substream"]

# Stream tags are part of the reproducibility contract; changing them
# changes every simulated path.
GAUSSIAN_STREAM = 0  # fractional Gaussian noise, one stream per path pair
UNIFORM_STREAM = 1   # bridge-crossing uniforms, one stream per path

_MAX_SEED = 2**64


def substream(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Return the generator for block `index` of the given stream.

    The mapping (master_seed, stream, index) -> generator state is fixed,
    so identical arguments always reproduce identical draws.  The three
    words go to SeedSequence as given, so a Python or numpy integer keys
    the same stream and a non-integer raises TypeError.
    """
    if not 0 <= master_seed < _MAX_SEED:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")
    if stream < 0 or index < 0:
        raise ValueError(f"stream tag and index must be non-negative, got {stream}, {index}")
    seq = np.random.SeedSequence(entropy=(master_seed, stream, index))
    return np.random.Generator(np.random.Philox(seq))
