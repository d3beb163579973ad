"""Reproducible named random streams.

Every stochastic component of the simulator (overhead sampling,
background load, algorithm durations, failure injection, ...) draws from
its own named substream so that

* experiments are reproducible from a single integer seed, and
* adding a new consumer of randomness does not perturb the draws seen
  by existing consumers (stream independence by name, not by call
  order).

Substreams are derived with :class:`numpy.random.SeedSequence` using a
stable 64-bit hash of the stream name, which is the mechanism NumPy
documents for building independent generators.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator

import numpy as np

__all__ = ["RandomStreams", "stable_hash64"]


def stable_hash64(name: str) -> int:
    """Return a stable (process-independent) 64-bit hash of *name*.

    Python's builtin ``hash`` is salted per process, so it cannot be
    used to derive reproducible seeds; BLAKE2 is stable.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RandomStreams:
    """A factory of independent, named :class:`numpy.random.Generator` s.

    Parameters
    ----------
    seed:
        Master seed for the whole experiment.  Two ``RandomStreams``
        built with the same seed hand out identical generators for
        identical names.

    Ownership
    ---------
    An instance is the unit of randomness ownership — there is no
    module-global generator state anywhere in the simulator.  Each
    concurrent enactment constructs its own ``RandomStreams`` so its
    draws are independent of how runs interleave on the shared engine;
    shared *environment* randomness (grid overheads, faults) lives in
    the grid's own instance, which is deliberately common to all runs.
    Application outputs additionally key their generators by input
    identity (see ``repro.apps.registration``), which is what makes an
    interleaved run byte-identical to the same run executed serially.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> g1 = streams.get("overhead")
    >>> g2 = RandomStreams(seed=42).get("overhead")
    >>> float(g1.random()) == float(g2.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._generators: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was built with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The same ``RandomStreams`` instance returns the *same generator
        object* for repeated calls with one name, so state advances
        across uses — which is what a simulation component wants.
        """
        if name not in self._generators:
            seq = np.random.SeedSequence([self._seed, stable_hash64(name)])
            self._generators[name] = np.random.default_rng(seq)
        return self._generators[name]

    def names(self) -> Iterator[str]:
        """Iterate over the stream names created so far."""
        return iter(sorted(self._generators))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._generators)})"
