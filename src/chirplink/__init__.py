"""Simulator of a chirp-phase-encoded two-laser QKD transmitter.

Subpackages cover the physical laser dynamics (`laser`), the fast
phenomenological source model (`source`), channel/decoder/detector
optics (`optics`), the BB84 and DPS protocols (`protocols`), secure key
rates (`keyrate`) and the experiment recipes plus CLI (`experiments`,
`cli`).
"""

__version__ = "0.1.0"
