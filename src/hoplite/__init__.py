"""Beam-hopping simulation and scheduling: grid, channel, queues, search."""

__version__ = "0.1.0"
