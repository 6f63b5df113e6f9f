"""holo: distributed telescope and honeypot platform.

A central controller orchestrates sensor agents over a hub-and-spoke
encrypted overlay. Agents run darknet capture, L4 responders, traffic
steering and trace collection; the analysis module computes traffic
metrics; simnet provides a deterministic simulated network for tests.
"""

__version__ = "0.1.0"


class HoloError(Exception):
    """Root of the errors holo reports as operational failures: the CLI
    prints each as `error: <Class>: <message>` and exits 1."""
