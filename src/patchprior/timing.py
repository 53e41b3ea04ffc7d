"""Wall-clock lap timing for the per-phase ``seconds`` maps and manifests."""

from __future__ import annotations

import time

__all__ = ["LapTimer"]


class LapTimer:
    """Seconds per named phase; each lap runs from the previous lap, or
    from construction, to now, and adds to that phase's total."""

    def __init__(self):
        self.seconds = {}
        self._clock = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + (now - self._clock)
        self._clock = now
