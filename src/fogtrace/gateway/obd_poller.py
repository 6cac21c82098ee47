"""The OBD link as one producer of a session.

Each :meth:`ObdPoller.step` is one exchange of the three core PIDs, taken
round robin. The session loop steps it back to back, so the next request
fires the instant a reply lands and throughput is bounded purely by the
reply latency (about 545 rows/min at the default 110 ms mean). A dropped
connection makes the next step reconnect first, with exponential backoff
(0.5 s doubling to a 30 s cap), and leaves an ``obd-reconnect`` alert row
marking the gap; the session keeps running throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

from ..obd import CORE_PIDS, NegativeResponseError, ObdError
from .alerts import AlertEvent
from .session import Session

log = logging.getLogger(__name__)

BACKOFF_INITIAL_MS = 500.0
BACKOFF_CAP_MS = 30_000.0


@dataclass
class PollStats:
    rows: int = 0
    negatives: int = 0
    reconnects: int = 0
    dropped_ms: float = 0.0


class ObdPoller:
    """Polls the core PIDs over links from ``link_factory`` until ``deadline_ms``.

    ``link_factory`` is called for the initial connection and after every
    loss.
    """

    def __init__(self, link_factory: Callable[[], object], session: Session, clock, source: str, deadline_ms: float):
        self.link_factory = link_factory
        self.session = session
        self.clock = clock
        self.source = source
        self.deadline_ms = deadline_ms
        self.stats = PollStats()
        self.link = None
        self.index = 0

    def step(self) -> bool:
        """One exchange, reconnecting first if the link is down.

        True when the responder answered, with a reading or a ``7F`` frame;
        False when the link was lost or could not be re-established before
        the deadline.
        """
        stats = self.stats
        if self.link is None:
            outage_started = self.clock.now_ms()
            self.link = _reconnect(self.link_factory, self.clock, self.deadline_ms)
            if self.link is None:
                return False
            if stats.rows or stats.reconnects:
                stats.reconnects += 1
                gap_ms = self.clock.now_ms() - outage_started
                stats.dropped_ms += gap_ms
                self.session.ingest(AlertEvent(at=int(self.clock.now_ms()), rule="obd-reconnect"))
        try:
            response = self.link.request(CORE_PIDS[self.index % len(CORE_PIDS)])
        except NegativeResponseError:
            stats.negatives += 1
            self.index += 1
            return True
        except (ObdError, ConnectionError, OSError) as exc:
            log.warning("OBD link lost: %s", exc)
            self.close()
            return False
        self.index += 1
        self.session.ingest(response, source=self.source)
        stats.rows += 1
        return True

    def close(self) -> None:
        link, self.link = self.link, None
        if link is not None:
            link.close()


def _reconnect(link_factory, clock, deadline_ms):
    """Try to connect, sleeping the usual 0.5/1/2/... capped schedule; None at the deadline."""
    backoff_ms = BACKOFF_INITIAL_MS
    while clock.now_ms() < deadline_ms:
        try:
            return link_factory()
        except (ConnectionError, OSError) as exc:
            log.warning("OBD reconnect failed: %s (retry in %.1fs)", exc, backoff_ms / 1000.0)
            clock.sleep_ms(backoff_ms)
            backoff_ms = min(backoff_ms * 2.0, BACKOFF_CAP_MS)
    return None
