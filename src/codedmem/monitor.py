"""`MonitorService`: a forwarder to `ResilienceManager.drain_regeneration`.

The manager starts every rebuild itself; the service remains only for
callers that build one and drain through it.
"""


class MonitorService:
    """Forwards `drain_regeneration` to its manager.

    `cluster` and `seed` are unused; they remain only because callers
    build the service with them.
    """

    def __init__(self, cluster, manager, seed=0):
        self.manager = manager

    def drain_regeneration(self):
        """The manager's rebuild records, one per request it started."""
        return self.manager.drain_regeneration()
