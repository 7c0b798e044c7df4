"""`MonitorService`: a forwarder to `ResilienceManager.drain_regeneration`,
kept for the benchmark, which builds one and drains through it."""


class MonitorService:
    """Forwards `drain_regeneration` to its manager; `cluster` and `seed`
    are unused."""

    def __init__(self, cluster, manager, seed=0):
        self.manager = manager

    def drain_regeneration(self):
        """The manager's rebuild records, one per request it started."""
        return self.manager.drain_regeneration()
