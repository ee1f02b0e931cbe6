"""Read a live :class:`~repro.obs.events.EventLog` in tests."""


def held_events(log, kind=None):
    """Every event ``log`` holds, oldest first, optionally of one kind."""
    return [event for event in log.tail(log.max_events)
            if kind is None or event.kind == kind]
