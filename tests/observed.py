"""Run code under a fresh observer and read back what it counted."""

from repro.obs import Observer


def observed(call):
    """Run ``call`` under a fresh observer: its result and the metrics."""
    observer = Observer()
    with observer.activate():
        result = call()
    return result, observer.metrics.snapshot()
