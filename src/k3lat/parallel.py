"""In-order map over table rows, computed in the calling process."""


def parallel_map(fn, items) -> list:
    """Plain in-order map, kept as the benchmark's traced run wraps it by name."""
    return [fn(item) for item in items]
