"""TEL good fixture: spans as context managers, registry metrics, stats reads."""


def spanned(tel, pages):
    with tel.span("account"):
        total = int(pages.sum())
    with tel.span("plan"), tel.span("migrate"):
        pass
    return total


def registry_metrics(registry):
    c = registry.counter("migrations")
    h = registry.histogram("epoch_ns")
    return c, h


def observe_stats(migration):
    return migration.stats.promoted_pages
