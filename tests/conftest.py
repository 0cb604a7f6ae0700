"""Test-wide hypothesis settings.

Exact-arithmetic examples vary widely in cost, and their wall time grows
with machine load, so no property test runs under a per-example deadline.
"""

from hypothesis import settings

settings.register_profile("nektau", deadline=None)
settings.load_profile("nektau")
