"""Settings shared by every test module."""

from hypothesis import Phase, settings

# The explain phase replays each failing draw through the Fraction oracles to
# report which parts of it matter; on a broken double description that took
# about 16 times as long as finding and shrinking the failures.  Every other
# phase, and each test's own @settings, stays as it is.
settings.register_profile("no-explain", phases=[p for p in settings.default.phases if p is not Phase.explain])
settings.load_profile("no-explain")
