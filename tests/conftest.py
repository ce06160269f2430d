"""Session settings for the property tests: a failing draw prints the
``@reproduce_failure`` line that replays it."""

from hypothesis import settings

settings.register_profile("jamison", print_blob=True)
settings.load_profile("jamison")
