"""Shared test settings: one derandomized ``hypothesis`` profile, so every run
draws the same examples and nothing is stored between runs."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=300)
settings.load_profile("derandomized")
