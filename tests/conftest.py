import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=deep` runs the tests that leave their example
# count to the profile (the reference equivalence tests) on 2 000 examples;
# tests that set max_examples keep it
settings.register_profile("deep", max_examples=2_000)
