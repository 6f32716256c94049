import sys
from pathlib import Path

import pytest

# Set before the package is first imported: no test run leaves bytecode beside
# its sources (child interpreters take the same rule from helpers.child_env).
sys.dont_write_bytecode = True

from choicetrust import ChoiceEpisode, Review, validate_episode

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def canonical_raw_episodes():
    return (
        ChoiceEpisode("rev-1", 1, ("M", "N", "V", "Z"), ("M", "N", "V"), ("M", "N"), ("M",)),
        ChoiceEpisode("rev-1", 2, ("M", "N", "V", "Z"), ("Z", "V", "N"), ("Z", "V"), ("Z",)),
    )


@pytest.fixture
def canonical_episodes(canonical_raw_episodes):
    return tuple(validate_episode(e) for e in canonical_raw_episodes)


@pytest.fixture
def canonical_reviews():
    return (
        Review("rev-1", "M", 1, "negative", "Bad product"),
        Review("rev-1", "N", 2, "negative", "Not so good product"),
        Review("rev-1", "V", 3, "positive", "Relatively good product"),
        Review("rev-1", "Z", 5, "positive", "Premium product"),
    )
