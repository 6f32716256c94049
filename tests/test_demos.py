"""Each demo prints the bytes pinned here by sha256.

The demos import through the package, so these pins also hold what
``choicetrust`` re-exports to what the demos were written against.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "demo, digest",
    [
        ("01_staged_episodes_to_patterns.py", "40a366e2cb9d167fb459e57e920069804300c5d7c1b2925b345a2273ec35a63c"),
        ("02_outcome_set_and_degrees.py", "325938b74405d67f5bfb703576a42631cbe57a523bfba34a785531dce27347a6"),
        ("03_trust_report.py", "2228b49b6c08380b059e353b6f921ee21fa2f6dc31bd02f0c9f4acc0f3f84118"),
        ("04_information_index.py", "13b1c65b23bdf18b1a74cfcfa4d3496f4f158c39c1f246395ed4aebb4e7633ff"),
        ("05_consistency_check.py", "156b08a3beaaeece372d1f6534baa283709d7139ee309779e5b2a1d2c983523d"),
    ],
)
def test_demo_output_is_unchanged(demo, digest):
    child = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert child.returncode == 0, child.stderr.decode("utf-8")
    assert hashlib.sha256(child.stdout).hexdigest() == digest
