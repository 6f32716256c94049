#!/usr/bin/env python3
"""From staged buying episodes to run patterns, step by step.

One shopper, four objects (M, N, V, Z), two periods. In the first period the
funnel keeps M to the end; in the second the preferences flip and Z wins.
The walkthrough prints every intermediate artifact on the way to the
per-object run patterns.
"""

from choicetrust import (
    ChoiceEpisode,
    concat_patterns,
    derive_matrix,
    omega,
    outdegrees,
    scan_runs,
    flatten,
    validate_episode,
)

episodes = [
    validate_episode(
        ChoiceEpisode(
            reviewer_id="shopper-7",
            period=1,
            attainable=("M", "N", "V", "Z"),
            wishlist=("M", "N", "V"),
            cart=("M", "N"),
            final=("M",),
        )
    ),
    validate_episode(
        ChoiceEpisode(
            reviewer_id="shopper-7",
            period=2,
            attainable=("M", "N", "V", "Z"),
            wishlist=("Z", "V", "N"),
            cart=("Z", "V"),
            final=("Z",),
        )
    ),
]

matrices = [derive_matrix(e) for e in episodes]
for episode, matrix in zip(episodes, matrices):
    print(f"period {episode.period}: catalog {matrix.order}")
    for oid, row in zip(matrix.order, matrix.bits):
        print(f"  {oid}  {''.join(map(str, row))}")
    print(f"  outdegrees: {outdegrees(matrix)}")
    print(f"  flattened:  {flatten(matrix).as_string()}")

joint = concat_patterns(matrices)
print(f"\njoint pattern: {joint.as_string()}")
print(f"run totals per (period, object) slot: {scan_runs(joint)}")

print("\nper-object run patterns:")
for obj in "MNVZ":
    print(f"  omega({obj}) = {omega(episodes, obj).render()}")
