"""Shared constructors for episodes and matrices, and the environment of child interpreters, used across the test suite."""

import json
import random
from pathlib import Path

import choicetrust
from choicetrust import ChoiceEpisode, PreferenceMatrix, ValidatedEpisode, validate_episode


def child_env(**extra: str) -> dict[str, str]:
    """The whole environment of a child interpreter that imports the package under test.

    The child writes no bytecode, so that no test leaves `.pyc` files beside the
    sources, where they would speed up every later run from the same tree.
    """
    src = Path(choicetrust.__file__).parents[1]
    return {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", **extra}


def episode(reviewer, period, attainable, wishlist, cart, final) -> ValidatedEpisode:
    return validate_episode(
        ChoiceEpisode(reviewer, period, tuple(attainable), tuple(wishlist), tuple(cart), tuple(final))
    )


def chain_episode(pref_order, catalog, period=1, reviewer="r") -> ValidatedEpisode:
    """Episode whose stage ranks realize a strict chain (needs len <= 4).

    The most-preferred object gets rank 3, the next 2, and so on; stage sets
    are read off the ranks.
    """
    assert 2 <= len(pref_order) <= 4
    ranks = {oid: 3 - i for i, oid in enumerate(pref_order)}
    return episode(
        reviewer,
        period,
        catalog,
        [o for o in catalog if ranks[o] >= 1],
        [o for o in catalog if ranks[o] >= 2],
        [o for o in catalog if ranks[o] >= 3],
    )


def chain_matrix(pref_order, catalog) -> PreferenceMatrix:
    """Strict-chain preference matrix for any n, in the given catalog order."""
    position = {oid: i for i, oid in enumerate(pref_order)}
    n = len(catalog)
    bits = [[0] * n for _ in range(n)]
    for i, a in enumerate(catalog):
        for j, b in enumerate(catalog):
            if i != j and position[a] < position[b]:
                bits[i][j] = 1
    return PreferenceMatrix(order=tuple(catalog), bits=bits)


def random_staged_episode(rng: random.Random, ids, period=1, reviewer="r") -> ValidatedEpisode:
    """Random nested stage sets over the given catalog (final never empty)."""
    ranks = {oid: rng.randint(0, 3) for oid in ids}
    ranks[rng.choice(list(ids))] = 3
    return episode(
        reviewer,
        period,
        ids,
        [o for o in ids if ranks[o] >= 1],
        [o for o in ids if ranks[o] >= 2],
        [o for o in ids if ranks[o] >= 3],
    )


def random_matrix(rng: random.Random, n: int) -> PreferenceMatrix:
    bits = [[rng.randint(0, 1) if i != j else 0 for j in range(n)] for i in range(n)]
    return PreferenceMatrix(order=tuple(f"o{i}" for i in range(n)), bits=bits)


def many_reviewers(directory: Path, count: int = 40) -> tuple[Path, Path]:
    """Episode and review files of `count` two-period reviewers; one review names an absent object."""
    catalog = ["a", "b", "c", "d"]
    lines, reviews = [], [{"reviewer_id": "r0", "object": "zz", "rating": 3}]
    for k in range(count):
        for period in (1, 2):
            order = catalog[k % 4:] + catalog[: k % 4] if period == 1 else catalog[::-1]
            lines.append(json.dumps({"reviewer_id": f"r{k}", "period": period, "catalog": catalog,
                                     "wishlist": order[:3], "cart": order[:2], "final": order[:1]}))
        reviews.append({"reviewer_id": f"r{k}", "object": catalog[k % 4], "rating": 1 + k % 5})
    episodes = directory / "episodes.jsonl"
    episodes.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    reviews_path = directory / "reviews.json"
    reviews_path.write_text(json.dumps(reviews), encoding="utf-8")
    return episodes, reviews_path
