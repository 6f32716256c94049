"""Seeded input generator for the `choicetrust score` benchmark.

Each workload is a shape: how many reviewers, periods and objects, how much
of a catalog churns between periods, and how many malformed records are
mixed in. `generate` turns a shape and a seed into an episode JSONL file and
a reviews JSON file, and returns the `Case` the verifier checks reports
against. The case is built from the stage ranks the generator drew, never
from the program under test.

The same (workload, seed) pair always writes byte-identical files: every
random draw comes from one `random.Random` seeded with a string, and no set
or dict of strings is iterated in an order that depends on hashing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    periods: int
    reviewers: int
    objects: int  # objects per reviewer, before churn
    pool: int  # distinct product ids the objects are drawn from
    absent_per_period: int  # objects dropped from each period's catalog
    review_share: float  # share of a reviewer's objects that get a review
    junk_lines: int  # episode lines the parser must reject
    bad_reviewers: int  # reviewers whose episodes fail stage-nesting validation
    bad_reviews: int  # review records the parser must reject
    flagged_reviews: int  # duplicate, absent-object and unknown-reviewer reviews
    fmt: str  # report format passed to `score --format`
    why: str


# Why each workload exists; BENCHMARK.json repeats these lines.
SHAPES = {
    "many-small": Shape(
        periods=2, reviewers=800, objects=4, pool=64, absent_per_period=0,
        review_share=0.5, junk_lines=24, bad_reviewers=6, bad_reviews=12,
        flagged_reviews=24, fmt="json",
        why=(
            "Many reviewers with 4-object catalogs: loads per-record costs (parse, validate, "
            "one bar table and binomial per reviewer, JSON encoder); memory grows with records"
        ),
    ),
    "few-large": Shape(
        periods=2, reviewers=2, objects=96, pool=96, absent_per_period=0,
        review_share=0.5, junk_lines=0, bad_reviewers=0, bad_reviews=0,
        flagged_reviews=0, fmt="json",
        why=(
            "2 reviewers x 96 objects: loads the O(n^3) omega path, the n^2 bin_table "
            "enumeration and the O(n^2) binomial CDF; parsing and rendering cost little"
        ),
    ),
    "three-period-churn": Shape(
        periods=3, reviewers=100, objects=24, pool=96, absent_per_period=4,
        review_share=0.5, junk_lines=0, bad_reviewers=0, bad_reviews=0,
        flagged_reviews=0, fmt="csv",
        why=(
            "3 periods, 100 x 24 objects, ~15% absent per period, csv: general pattern_runs "
            "path with no bar tables and no JSON encoder; two-period shortcuts show no change"
        ),
    ),
}


@dataclass(frozen=True)
class Period:
    period: int
    catalog: tuple[str, ...]
    ranks: dict[str, int]  # stage rank 0..3 of each catalog object


@dataclass(frozen=True)
class Reviewer:
    reviewer_id: str
    periods: tuple[Period, ...]
    reviews: dict[str, dict]  # object -> the review record written for it

    @property
    def catalog(self) -> tuple[str, ...]:
        """Union of the period catalogs in first-appearance order."""
        seen: dict[str, None] = {}
        for p in self.periods:
            for oid in p.catalog:
                seen.setdefault(oid, None)
        return tuple(seen)


@dataclass(frozen=True)
class Case:
    """Generated input files plus everything the verifier expects of a report."""

    workload: str
    seed: int
    fmt: str
    episodes_path: Path
    reviews_path: Path
    reviewers: tuple[Reviewer, ...]  # scoreable reviewers, in report order
    errors: int  # report errors: rejected lines, rejected reviews, invalid episodes
    flagged: int

    @property
    def assessments(self) -> int:
        return sum(len(r.catalog) for r in self.reviewers)

    @property
    def exit_code(self) -> int:
        return 2 if self.errors or self.flagged else 0


def _stage_record(reviewer_id: str, period: int, catalog, ranks) -> dict:
    return {
        "reviewer_id": reviewer_id,
        "period": period,
        "catalog": list(catalog),
        "wishlist": [o for o in catalog if ranks[o] >= 1],
        "cart": [o for o in catalog if ranks[o] >= 2],
        "final": [o for o in catalog if ranks[o] >= 3],
    }


def _draw_period(rng: random.Random, period: int, objects: list[str], absent: int) -> Period:
    dropped = set(rng.sample(range(len(objects)), absent))
    catalog = tuple(o for i, o in enumerate(objects) if i not in dropped)
    ranks = {oid: rng.randint(0, 3) for oid in catalog}
    ranks[rng.choice(catalog)] = 3  # the final stage is never empty
    return Period(period=period, catalog=catalog, ranks=ranks)


def _review(rng: random.Random, reviewer_id: str, obj: str) -> dict:
    rating = rng.randint(1, 5)
    record = {"reviewer_id": reviewer_id, "object": obj, "rating": rating}
    polarity = rng.choice(("positive", "negative", "neutral", None))
    if polarity is not None:  # a missing polarity falls back to the rating
        record["comment_polarity"] = polarity
    record["comment_text"] = f"review {rng.randrange(10**6)}"
    return record


_JUNK = (
    lambda rng: "{not json " + str(rng.randrange(10**6)),
    lambda rng: json.dumps([rng.randrange(100)]),
    lambda rng: json.dumps({"reviewer_id": f"junk-{rng.randrange(10**6)}", "period": "one",
                            "catalog": ["a"], "wishlist": [], "cart": [], "final": ["a"]}),
)


def generate(workload: str, seed: int, workdir: Path) -> Case:
    """Write the workload's input files for `seed` into `workdir` and describe them."""
    shape = SHAPES[workload]
    rng = random.Random(f"choicetrust-bench:{workload}:{seed}")
    pool = [f"p{i:03d}" for i in range(shape.pool)]

    reviewers = []
    lines: list[str] = []
    reviews: list[dict] = []
    for k in range(shape.reviewers):
        rid = f"r{k:05d}"
        objects = rng.sample(pool, shape.objects)
        periods = tuple(
            _draw_period(rng, t, objects, shape.absent_per_period)
            for t in range(1, shape.periods + 1)
        )
        reviewer = Reviewer(rid, periods, {})
        for obj in reviewer.catalog:
            if rng.random() < shape.review_share:
                reviewer.reviews[obj] = _review(rng, rid, obj)
        reviews.extend(reviewer.reviews.values())
        lines.extend(json.dumps(_stage_record(rid, p.period, p.catalog, p.ranks)) for p in periods)
        reviewers.append(reviewer)

    # Reviewers whose every episode breaks stage nesting: the cart holds an
    # object missing from the wishlist, so validation rejects each one.
    bad_lines = []
    for k in range(shape.bad_reviewers):
        rid = f"bad{k:03d}"
        for t in range(1, shape.periods + 1):
            catalog = rng.sample(pool, 4)
            bad_lines.append(json.dumps({
                "reviewer_id": rid, "period": t, "catalog": catalog,
                "wishlist": catalog[:1], "cart": catalog[1:3], "final": catalog[1:2],
            }))
    junk = [rng.choice(_JUNK)(rng) for _ in range(shape.junk_lines)]
    for line in bad_lines + junk:
        lines.insert(rng.randrange(len(lines) + 1), line)

    flagged = []
    for k in range(shape.flagged_reviews):
        kind = k % 3
        if kind == 0:  # a second review of an already reviewed object
            owner = rng.choice([r for r in reviewers if r.reviews])
            flagged.append(dict(owner.reviews[rng.choice(sorted(owner.reviews))]))
        elif kind == 1:  # an object outside the reviewer's catalogs
            owner = rng.choice(reviewers)
            flagged.append(_review(rng, owner.reviewer_id, f"gone{k:03d}"))
        else:  # a reviewer with no validated episodes
            flagged.append(_review(rng, f"ghost{k:03d}", rng.choice(pool)))
    rejected = [
        {"reviewer_id": rng.choice(reviewers).reviewer_id, "object": rng.choice(pool),
         "rating": rng.choice((0, 6, 9))}
        for _ in range(shape.bad_reviews)
    ]
    # Duplicates must follow the review they repeat, so they go last.
    for record in rejected:
        reviews.insert(rng.randrange(len(reviews) + 1), record)
    reviews.extend(flagged)

    workdir = Path(workdir)
    episodes_path = workdir / f"{workload}-episodes.jsonl"
    reviews_path = workdir / f"{workload}-reviews.json"
    episodes_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    reviews_path.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in reviews) + "\n]\n", encoding="utf-8"
    )
    return Case(
        workload=workload,
        seed=seed,
        fmt=shape.fmt,
        episodes_path=episodes_path,
        reviews_path=reviews_path,
        reviewers=tuple(reviewers),
        errors=shape.junk_lines + shape.bad_reviewers * shape.periods + shape.bad_reviews,
        flagged=shape.flagged_reviews,
    )
