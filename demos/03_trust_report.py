#!/usr/bin/env python3
"""Scoring a reviewer's comments against their own choice history.

The shopper from demo 01 also left star ratings and comments for all four
objects. The report holds each comment against the run pattern the shopper's
own funnel produced for that object: criticism should line up with fading
engagement, praise with growing engagement.
"""

from choicetrust import ChoiceEpisode, Review, build_report
from choicetrust.cli_io import report_to_text

episodes = [
    ChoiceEpisode("shopper-7", 1, ("M", "N", "V", "Z"), ("M", "N", "V"), ("M", "N"), ("M",)),
    ChoiceEpisode("shopper-7", 2, ("M", "N", "V", "Z"), ("Z", "V", "N"), ("Z", "V"), ("Z",)),
]

reviews = [
    Review("shopper-7", "M", 1, "negative", "Bad product"),
    Review("shopper-7", "N", 2, "negative", "Not so good product"),
    Review("shopper-7", "V", 3, "positive", "Relatively good product"),
    Review("shopper-7", "Z", 5, "positive", "Premium product"),
    # a review for something the shopper never looked at gets flagged
    Review("shopper-7", "X9", 5, "positive", "Amazing!"),
]

report = build_report(episodes, reviews)
print(report_to_text(report))

print("same data, smoothed membership and a custom rational-zone probability:")
report = build_report(episodes, reviews, membership_variant="smoothed", p="1/3")
for a in report.reviewers[0].assessments:
    print(f"  {a.object}: degree={float(a.degree.value):.4f} zone={a.zone.value}"
          f" narrative={a.narrative.value if a.narrative else '-'}")
