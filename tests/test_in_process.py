"""`main` run in-process over a stand-in stdout: one that fails part way, and one that counts bytes.

The stand-in is a text stream over a raw layer, as the interpreter builds
`sys.stdout`: over a buffer, or write-through as `PYTHONUNBUFFERED` makes it.
A failing stdout must end every command in exactly one `error:` line, the
write's own, and exit 1. A counting stdout lets `tracemalloc` measure what a
run holds at its peak, which must grow at most linearly with the input.
"""

import contextlib
import errno
import functools
import io
import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicetrust.cli_io import EXIT_FATAL, main

from helpers import many_reviewers

FIXTURES = Path(__file__).parent / "fixtures"
_E, _R = str(FIXTURES / "episodes_canonical.jsonl"), str(FIXTURES / "reviews_canonical.json")
FORMATS = ("json", "csv", "text")


class _Raw(io.RawIOBase):
    """A raw stdout that counts the bytes it takes; a write that would take it past `limit` raises `fault()`."""

    def __init__(self, limit: int | None = None, fault=None) -> None:
        self.limit, self.fault, self.taken = limit, fault, 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if self.limit is not None and self.taken + len(data) > self.limit:
            raise self.fault()
        self.taken += len(data)
        return len(data)


def run(argv: list[str], raw: _Raw, buffer_size: int = 0) -> tuple[int, str]:
    """`main(argv)` with stdout over `raw`, write-through if `buffer_size` is 0: its exit code and stderr.

    Help and the version end `main` in SystemExit(0), read as exit code 0.
    """
    buffered = io.BufferedWriter(raw, buffer_size) if buffer_size else raw
    stdout = io.TextIOWrapper(buffered, encoding="utf-8", write_through=not buffer_size)
    stderr = io.StringIO()
    saved = sys.stdout
    sys.stdout = stdout
    try:
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        sys.stdout = saved
        raw.limit = None  # what is still buffered then goes nowhere, not to a second failure when it is closed
        stdout.close()
    return code, stderr.getvalue()


# ---------------------------------------------------------------------------
# a stdout that fails part way

COMMANDS = [
    *(["score", _E, _R, "--format", fmt] for fmt in FORMATS),  # read by `_plain_score`
    *(["score", _E, _R, "--form", fmt] for fmt in FORMATS),  # an abbreviation: read by argparse
    *(["tau", "4", "2", "--format", fmt] for fmt in FORMATS),
    *(["info-index", str(FIXTURES / "ifs_list.json"), "--format", fmt] for fmt in FORMATS),
    *(["check", str(FIXTURES / "choice_table_violating.json"), "--format", fmt] for fmt in FORMATS),
    ["--help"],
    ["--version"],
    ["score", "--help"],
]
FAULTS = {
    "ENOSPC": lambda: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    "EPIPE": lambda: BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
}


@functools.cache
def _output_length(argv: tuple[str, ...]) -> int:
    raw = _Raw()
    assert run(list(argv), raw) == (0, ""), argv
    return raw.taken


@settings(max_examples=150, deadline=None)
@given(
    argv=st.sampled_from(COMMANDS),
    fault=st.sampled_from(sorted(FAULTS)),
    buffer_size=st.sampled_from([0, 64, io.DEFAULT_BUFFER_SIZE]),
    data=st.data(),
)
def test_a_stdout_that_fails_after_any_byte_is_one_error_line(argv, fault, buffer_size, data):
    # Any k short of the whole output: the write that would pass k bytes fails, and every later one. The stream
    # has no descriptor, so `_write` cannot send it to the null device, and the write's own error must be the one
    # reported.
    k = data.draw(st.integers(0, _output_length(tuple(argv)) - 1), label="k")
    code, stderr = run(argv, _Raw(k, FAULTS[fault]), buffer_size)
    assert (code, stderr) == (EXIT_FATAL, f"error: {FAULTS[fault]()}\n")


# ---------------------------------------------------------------------------
# peak memory, by how it grows


def peak(argv: list[str]) -> int:
    """The `tracemalloc` peak of `main(argv)` with stdout on a byte counter, after one untraced warm-up run.

    The warm-up takes first-use imports and module-level state out of the count.
    """
    assert run(argv, _Raw())[0] in (0, 2)
    tracemalloc.start()
    try:
        assert run(argv, _Raw())[0] in (0, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_linear(peaks: list[int]) -> None:
    # Doubling the input may multiply the peak by 2 and a margin; a quadratic peak would take it towards 4.
    assert all(larger <= 2.5 * smaller for smaller, larger in zip(peaks, peaks[1:])), peaks


@pytest.fixture(scope="module")
def reviewer_files(tmp_path_factory):
    """Episode and review files of 100, 200 and 400 two-period reviewers of 4 objects: many-small's shape."""
    files = []
    for count in (100, 200, 400):
        files.append(many_reviewers(tmp_path_factory.mktemp(f"reviewers{count}"), count))
    return files


@pytest.mark.parametrize("fmt", FORMATS)
def test_scores_peak_grows_linearly_with_the_reviewers(reviewer_files, fmt):
    # A build_report that kept a copy of the sections before each new one reads 2.8 from 200 to 400.
    _assert_linear([peak(["score", str(e), str(r), "--format", fmt]) for e, r in reviewer_files])


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_taus_peak_grows_linearly_with_n(fmt):
    # The listing grows as n**2 and is written as it is made, so its peak must not; a listing of rows kept in a
    # list reads 3.1 and 4.1.
    _assert_linear([peak(["tau", str(n), "2", "--format", fmt]) for n in (16, 32, 64)])
