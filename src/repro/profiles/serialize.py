"""Path-profile serialization.

Real profilers persist profiles between the training run and the analysis
run (the paper's PP pass writes a profile that the later PW pass reads).
This module provides a line-oriented text format::

    # repro path profile v1
    routine work
    path 70 A B C E F H I __exit__
    path 30 A B D E F H B
    routine main
    path 1 entry loop body loop

Vertex names are the IR block labels (plus the virtual ``__entry__`` /
``__exit__``), which contain no whitespace by construction.  Only profiles
over label-named graphs (original CFGs) are serializable; traced-graph
profiles are derived data — re-translate after loading.
"""

from __future__ import annotations

from typing import Mapping, TextIO

from .path_profile import BLPath, PathProfile

_HEADER = "# repro path profile v1"


class ProfileFormatError(Exception):
    """Raised when parsing a malformed profile file."""


def dump_profiles(profiles: Mapping[str, PathProfile], out: TextIO) -> None:
    """Write per-routine profiles in the text format."""
    out.write(_HEADER + "\n")
    for routine, profile in profiles.items():
        out.write(f"routine {routine}\n")
        for path, count in sorted(
            profile.items(), key=lambda pc: tuple(map(str, pc[0].vertices))
        ):
            vertices = " ".join(str(v) for v in path.vertices)
            out.write(f"path {count} {vertices}\n")


def dumps_profiles(profiles: Mapping[str, PathProfile]) -> str:
    """:func:`dump_profiles` into a string."""
    import io

    buffer = io.StringIO()
    dump_profiles(profiles, buffer)
    return buffer.getvalue()


def fingerprint_profile(profile: PathProfile) -> str:
    """A stable content digest of a single routine's profile: the SHA-256
    of its canonical text serialization.

    The routine's name is not part of the digest: the fingerprint
    identifies the observed path multiset alone.  The pipeline keys
    per-function artifacts (automata, HPGs, qualified dataflow, lint) on
    ``(function fingerprint, profile fingerprint, ...)`` so an edit to one
    function leaves every other function's artifacts warm even though the
    whole-module profiling run was re-executed.
    """
    import hashlib

    body = dumps_profiles({"__routine__": profile})
    return hashlib.sha256(body.encode()).hexdigest()


def load_profiles(source: TextIO) -> dict[str, PathProfile]:
    """Parse the text format back into per-routine profiles."""
    lines = source.read().splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise ProfileFormatError(f"missing header {_HEADER!r}")
    profiles: dict[str, PathProfile] = {}
    current: PathProfile | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "routine":
            if len(parts) != 2:
                raise ProfileFormatError(f"line {lineno}: bad routine line")
            name = parts[1]
            if name in profiles:
                raise ProfileFormatError(
                    f"line {lineno}: duplicate routine {name!r}"
                )
            current = profiles.setdefault(name, PathProfile())
        elif parts[0] == "path":
            if current is None:
                raise ProfileFormatError(
                    f"line {lineno}: path before any routine"
                )
            if len(parts) < 4:
                raise ProfileFormatError(
                    f"line {lineno}: a path needs a count and >= 2 vertices"
                )
            try:
                count = int(parts[1])
            except ValueError:
                raise ProfileFormatError(
                    f"line {lineno}: bad count {parts[1]!r}"
                ) from None
            current.add(BLPath(tuple(parts[2:])), count)
        else:
            raise ProfileFormatError(
                f"line {lineno}: unknown directive {parts[0]!r}"
            )
    return profiles


def loads_profiles(text: str) -> dict[str, PathProfile]:
    """:func:`load_profiles` from a string."""
    import io

    return load_profiles(io.StringIO(text))
