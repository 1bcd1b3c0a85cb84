"""Seeded relabelled copies of the small-std corpus.

For every entry the seed picks a random permutation of the points
``{1..degree}`` and applies it to each ``gen`` and ``map`` line of the
entry's ``.grp`` text.  Relabelling conjugates the group inside its
symmetric group, so every abstract group, automorphism and suite count is
unchanged, while element order, class representatives, stabilizer bases
and generator lists all change.  Seed 0 is the identity relabelling.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

_POINT = re.compile(r"\d+")


def relabel_text(text: str, seed: int) -> str:
    """Apply the seeded relabelling to the ``gen`` and ``map`` lines of a .grp text."""
    name = degree = None
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "name":
            name = rest.strip()
        elif key == "degree":
            degree = int(rest)
    if name is None or degree is None:
        raise ValueError("group text lacks a name or degree line")
    images = list(range(1, degree + 1))  # point i goes to images[i - 1]
    if seed != 0:
        random.Random(f"{seed}/{name}").shuffle(images)

    def move(match: re.Match) -> str:
        return str(images[int(match.group()) - 1])

    out = []
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key in ("gen", "map"):
            line = f"{key} {_POINT.sub(move, rest)}"
        out.append(line)
    return "\n".join(out) + "\n"


def write_corpus(directory: Path, seed: int, exclude: tuple[str, ...] = ()) -> list[str]:
    """Write the seeded small-std corpus as ``<name>.grp`` files; returns the names."""
    from engelfit.corpus import serialize_group_file, small_std

    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.grp"):
        stale.unlink()
    names = []
    for entry in small_std():
        if entry.name in exclude:
            continue
        text = relabel_text(serialize_group_file(entry), seed)
        (directory / f"{entry.name}.grp").write_text(text)
        names.append(entry.name)
    return names
