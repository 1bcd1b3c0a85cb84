"""Builtin group families, the .grp file format, and corpus loading."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .engel import AutomorphismMap, holomorph_extension, inner, make_automorphism
from .errors import ParseError
from .group import MAX_DEGREE, GroupHandle, _check_size, close_group
from .perm import Permutation, format_cycles, parse_cycles

__all__ = [
    "CorpusEntry",
    "builtin",
    "small_std",
    "parse_group_file",
    "serialize_group_file",
    "load_corpus",
    "get_corpus",
    "MAX_DEGREE",
]


@dataclass(frozen=True)
class CorpusEntry:
    """One named group with its attached automorphisms, each validated
    once when the entry is built.  Entries pickle whole, elements and
    automorphism tables included, so worker processes run them as loaded.
    """

    name: str
    group: GroupHandle
    automorphisms: tuple[tuple[str, AutomorphismMap], ...]

    def automorphism(self, name: str) -> AutomorphismMap:
        for n, a in self.automorphisms:
            if n == name:
                return a
        raise KeyError(f"entry {self.name!r} has no automorphism {name!r}")


def _cycle(points: list[int], degree: int) -> Permutation:
    images = list(range(degree))
    for i, p in enumerate(points):
        images[p - 1] = points[(i + 1) % len(points)] - 1
    return Permutation(images)


def _cyclic(n: int):
    if n < 1:
        raise ParseError("cyclic(n) requires n >= 1")
    _check_size(f"cyclic({n})", n, n)
    group = close_group([_cycle(list(range(1, n + 1)), n)] if n > 1
                        else [Permutation.identity(1)])
    autos = []
    if n >= 3:
        autos.append(("inv", make_automorphism(group, [group.generators[0].inverse()])))
    return group, autos


def _dihedral(n: int):
    if n < 3:
        raise ParseError("dihedral(n) requires n >= 3")
    _check_size(f"dihedral({n})", n, 2 * n)
    rotation = _cycle(list(range(1, n + 1)), n)
    reflection = Permutation([((n - i) % n) for i in range(n)])
    group = close_group([rotation, reflection])
    return group, [("flip", inner(group, reflection))]


def _symmetric(n: int):
    if n < 1 or n > 7:
        raise ParseError("symmetric(n) supports 1 <= n <= 7")
    if n == 1:
        return close_group([Permutation.identity(1)]), []
    gens = [_cycle([1, 2], n)]
    if n > 2:
        gens.append(_cycle(list(range(1, n + 1)), n))
    group = close_group(gens)
    autos = []
    if n >= 3:
        autos.append(("t12", inner(group, _cycle([1, 2], n))))
    return group, autos


def _alternating(n: int):
    if n < 3 or n > 7:
        raise ParseError("alternating(n) supports 3 <= n <= 7")
    gens = [_cycle([1, 2, 3], n)]
    if n > 3:
        long = list(range(1, n + 1)) if n % 2 == 1 else list(range(2, n + 1))
        gens.append(_cycle(long, n))
    group = close_group(gens)
    return group, [("t12", inner(group, _cycle([1, 2], n)))]


def _sl2(p: int):
    if p not in (3, 5, 7):
        raise ParseError("sl2(p) supports p in {3, 5, 7}")
    vectors = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def matrix_perm(m):
        images = []
        for a, b in vectors:
            w = ((a * m[0][0] + b * m[1][0]) % p, (a * m[0][1] + b * m[1][1]) % p)
            images.append(index[w])
        return Permutation(images)

    transvection = matrix_perm([[1, 1], [0, 1]])
    rotation = matrix_perm([[0, 1], [p - 1, 0]])  # order 4, squares to -I
    group = close_group([transvection, rotation])
    return group, [("sconj", inner(group, rotation))]


def _direct_product(left: CorpusEntry, right: CorpusEntry):
    d1, d2 = left.group.degree, right.group.degree
    degree = d1 + d2
    _check_size(f"direct_product({left.name},{right.name})", degree,
                left.group.order * right.group.order)
    gens = [Permutation(tuple(g.images) + tuple(range(d1, degree)))
            for g in left.group.generators]
    gens += [Permutation(tuple(range(d1)) + tuple(i + d1 for i in g.images))
             for g in right.group.generators]
    return close_group(gens), []


def _holomorph_ext(base: CorpusEntry, auto_name: str):
    return holomorph_extension(base.group, base.automorphism(auto_name)), []


_FAMILY_RE = re.compile(r"^\s*([a-z_0-9]+)\s*\((.*)\)\s*$")


def _split_args(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


_INT_FAMILIES = {"cyclic": _cyclic, "dihedral": _dihedral, "symmetric": _symmetric,
                 "alternating": _alternating, "sl2": _sl2}


def _int_arg(family: str, raw_args: list[str]) -> int:
    """The single integer argument of an integer family."""
    if len(raw_args) == 1:
        try:
            return int(raw_args[0])
        except ValueError:
            pass
    raise ParseError(f"{family}(n) takes one integer argument, got "
                     f"({', '.join(raw_args)})")


def builtin(spec: str, name: Optional[str] = None) -> CorpusEntry:
    """Construct a builtin family entry from a spec like ``symmetric(4)``."""
    m = _FAMILY_RE.match(spec)
    if m is None:
        raise ParseError(f"bad builtin spec {spec!r}")
    family, raw_args = m.group(1), _split_args(m.group(2))
    if family in _INT_FAMILIES:
        group, autos = _INT_FAMILIES[family](_int_arg(family, raw_args))
    elif family == "direct_product":
        if len(raw_args) != 2:
            raise ParseError("direct_product takes two group specs")
        group, autos = _direct_product(builtin(raw_args[0]), builtin(raw_args[1]))
    elif family == "holomorph_ext":
        if len(raw_args) != 2:
            raise ParseError("holomorph_ext takes a group spec and an automorphism name")
        group, autos = _holomorph_ext(builtin(raw_args[0]), raw_args[1])
    else:
        raise ParseError(f"unknown builtin family {family!r}")
    return CorpusEntry(name or spec.replace(" ", ""), group, tuple(autos))


# Curated standard corpus: builtins spanning generalized Fitting heights
# 0..3 and insoluble lengths 0..1, plus the bundled .grp entries.
_SMALL_STD_BUILTINS = [
    ("a3", "alternating(3)"),
    ("a4", "alternating(4)"),
    ("a5", "alternating(5)"),
    ("a6", "alternating(6)"),
    ("a7", "alternating(7)"),
    ("c1", "cyclic(1)"),
    ("c12", "cyclic(12)"),
    ("c2", "cyclic(2)"),
    ("c3", "cyclic(3)"),
    ("c4", "cyclic(4)"),
    ("c5", "cyclic(5)"),
    ("c6", "cyclic(6)"),
    ("c7", "cyclic(7)"),
    ("c8", "cyclic(8)"),
    ("d3", "dihedral(3)"),
    ("d4", "dihedral(4)"),
    ("d5", "dihedral(5)"),
    ("d6", "dihedral(6)"),
    ("holo_c3_inv", "holomorph_ext(cyclic(3),inv)"),
    ("holo_c5_inv", "holomorph_ext(cyclic(5),inv)"),
    ("s3", "symmetric(3)"),
    ("s4", "symmetric(4)"),
    ("s5", "symmetric(5)"),
    ("s6", "symmetric(6)"),
    ("s7", "symmetric(7)"),
    ("sl2_3", "sl2(3)"),
    ("sl2_5", "sl2(5)"),
    ("sl2_7", "sl2(7)"),
]


def small_std() -> list[CorpusEntry]:
    """The bundled standard corpus, sorted by entry name."""
    entries = [builtin(spec, name) for name, spec in _SMALL_STD_BUILTINS]
    data_dir = resources.files("engelfit").joinpath("data")
    for item in sorted(data_dir.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".grp"):
            entries.append(parse_group_file(item.read_text(), provenance=f"data/{item.name}"))
    return _by_name(entries, "the standard corpus")


def _by_name(entries: list[CorpusEntry], where: str) -> list[CorpusEntry]:
    """`entries` sorted by name; a repeated name is a ParseError."""
    entries = sorted(entries, key=lambda e: e.name)
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate entry names in {where}")
    return entries


def parse_group_file(text: str, provenance: str = "<string>") -> CorpusEntry:
    """Parse the line-based group format; a ParseError names `provenance`.

    Grammar: ``name <id>``, ``degree <n>``, ``gen <cycles>``, then optional
    ``auto <id>`` blocks each followed by one ``map <cycles>`` line per
    generator in declaration order.  ``#`` starts a comment.
    """
    try:
        return _parse_group_text(text)
    except ParseError as exc:
        raise ParseError(f"{provenance}: {exc}") from exc


def _parse_group_text(text: str) -> CorpusEntry:
    name: Optional[str] = None
    degree: Optional[int] = None
    gens: list[Permutation] = []
    autos: list[tuple[str, list[Permutation]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if keyword == "name":
            if name is not None:
                raise ParseError(f"line {lineno}: repeated name line")
            if not re.fullmatch(r"[A-Za-z0-9_\-]+", rest):
                raise ParseError(f"line {lineno}: bad name {rest!r}")
            name = rest
        elif keyword == "degree":
            if degree is not None:
                raise ParseError(f"line {lineno}: repeated degree line")
            # the length test keeps int() off digit strings too long to convert
            if (not rest.isdecimal() or len(rest.lstrip("0")) > len(str(MAX_DEGREE))
                    or not 1 <= int(rest) <= MAX_DEGREE):
                raise ParseError(f"line {lineno}: bad degree {rest[:20]!r} "
                                 f"(must be 1..{MAX_DEGREE})")
            degree = int(rest)
        elif keyword == "gen":
            if degree is None:
                raise ParseError(f"line {lineno}: gen before degree")
            if autos:
                raise ParseError(f"line {lineno}: gen after auto block")
            try:
                gens.append(parse_cycles(rest, degree))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        elif keyword == "auto":
            if not rest:
                raise ParseError(f"line {lineno}: auto needs a name")
            autos.append((rest, []))
        elif keyword == "map":
            if not autos:
                raise ParseError(f"line {lineno}: map outside an auto block")
            if degree is None:
                raise ParseError(f"line {lineno}: map before degree")
            try:
                autos[-1][1].append(parse_cycles(rest, degree))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        else:
            raise ParseError(f"line {lineno}: unknown keyword {keyword!r}")
    if name is None:
        raise ParseError("missing name line")
    if degree is None:
        raise ParseError("missing degree line")
    if not gens:
        raise ParseError("missing gen lines")
    group = close_group(gens)
    built_autos = []
    for auto_name, images in autos:
        if len(images) != len(gens):
            raise ParseError(
                f"automorphism {auto_name!r} of group {name!r} has {len(images)} "
                f"map lines for {len(gens)} generators")
        try:
            built_autos.append((auto_name, make_automorphism(group, images)))
        except Exception as exc:
            raise ParseError(
                f"automorphism {auto_name!r} of group {name!r} is invalid: {exc}") from exc
    return CorpusEntry(name, group, tuple(built_autos))


def serialize_group_file(entry: CorpusEntry) -> str:
    """Emit the .grp text for an entry (generators and automorphism maps)."""
    lines = [f"name {entry.name}", f"degree {entry.group.degree}"]
    for g in entry.group.generators:
        lines.append(f"gen {format_cycles(g)}")
    for auto_name, alpha in entry.automorphisms:
        lines.append(f"auto {auto_name}")
        for g in entry.group.generators:
            lines.append(f"map {format_cycles(alpha.apply(g))}")
    return "\n".join(lines) + "\n"


def load_corpus(directory) -> list[CorpusEntry]:
    """Parse every .grp file in a directory, sorted by entry name."""
    path = Path(directory)
    if not path.is_dir():
        raise ParseError(f"corpus directory {directory!r} does not exist")
    entries = [parse_group_file(f.read_text(), provenance=str(f))
               for f in sorted(path.glob("*.grp"))]
    return _by_name(entries, f"corpus {directory!r}")


def get_corpus(selector: str) -> tuple[str, list[CorpusEntry]]:
    """Resolve a corpus selector: ``builtin:small-std``, a builtin spec, or a directory."""
    if selector == "builtin:small-std":
        return "small-std", small_std()
    if selector.startswith("builtin:"):
        entry = builtin(selector[len("builtin:"):])
        return entry.name, [entry]
    name = Path(selector).name or "corpus"
    return name, load_corpus(selector)
