"""Executable bijections between four families counted by the same
sequence (1, 4, 14, 48, 164, ...):

  * colored compositions of n+1 in which a part of size i carries a
    nonempty subset of its cells as its color (2^i - 1 choices);
  * growth sequences of n construction moves over {1, 2, 3, 4} in which
    a 4 never directly follows a 2 or 3;
  * 4-ary words of length n avoiding the adjacent pairs 2-4 and 3-4;
  * 4-ary words of length n avoiding the adjacent pairs 1-3 and 2-4;

plus the separate bijection from ternary words (no 1-3, no equal
neighbors, first letter 2) onto square-and-domino tilings.

Each word family is an alphabet size and a set of banned adjacent pairs,
streamed by the oracle's pruned walk and tested against the same data: a
word is read as bytes, and one compiled pattern per family, built from
that data, finds a letter outside 1..k, a banned pair or a banned first
letter; the guards take bytes as they are.  The two rewriting maps make
their input bytes once, test and rewrite those bytes, and test the bytes
they produce.  Each is one substitution over the bytes, one match per run,
so its time is linear in the word, and a word with no run to rewrite
skips it.

A colored composition is drawn as a row of dots separated by bars, with
the colored cells circled; every gap between bars holds at least one
circled dot.  The four moves grow such a picture one dot at a time:

  1 -- append a bar and then a circled dot (start a new part);
  2 -- append a circled dot;
  3 -- append a plain dot;
  4 -- insert a plain dot directly before the last circled dot.

Replaying a picture left to right emits each part as: one move 4 per
plain dot before the part's first circled dot, then moves 2/3 for the
remaining circled/plain dots; parts after the first are opened by a
move 1.  That convention makes the encoding a bijection -- within a
part, the leading plain dots can only ever be produced by 4s right
after the part is opened.

So a move sequence is one segment per part, the segments joined by move
1, and a part's segment depends on the part alone.  The encoder joins
segments read from a table keyed by part, and the replay splits the moves
at each 1 and reads each part from a table keyed by segment.

Every part of at most 11 cells is one shared object, built and checked
once, the first time its size is needed; the two tables hold it and its
segment, and are never evicted.  The menus of `colored_compositions` and
the replay hand out that object, and `ColoredComposition` accepts a part
that is it with one lookup of its id.  Any other part, equal to a shared
one or not, is checked in full, and its segment or part is computed on
each read and never stored.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter

from .algebra import InternalInvariantViolation, _Frozen
from .oracle import _walk, words


class InvalidComposition(ValueError):
    """A part has an empty color set or is otherwise malformed."""


class InvalidSequence(ValueError):
    """A move sequence breaks the no-4-after-2-or-3 rule."""


class InvalidWord(ValueError):
    """A word is outside the family a map expects."""


Part = tuple[int, frozenset]


class ColoredComposition(_Frozen):
    """A composition whose part of size i carries a nonempty subset of
    [1, i] as its color."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Part, ...]):
        try:
            object.__setattr__(self, "parts", tuple(parts))
        except TypeError:
            raise InvalidComposition(f"parts {parts!r} are not a sequence of parts") from None
        self.__post_init__()

    def __post_init__(self):
        if not self.parts:
            raise InvalidComposition("a composition has at least one part")
        # a shared part passed _check_part when its table entry was built,
        # and the table keeps it alive, so a part whose id it holds is that
        # part.  Any other part is checked in full and stored as (size,
        # frozenset of cells)
        for part in self.parts:
            if id(part) not in _SHARED:
                object.__setattr__(self, "parts", tuple(
                    p if id(p) in _SHARED else _check_part(p) for p in self.parts))
                return

    @property
    def total(self) -> int:
        return sum(size for size, _ in self.parts)


def _check_part(part) -> Part:
    """Raise InvalidComposition naming the first check that `part` fails;
    return it as (size, frozenset of cells) if it passes them all."""
    try:
        size, colored = part
    except (TypeError, ValueError):
        raise InvalidComposition(f"part {part!r} is not a (size, colors) pair") from None
    if type(size) is not int:
        raise InvalidComposition(f"part size {size!r} is not an integer")
    if size < 1:
        raise InvalidComposition(f"part size {size} < 1")
    # an iterator of cells, which one read would use up, has no length
    try:
        len(colored)
        cells = set(colored)
    except TypeError:
        raise InvalidComposition(f"colors {colored!r} are not a set of cells") from None
    if not cells:
        raise InvalidComposition("a part has an empty color set")
    try:
        integral = type(sum(cells)) is int
    except TypeError:
        integral = False
    if not integral:
        raise InvalidComposition(f"colors {cells} are not all integers")
    if min(cells) < 1 or max(cells) > size:
        raise InvalidComposition(f"colors {cells} outside [1, {size}]")
    return size, frozenset(cells)


def _part_moves(size: int, cells: frozenset) -> bytes:
    """The moves of one part after it is opened: a 4 for each plain dot
    before its first circled dot, then a 2 for each later circled dot and
    a 3 for each plain one.  The move at index i builds cell i + 2."""
    first = min(cells)
    moves = bytearray(b"\x04" * (first - 1) + b"\x03" * (size - first))
    for cell in cells:
        if cell > first:
            moves[cell - 2] = 2
    return bytes(moves)


def _segment_part(moves: bytes) -> Part:
    """The part that one segment of moves builds: inverse of _part_moves."""
    first = len(moves) - len(moves.lstrip(b"\x04")) + 1
    return len(moves) + 1, frozenset([first, *(cell for cell, move in enumerate(moves, 2)
                                               if move == 2)])


# Every part of at most 11 cells, 4,083 parts, which is every part of the
# compositions of the default `verify` grid, is built once, checked by
# _check_part and shared: the menus of colored_compositions and the replay
# hand out that one object, and the composition guard accepts it by its id.
# Larger parts are never put in these tables, which are never evicted.
_SHARED_CELLS = 11


class _Moves(dict):
    """A shared part -> its moves.  Any other part's moves are computed on
    each read."""

    def __missing__(self, part: Part) -> bytes:
        return _part_moves(*part)


class _Parts(dict):
    """A shared part's moves -> the part.  A segment it misses builds its
    size's menu if that size is shared, and is read again; any other
    segment's part is computed on each read."""

    def __missing__(self, moves: bytes) -> Part:
        if len(moves) < _SHARED_CELLS:
            _menu(len(moves) + 1)
        return self.get(moves) or _segment_part(moves)


_MENUS: dict[int, tuple[Part, ...]] = {}  # size -> its shared parts, in menu order
_MOVES = _Moves()
_PARTS = _Parts()
_SHARED: dict[int, Part] = {}  # id of a shared part -> the part


def _colorings(size: int) -> list[Part]:
    """Every part of `size` cells, one per nonempty color set, in a fixed
    order."""
    cells = range(1, size + 1)
    return [(size, frozenset(sub)) for r in cells for sub in itertools.combinations(cells, r)]


def _menu(size: int):
    """Every part of `size` cells: up to _SHARED_CELLS cells the shared
    parts, built and checked on the first call; past it new, unchecked
    ones."""
    if size > _SHARED_CELLS:
        return _colorings(size)
    menu = _MENUS.get(size)
    if menu is None:
        menu = tuple(map(_check_part, _colorings(size)))
        for part in menu:
            moves = _MOVES[part] = _part_moves(*part)
            _PARTS[moves] = _SHARED[id(part)] = part
        # published last, so a menu read from _MENUS holds only shared parts
        _MENUS[size] = menu
    return menu


def composition_to_maneuvers(comp: ColoredComposition) -> tuple[int, ...]:
    """Encode a colored composition of n+1 as its n construction moves."""
    # each part's moves, the parts after the first opened by a 1
    return tuple(b"\x01".join(map(_MOVES.__getitem__, comp.parts)))


def maneuvers_to_composition(ops) -> ColoredComposition:
    """Replay construction moves from the single circled dot, one part per
    segment between moves 1.  The moves are made bytes once, and the guard
    and the segments read those bytes."""
    ops = tuple(ops)
    moves = _as_bytes(ops)
    try:
        maneuvers_to_v_word(moves)
    except InvalidSequence:
        maneuvers_to_v_word(ops)  # the refusal names the letters as given
        raise
    return ColoredComposition([_PARTS[segment] for segment in moves.split(b"\x01")])


def maneuvers_to_v_word(ops) -> tuple[int, ...]:
    """A move sequence read letter-for-letter as a 4-ary word; valid
    sequences are exactly the words avoiding adjacent 2-4 and 3-4.  Bytes
    are read as their letters."""
    letters = ops if type(ops) is bytes else tuple(ops)
    if not is_v_word(letters):
        raise InvalidSequence(f"moves must be in 1..4, with no 4 right after a 2 or 3: "
                              f"{tuple(letters)}")
    return tuple(letters)


# Each word family: alphabet 1..k and its banned adjacent pairs, where a
# pair (0, b) bars b as the first letter.
_V_FAMILY = {"k": 4, "banned": frozenset({(2, 4), (3, 4)})}
_W_FAMILY = {"k": 4, "banned": frozenset({(1, 3), (2, 4)})}
_JPP_FAMILY = {"k": 3, "banned": frozenset({(1, 1), (2, 2), (3, 3), (1, 3), (0, 1), (0, 3)})}


def _flaw_pattern(k, banned) -> re.Pattern:
    """The pattern that finds, in a word's bytes, a letter outside 1..k, a
    banned adjacent pair or a banned first letter."""
    flaws = [b"[^\x01-" + re.escape(bytes([k])) + b"]"]
    flaws += [(rb"\A" if a == 0 else re.escape(bytes([a]))) + re.escape(bytes([b]))
              for a, b in sorted(banned)]
    return re.compile(b"|".join(flaws))


_V_FLAW, _W_FLAW, _JPP_FLAW = (_flaw_pattern(**f) for f in (_V_FAMILY, _W_FAMILY, _JPP_FAMILY))


def _as_bytes(word: tuple):
    """The letters of `word` as bytes, or `word` itself if bytes() cannot
    take one of them: a float, a string or an int outside 0..255."""
    try:
        return bytes(word)
    except (TypeError, ValueError):
        return word


def _in_family(word, flaw) -> bool:
    # bytes are read as they are.  Any other word is made a tuple first, so
    # that bytes() never reads a number as a length or a buffer as raw
    # bytes; a letter that bytes() cannot take is in no family
    if type(word) is not bytes:
        word = _as_bytes(tuple(word))
        if type(word) is not bytes:
            return False
    return flaw.search(word) is None


def _not_in_family(word, flaw, pairs) -> InvalidWord:
    """Why `word` is outside a family over 1..4 that bans `pairs`."""
    bad = [c for c in word if not _in_family((c,), flaw)]
    return InvalidWord(f"{word} has letter {bad[0]!r} outside 1..4" if bad
                       else f"{word} contains {pairs}")


def is_v_word(word) -> bool:
    """Member of the family avoiding adjacent 2-4 and 3-4."""
    return _in_family(word, _V_FLAW)


def is_w_word(word) -> bool:
    """Member of the family avoiding adjacent 1-3 and 2-4."""
    return _in_family(word, _W_FLAW)


# A maximal run 1^d 3 (d >= 1) and a run 3 4^d (d >= 1).  The lookbehind
# starts a match only at a run's first 1, so a long run of 1s that no 3
# ends is scanned once, not once per letter.
_ONES_THEN_3 = re.compile(rb"(?<!\x01)\x01+\x03")
_3_THEN_FOURS = re.compile(rb"\x03\x04+")


def _to_3_fours(run: re.Match) -> bytes:
    return b"\x03" + b"\x04" * (len(run[0]) - 1)


def _to_ones_3(run: re.Match) -> bytes:
    return b"\x01" * (len(run[0]) - 1) + b"\x03"


def v_to_w(word) -> tuple[int, ...]:
    """Rewrite each maximal run 1^d 3 as 3 4^d (d >= 0), mapping words
    avoiding 2-4/3-4 onto words avoiding 1-3/2-4."""
    word = tuple(word)
    letters = _as_bytes(word)
    if not is_v_word(letters):
        raise _not_in_family(word, _V_FLAW, "2-4 or 3-4")
    if b"\x01\x03" in letters:  # a word with no 1-3 has no run to rewrite
        letters = _ONES_THEN_3.sub(_to_3_fours, letters)
    if not is_w_word(letters):
        raise InternalInvariantViolation(f"v_to_w produced {tuple(letters)}, not a w-word")
    return tuple(letters)


def w_to_v(word) -> tuple[int, ...]:
    """Inverse of v_to_w: rewrite each maximal run 3 4^d as 1^d 3."""
    word = tuple(word)
    letters = _as_bytes(word)
    if not is_w_word(letters):
        raise _not_in_family(word, _W_FLAW, "1-3 or 2-4")
    if b"\x03\x04" in letters:  # a word with no 3-4 has no run to rewrite
        letters = _3_THEN_FOURS.sub(_to_ones_3, letters)
    if not is_v_word(letters):
        raise InternalInvariantViolation(f"w_to_v produced {tuple(letters)}, not a v-word")
    return tuple(letters)


def is_level_free_no13_start2(word) -> bool:
    """Ternary, no adjacent equal letters, no adjacent 1-3, first letter 2."""
    return _in_family(word, _JPP_FLAW)


def jpp_to_tiling(word) -> tuple[int, ...]:
    """Map a level-free no-1-3 word starting with 2 onto a tiling, given as
    piece lengths (1 = square, 2 = domino).

    Scanning right to left, each rightmost available 2-1 or 3-2 factor is
    paired into a domino; everything left over becomes a square.
    """
    word = tuple(word)
    if not is_level_free_no13_start2(word):
        raise InvalidWord(f"{word} is not a level-free no-1-3 word starting with 2")
    pieces = []
    i = len(word) - 1
    while i >= 0:
        if i >= 1 and (word[i - 1], word[i]) in ((2, 1), (3, 2)):
            pieces.append(2)
            i -= 2
        else:
            pieces.append(1)
            i -= 1
    return tuple(reversed(pieces))


# Left-to-right letter choices forced by the greedy right-to-left pairing:
# after each previous letter there is exactly one letter that starts a
# square without creating a pairable factor, and exactly one legal domino.
_SQUARE_AFTER = {None: 2, 1: 2, 2: 3, 3: 1}
_DOMINO_AFTER = {None: (2, 1), 1: (2, 1), 2: (3, 2), 3: (2, 1)}


def tiling_to_jpp(tiling) -> tuple[int, ...]:
    """Inverse of jpp_to_tiling."""
    tiling = tuple(tiling)
    if not all(type(piece) is int and piece in (1, 2) for piece in tiling):
        raise InvalidWord(f"pieces must have length 1 or 2, got {tiling}")
    out: list[int] = []
    prev = None
    for piece in tiling:
        if piece == 1:
            out.append(_SQUARE_AFTER[prev])
        else:
            out.extend(_DOMINO_AFTER[prev])
        prev = out[-1]
    return tuple(out)


def colored_compositions(total: int):
    """All colored compositions of `total`, in a fixed deterministic order."""
    if total < 1:
        raise ValueError("need total >= 1")

    menus = {}  # part size -> every (size, color) part, read once per call
    # the part sizes, as a word over {1, 2} saying after each of the first
    # total - 1 cells whether a part ends (1) or goes on (2)
    for cuts in words(2, total - 1):
        sizes = []
        size = 1
        for c in cuts:
            if c == 1:
                sizes.append(size)
                size = 1
            else:
                size += 1
        sizes.append(size)
        for size in sizes:
            if size not in menus:
                menus[size] = _menu(size)
        for parts in itertools.product(*map(menus.__getitem__, sizes)):
            yield ColoredComposition(parts)


_WORD = itemgetter(0)  # the word of a walk's (word, key, top) item


def v_words(n: int):
    """All 4-ary words of length n avoiding adjacent 2-4 and 3-4."""
    return map(_WORD, _walk(n=n, **_V_FAMILY))


def w_words(n: int):
    """All 4-ary words of length n avoiding adjacent 1-3 and 2-4."""
    return map(_WORD, _walk(n=n, **_W_FAMILY))


def jpp_words(n: int):
    """All level-free no-1-3 ternary words of length n starting with 2."""
    return map(_WORD, _walk(n=n, **_JPP_FAMILY))


def tilings(n: int):
    """All square-and-domino tilings of a strip of length n, as tuples of
    piece lengths."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        yield ()
        return
    for t in tilings(n - 1):
        yield t + (1,)
    if n >= 2:
        for t in tilings(n - 2):
            yield t + (2,)
