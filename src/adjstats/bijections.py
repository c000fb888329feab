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
streamed by the oracle's pruned walk and tested against the same data.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .algebra import InternalInvariantViolation
from .oracle import _walk, words


class InvalidComposition(ValueError):
    """A part has an empty color set or is otherwise malformed."""


class InvalidSequence(ValueError):
    """A move sequence breaks the no-4-after-2-or-3 rule."""


class InvalidWord(ValueError):
    """A word is outside the family a map expects."""


Part = tuple[int, frozenset]


@dataclass(frozen=True, slots=True)
class ColoredComposition:
    """A composition whose part of size i carries a nonempty subset of
    [1, i] as its color."""

    parts: tuple[Part, ...]

    def __post_init__(self):
        # one test per part when every part is valid; _reject_part then
        # names the first check that fails.  The sum of the cells is an
        # int only if every cell is one (a float or Fraction cell makes it
        # a float or Fraction)
        for size, colored in self.parts:
            if not (type(size) is int and size >= 1 and colored and type(sum(colored)) is int
                    and min(colored) >= 1 and max(colored) <= size):
                _reject_part(size, colored)

    @property
    def total(self) -> int:
        return sum(size for size, _ in self.parts)


def _reject_part(size, colored):
    if type(size) is not int:
        raise InvalidComposition(f"part size {size!r} is not an integer")
    if size < 1:
        raise InvalidComposition(f"part size {size} < 1")
    if not colored:
        raise InvalidComposition("a part has an empty color set")
    if type(sum(colored)) is not int:
        raise InvalidComposition(f"colors {set(colored)} are not all integers")
    raise InvalidComposition(f"colors {set(colored)} outside [1, {size}]")


def composition_to_maneuvers(comp: ColoredComposition) -> tuple[int, ...]:
    """Encode a colored composition of n+1 as its n construction moves."""
    if not comp.parts:
        raise InvalidComposition("a composition has at least one part")
    ops = []
    for size, colored in comp.parts:
        # a part's moves (opened by a 1): 4s up to its first circled dot, then
        # a 2 for each later circled dot and a 3 for each plain one
        first = min(colored)
        ops.append(1)
        if first > 1:
            ops += (4,) * (first - 1)
        if size > first:
            ops += (3,) * (size - first)
            if len(colored) > 1:
                before = len(ops) - size - 1  # ops[before + pos] is cell pos's move
                for pos in range(first + 1, size + 1):
                    if pos in colored:
                        ops[before + pos] = 2
    del ops[0]  # the first part is not opened by a move
    return tuple(ops)


def maneuvers_to_composition(ops) -> ColoredComposition:
    """Replay construction moves from the single circled dot."""
    ops = maneuvers_to_v_word(ops)
    parts = []
    size, circled = 1, [1]  # the open part's size and its circled positions
    for op in ops:
        if op == 1:
            parts.append((size, frozenset(circled)))
            size, circled = 1, [1]
        else:
            size += 1
            if op == 2:
                circled.append(size)
            elif op == 4:
                # a 4 follows only a 1 or a 4, so the part has one circled
                # dot, and the new plain dot goes before it
                circled[0] = size
    parts.append((size, frozenset(circled)))
    return ColoredComposition(tuple(parts))


def maneuvers_to_v_word(ops) -> tuple[int, ...]:
    """A move sequence read letter-for-letter as a 4-ary word; valid
    sequences are exactly the words avoiding adjacent 2-4 and 3-4."""
    ops = tuple(ops)
    if not is_v_word(ops):
        raise InvalidSequence(f"moves must be in 1..4, with no 4 right after a 2 or 3: {ops}")
    return ops


# Each word family: alphabet 1..k and its banned adjacent pairs, where a
# pair (0, b) bars b as the first letter.
_V_FAMILY = {"k": 4, "banned": frozenset({(2, 4), (3, 4)})}
_W_FAMILY = {"k": 4, "banned": frozenset({(1, 3), (2, 4)})}
_JPP_FAMILY = {"k": 3, "banned": frozenset({(1, 1), (2, 2), (3, 3), (1, 3), (0, 1), (0, 3)})}

# the pairs (a, b), a in 0..k and b in 1..k, that each family allows
_V_ALLOWED, _W_ALLOWED, _JPP_ALLOWED = (
    frozenset(itertools.product(range(f["k"] + 1), range(1, f["k"] + 1))) - f["banned"]
    for f in (_V_FAMILY, _W_FAMILY, _JPP_FAMILY))


def _in_family(word, allowed) -> bool:
    word = tuple(word)
    return allowed.issuperset(zip((0,) + word, word))


def _not_in_family(word, pairs) -> InvalidWord:
    """Why `word` is outside a family over 1..4 that bans `pairs`."""
    bad = [c for c in word if not 1 <= c <= 4]
    return InvalidWord(f"{word} has letter {bad[0]} outside 1..4" if bad
                       else f"{word} contains {pairs}")


def is_v_word(word) -> bool:
    """Member of the family avoiding adjacent 2-4 and 3-4."""
    return _in_family(word, _V_ALLOWED)


def is_w_word(word) -> bool:
    """Member of the family avoiding adjacent 1-3 and 2-4."""
    return _in_family(word, _W_ALLOWED)


def v_to_w(word) -> tuple[int, ...]:
    """Rewrite each maximal run 1^d 3 as 3 4^d (d >= 0), mapping words
    avoiding 2-4/3-4 onto words avoiding 1-3/2-4."""
    word = tuple(word)
    if not is_v_word(word):
        raise _not_in_family(word, "2-4 or 3-4")
    out = list(word)
    # right to left, each 1 right before a 3 swaps into 3 4, so the 3 moves
    # to the front of its run of 1s and leaves a 4 behind for each
    for i in range(len(out) - 2, -1, -1):
        if out[i] == 1 and out[i + 1] == 3:
            out[i] = 3
            out[i + 1] = 4
    result = tuple(out)
    if not is_w_word(result):
        raise InternalInvariantViolation(f"v_to_w produced {result}, not a w-word")
    return result


def w_to_v(word) -> tuple[int, ...]:
    """Inverse of v_to_w: rewrite each maximal run 3 4^d as 1^d 3."""
    word = tuple(word)
    if not is_w_word(word):
        raise _not_in_family(word, "1-3 or 2-4")
    out = list(word)
    # left to right, each 4 right after a 3 swaps into 1 3, so the 3 moves
    # to the end of its run of 4s and leaves a 1 behind for each
    for i in range(1, len(out)):
        if out[i] == 4 and out[i - 1] == 3:
            out[i - 1] = 1
            out[i] = 3
    result = tuple(out)
    if not is_v_word(result):
        raise InternalInvariantViolation(f"w_to_v produced {result}, not a v-word")
    return result


def is_level_free_no13_start2(word) -> bool:
    """Ternary, no adjacent equal letters, no adjacent 1-3, first letter 2."""
    return _in_family(word, _JPP_ALLOWED)


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
    if not all(piece in (1, 2) for piece in tiling):
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

    menus = {}  # part size -> every (size, color) part, built once per call
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
                cells = range(1, size + 1)
                menus[size] = [(size, frozenset(sub)) for r in cells
                               for sub in itertools.combinations(cells, r)]
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
