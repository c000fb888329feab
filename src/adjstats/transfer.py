"""Last-letter transfer-matrix counting on k-ary words (Stanley, EC1 4.7).

Every adjacent pair (a, b) of a word carries a weight read off its
difference b - a, and a word weighs the product of its pairs' weights.
A pair whose difference is banned weighs 0; any other pair weighs p if
its difference is in `first`, times q if it is in `second`, and 1 if in
neither.  Rises by s, jumps of size s, levels and ascents on words
avoiding 1-3, and words with no rise are all this one count: only the
three sets of differences change.

Row n of the table depends only on row n - 1, so the table for length N
holds every shorter length too.  One table is stored per (k, banned,
first, second); it keeps the total of every length and the last row
only, grows on demand, and a shorter request reads its prefix.

Many letters share one entry in every row: the letters at one place of
their chains a, a+s, a+2s, ... for rises by s, the outer letters of the
middle band for jumps.  A table fills one entry per class of such
letters.  The classes are the coarsest partition of the alphabet on which
every row is constant: row 1 is all ones, so refinement starts from one
class, and it splits letters by the summed coefficient of their weights
less 1 from each class, monomial by monomial, until no class splits
(lumpability, Kemeny and Snell, Finite Markov Chains, 1960, 6.3).  Entry
C of row n is then total[n-1] plus those summed terms times row n - 1,
and total n sums |C| entry C.  `fresh_rows` fills the same step over
singleton classes, so each letter's entry is computed on its own.

Every entry is one Python int.  A polynomial entry is stored as its value
at q = 2^w, and a PQPoly one also at p = 2^(wD), D above every q-degree
an entry reaches (Kronecker substitution; Schonhage 1982): the
coefficient of p^i q^j is the signed w-bit digit at bit w(iD + j).
Multiplying by a weight is then a few shifts and adds.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence

from .algebra import PQPoly, QPoly

# (k, banned, first, second) -> _Table.  The lock keeps two threads from
# appending the same length twice, or decoding the same total twice.
_tables: dict = {}
_lock = threading.Lock()


def transfer_dp(k: int, order: int, banned: tuple = (), first: tuple = (),
                second: tuple = ()) -> Sequence:
    """The summed weights of the words of lengths 0..order, read off the
    last-letter DP.

    `banned`, `first` and `second` are tuples of differences b - a; the
    weights lie in PQPoly when `first` is given, in QPoly when only
    `second` is, and in int otherwise.  Appending i to a word ending in j
    multiplies its weight by weight(j, i), so

        row[i] = total[n-1] + sum over j of (weight(j, i) - 1) row[j],

    which touches only the pairs whose difference is in one of the sets.
    An integer table returns a list; a polynomial table returns a sequence
    that decodes each total the first time it is read.
    """
    if k < 1 or order < 0:
        raise ValueError("need k >= 1 and order >= 0")
    key = (k, banned, first, second)
    with _lock:
        table = _tables.get(key)
        if table is None:
            table = _tables[key] = _Table(k, banned, first, second, order)
        elif order > table.capacity:
            table.refill(max(order, 2 * table.capacity))
        table.extend(order)
        if table.ring is int:
            return table.totals[: order + 1]
    return _Totals(table, order + 1)


def fresh_rows(k: int, order: int, banned: tuple = (), first: tuple = (),
               second: tuple = ()) -> list:
    """rows[n][i-1] is the summed weight of the words of length n ending in
    the letter i, for n = 0..order; filled fresh and stored nowhere."""
    if k < 1 or order < 0:
        raise ValueError("need k >= 1 and order >= 0")
    table = _Table(k, banned, first, second, order, [[i] for i in range(k)])
    row, total = table.row, table.totals[-1]
    rows = [(), tuple(map(table.decode, row))]
    for _ in range(2, order + 1):
        row, total = _next_row(table.into, row, total)
        rows.append(tuple(map(table.decode, row)))
    return rows[: order + 1]


def _next_row(into, prev_row, prev_total):
    """Row n and its total from row n - 1 and total n - 1: into[C] is the
    size of class C and the (D, shift, c) terms of row[C] - total[n-1],
    each c * prev_row[D] shifted left by `shift` bits."""
    row, total = [], 0
    for size, terms in into:
        entry = prev_total
        for d, shift, c in terms:
            x = prev_row[d] << shift
            if c == 1:
                entry += x
            elif c == -1:
                entry -= x
            else:
                entry += c * x
        row.append(entry)
        total += entry if size == 1 else size * entry
    return row, total


def _classes(k, terms):
    """The coarsest partition of the letters 0..k-1 on which every row is
    constant, from terms[i], the (j, exps, c) terms of letter i: two
    letters share a class when, for each class D and each exponent tuple,
    the coefficients c of their terms from D sum alike.

    One class is split at a time by the summed terms from one splitter
    class, the whole alphabet first.  A split class queues its pieces as
    splitters, all but its largest unless it was queued itself: the sum
    over that piece is the sum over the class less the others (Hopcroft
    1971; Valmari and Franceschinis 2010), so a letter is summed over
    O(log k) times.  Classes are listed by their first letter."""
    readers = [[] for _ in range(k)]
    for i, letter_terms in enumerate(terms):
        for j, exps, c in letter_terms:
            readers[j].append((i, exps, c))
    blocks, block_of = [set(range(k))], [0] * k
    todo, queued = [0], {0}
    while todo:
        b = todo.pop()
        queued.discard(b)
        sums = {}
        for j in blocks[b]:
            for i, exps, c in readers[j]:
                got = sums.setdefault(i, {})
                got[exps] = got.get(exps, 0) + c
        moving = {}  # block -> signature -> letters; a zero sum stays put
        for i, got in sums.items():
            signature = frozenset(item for item in got.items() if item[1])
            if signature:
                moving.setdefault(block_of[i], {}).setdefault(signature, []).append(i)
        for y, groups in moving.items():
            groups = list(groups.values())
            if len(groups) == 1 and len(groups[0]) == len(blocks[y]):
                continue
            for letters in groups:
                blocks[y].difference_update(letters)
            if not blocks[y]:
                blocks[y] = set(groups.pop())
            pieces = [y]
            for letters in groups:
                pieces.append(len(blocks))
                blocks.append(set(letters))
                for i in letters:
                    block_of[i] = pieces[-1]
            if y not in queued:
                pieces.remove(max(pieces, key=lambda x: len(blocks[x])))
            todo += [x for x in pieces if x not in queued]
            queued.update(pieces)
    return sorted(sorted(block) for block in blocks)


class _Table:
    """One (k, banned, first, second): the packed totals of lengths 0..n,
    the packed row of length n, one entry per class of letters, and the
    packing they share.

    The width w is chosen for every length up to `capacity`.  A word of
    length m weighs a product of m - 1 weights, each 0 or a monomial, so
    no coefficient of an entry exceeds k^m; w is that bound's bit length
    plus a sign bit, in whole bytes.  D is one more than the largest
    q-degree an entry can reach.  Integer tables are not packed and never
    outgrow their capacity.

    `classes` partitions the letters 0..k-1; by default it is the coarsest
    one on which every row is constant."""

    __slots__ = ("k", "ring", "terms", "degree", "capacity", "width", "stride",
                 "into", "row", "totals", "decoded")

    def __init__(self, k, banned, first, second, capacity, classes=None):
        self.ring = PQPoly if first else QPoly if second else int
        marked = (first, second) if first else (second,) if second else ()
        const = (0,) * len(marked)  # the exponents of 1
        # terms[i]: the (j, exps, c) terms of weight(j, i) - 1, for letters
        # from 0; a banned pair gives -1, a marked one its monomial less 1
        self.k, self.degree, terms = k, 0, [[] for _ in range(k)]
        for d in {*banned, *first, *second}:
            exps = () if d in banned else tuple(int(d in diffs) for diffs in marked)
            for i in range(max(0, d), min(k, k + d)):
                terms[i].append((i - d, const, -1))
                if exps:
                    terms[i].append((i - d, exps, 1))
                    self.degree = max(self.degree, exps[-1])
        if classes is None:
            classes = _classes(k, terms)
        class_of = {i: d for d, letters in enumerate(classes) for i in letters}
        # (size, (D, exps, c) terms) per class, read off its first letter
        self.terms = []
        for letters in classes:
            summed = {}
            for j, exps, c in terms[letters[0]]:
                summed[class_of[j], exps] = summed.get((class_of[j], exps), 0) + c
            self.terms.append((len(letters), [(d, exps, c) for (d, exps), c in summed.items()
                                              if c]))
        self.decoded = {}
        self.refill(capacity)

    def refill(self, capacity):
        """Choose the packing for lengths up to `capacity` and start over
        from length 1; totals already decoded stay."""
        if self.ring is int:
            capacity, strides = math.inf, ()
        else:
            capacity = max(capacity, 1)
            self.width = w = ((self.k**capacity).bit_length() + 8) // 8 * 8
            self.stride = self.degree * (capacity - 1) + 1
            strides = (w,) if self.ring is QPoly else (w * self.stride, w)
        self.capacity = capacity
        self.into = [(size, [(d, sum(e * s for e, s in zip(exps, strides)), c)
                             for d, exps, c in terms])
                     for size, terms in self.terms]
        self.row, self.totals = [1] * len(self.terms), [1, self.k]

    def extend(self, order):
        """Append the totals of lengths up to `order`."""
        totals = self.totals
        row, total = self.row, totals[-1]
        for _ in range(len(totals), order + 1):
            row, total = _next_row(self.into, row, total)
            totals.append(total)
        self.row = row

    def decode(self, packed):
        """The ring element whose packed value is `packed`: each digit is
        read off the bytes of `packed` plus 2^(w-1) at every digit."""
        if self.ring is int:
            return packed
        w = self.width
        size, count = w // 8, abs(packed).bit_length() // w + 1
        bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        data = (packed + bias).to_bytes(size * count, "little")
        half = 1 << (w - 1)
        digits = [int.from_bytes(data[i:i + size], "little") - half
                  for i in range(0, len(data), size)]
        if self.ring is QPoly:
            return QPoly(digits)
        d = self.stride
        return PQPoly([QPoly(digits[i:i + d]) for i in range(0, len(digits), d)])

    def total(self, n):
        """The decoded total of length n, decoded once per table."""
        with _lock:
            got = self.decoded.get(n)
            if got is None:
                got = self.decoded[n] = self.decode(self.totals[n])
            return got


class _Totals(Sequence):
    """The totals of lengths 0..len - 1 of a stored polynomial table."""

    __slots__ = ("_table", "_len")

    def __init__(self, table, length):
        self._table, self._len = table, length

    def __len__(self):
        return self._len

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(*n.indices(self._len))]
        if not -self._len <= n < self._len:
            raise IndexError("length out of range")
        n %= self._len
        # a total once decoded never changes, so it is read without the lock
        got = self._table.decoded.get(n)
        return got if got is not None else self._table.total(n)
