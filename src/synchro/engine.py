"""Synchronization testing, exact reset thresholds, and constructive solvers.

All searches are deterministic: letters are expanded in index order and ties
between equal-length words are broken lexicographically, so repeated runs
reproduce the same words bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from synchro import core
from synchro.core import (
    CapExceeded,
    DomainError,
    NotSynchronizing,
    bits,
    union_mask,
)

EXTENSION_CAP = 16   # extension profiles: also bounds their k preimage arrays of 2^n masks


class NotExtensible(DomainError):
    """Some proper non-singleton subset admits no preimage-growing word."""

    def __init__(self, subset):
        self.subset = subset
        super().__init__(f"subset {sorted(subset)} is not extensible")


@dataclass(frozen=True)
class SolveResult:
    """A verified reset word together with the state it resets to."""

    word: tuple
    method: str
    target: int

    @property
    def length(self):
        return len(self.word)

    def to_json(self, d):
        return {
            "method": self.method,
            "word": core.word_names(d, self.word),
            "length": self.length,
            "target": self.target,
        }


@dataclass(frozen=True)
class ExtensibilityProfile:
    """Shortest extension lengths, keyed by subset size; alpha = max length / n."""

    n: int
    by_size: dict
    max_length: int

    @property
    def alpha(self):
        return Fraction(self.max_length, self.n)

    def extension_bound(self):
        """1 + alpha*n*(n-2), the reset length the extension method guarantees."""
        return 1 + self.max_length * (self.n - 2)


def _check_subset_cap(n, cap):
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the exhaustive-search cap {cap}")


def _finish(d, word, method):
    """Verify a candidate reset word and wrap it up. A failure here is a bug.

    Each state is walked through the word on its own: plain row lookups,
    cheaper than shrinking a state mask bit by bit."""
    rows = [d.delta[a] for a in word]
    ends = set()
    for q in range(d.n):
        for row in rows:
            q = row[q]
        ends.add(q)
    if len(ends) != 1:
        raise AssertionError(f"{method} produced a non-reset word {word!r}")
    return SolveResult(tuple(word), method, ends.pop())


@core.last_automaton
def _merge_levels(d):
    """Backward search in the pair automaton from the diagonal.

    levels[i] lists the pairs (p, q), p < q, whose shortest merging word
    has length i + 1; a pair that no word merges is in no level. The order
    inside a level is unspecified.

    Per letter a, inv_a[t] holds the states a maps to t, in index order.
    Level 0 is the pairs inside one such class; the predecessors of a pair
    (x, y) by a are exactly inv_a[x] × inv_a[y], and the ones not seen yet
    form the next level. "Seen" is one flat bytearray indexed by p·n + q
    with both orders marked. The search stops after the level that places
    the last of the n(n−1)/2 pairs, since no later level can add one.
    The result is shared (core.last_automaton) and must not be mutated.
    """
    n = d.n
    seen = bytearray(n * n)
    invs = []
    level = []
    for row in d.delta:
        inv = [[] for _ in range(n)]
        for q, t in enumerate(row):
            cls = inv[t]
            for p in cls:
                if not seen[p * n + q]:
                    seen[p * n + q] = seen[q * n + p] = 1
                    level.append((p, q))
            cls.append(q)
        invs.append(inv)
    levels = []
    left = n * (n - 1) // 2
    while level:
        levels.append(level)
        left -= len(level)
        if not left:
            break
        nxt = []
        for x, y in level:
            for inv in invs:
                ys = inv[y]
                if ys:
                    for p in inv[x]:
                        i = p * n
                        for q in ys:
                            if not seen[i + q]:
                                seen[i + q] = seen[q * n + p] = 1
                                nxt.append((p, q) if p < q else (q, p))
        level = nxt
    return levels


def is_synchronizing(d):
    """Decide synchronizability by merging pairs backward; no power-set search.

    The automaton synchronizes iff every pair of states has a merging word,
    that is, iff _merge_levels places all n(n−1)/2 pairs.
    """
    return sum(map(len, _merge_levels(d))) == d.n * (d.n - 1) // 2


def _merge_down(d, pick):
    """Shrink the full state set to one state by pair merging: (word, state).

    While the current set of states cur has two or more, pick(levels, cur)
    returns some of its pairs, all on one level of _merge_levels(d). Then
    each letter is the least one carrying some tracked pair one level lower,
    and only those pairs stay tracked: the piece is the least shortest word
    merging a picked pair. level_of[p·n + q] is the level of {p, q}, and -1
    on the diagonal, so a merged pair reads as level -1. Raises
    NotSynchronizing when some pair is on no level.
    """
    n = d.n
    levels = _merge_levels(d)
    if sum(map(len, levels)) != n * (n - 1) // 2:
        raise NotSynchronizing("automaton is not synchronizing")
    level_of = [-1] * (n * n)
    for i, level in enumerate(levels):
        for p, q in level:
            level_of[p * n + q] = level_of[q * n + p] = i
    word = []
    cur = set(range(n))
    while len(cur) > 1:
        pairs = pick(levels, cur)
        p, q = pairs[0]
        for want in range(level_of[p * n + q] - 1, -2, -1):
            for a, row in enumerate(d.delta):
                moved = [(row[p], row[q]) for p, q in pairs
                         if level_of[row[p] * n + row[q]] == want]
                if moved:
                    break
            word.append(a)
            cur = {row[q] for q in cur}
            pairs = moved
    return tuple(word), cur.pop()


def merge_probe_target(d):
    """A state the automaton can be reset to, found by repeated pair merging.

    Each step merges the two least states of the current set by their least
    shortest merging word (_merge_down).
    """
    return _merge_down(d, lambda levels, cur: [tuple(sorted(cur)[:2])])[1]


def _lowest_pairs(levels, cur):
    """The pairs inside cur on the lowest level that holds any."""
    for level in levels:
        pairs = [pair for pair in level if pair[0] in cur and pair[1] in cur]
        if pairs:
            return pairs


FIT_PACK = 64  # levels no wider than this are tested by one packed word
# _ABSENT[i][v] is "1" where bit i of the byte v is clear, "0" where it is set
_ABSENT = [(b"1" * (1 << i) + b"0" * (1 << i)) * (128 >> i) for i in range(8)]


def _fit_test(level, n):
    """A predicate: does a mask fit inside (is it a subset of) some mask of level?

    Two tiers by width. A level of at most FIT_PACK masks, the empty one
    included, is tested by one packed int that holds every member at once
    (_packed_fit): it costs one multiply per test and no tables. A wider
    level gets fit tables, 256 unions per 8-state chunk: the union tables
    of absent[q], whose bit t is set iff state q is not in level[t].
    The union over a mask's states misses bit t iff the mask fits level[t],
    so the mask fits some member iff the union is not all ones. It is taken
    one chunk at a time and the test stops at the first chunk that makes it
    all ones: later chunks only add bits. absent[q] is read off the level
    packed into bytes, last mask first: every mask's byte q // 8, translated
    to a binary digit by its bit q % 8.
    """
    if len(level) <= FIT_PACK:
        return _packed_fit(level, n)
    size = (n + 7) // 8
    packed = b"".join(t.to_bytes(size, "little") for t in reversed(level))
    first, *rest = core.union_tables([int(packed[q >> 3::size].translate(_ABSENT[q & 7]), 2)
                                      for q in range(n)])
    full, chunk, low = (1 << len(level)) - 1, core.CHUNK, core.CHUNK_MASK

    def fits(m):
        u = first[m & low]
        for t in rest:
            if u == full:
                return False
            m >>= chunk
            u |= t[m & low]
        return u != full
    return fits


def _packed_fit(level, n):
    """_fit_test's predicate by one int: per member t, a byte-aligned field of
    comp holds t's complement and a guard bit above the n states. (m | g) *
    rep copies m and the guard bit into every field; & comp leaves each the
    guard bit and m's states outside t, and less rep its guard bit clears
    iff none is left, that is, iff m fits t. No field borrows from the next."""
    size, g, top = (n >> 3) + 1, 1 << n, (2 << n) - 1
    comp = int.from_bytes(b"".join((t ^ top).to_bytes(size, "little") for t in level), "little")
    rep = int.from_bytes((b"\1" + bytes(size - 1)) * len(level), "little")
    guard = rep << n

    def fits(m):
        return ((m | g) * rep & comp) - rep & guard != guard
    return fits


def _is_singleton(m):
    return not m & (m - 1)


def _meet_search(d, pair_test_after=None):
    """The least shortest reset word of d, by a bidirectional subset search.

    Forward levels F_0 = [Q], F_1, ... list the images of the full set Q by
    the length of their shortest word, each in least-word order. Backward
    levels B_0 = the singletons, B_1, ... list their nonempty preimages
    likewise. Each round expands the narrower last level, ties going
    forward, and tests only the new level against the other side's last
    level, so every depth pair (i, j) the search passes through is tested
    once. A backward level narrower than F_i queries its masks' complements
    against one predicate over those of F_i's (S inside T iff Q - T inside
    Q - S), kept until the next forward round, and gets its own only when
    it meets, else once a forward round needs it; one predicate is alive
    at a time. A reset word of length i + j takes Q through some S in F_i
    inside some T in B_j, or a shorter one would exist; so while no test
    has met, rt exceeds the current i + j, and the first meet gives
    rt = i + j. The word is the least word of the first mask of F_i that
    fits B_j (_read_word, filtered by preimages once their tables exist),
    followed, for r = j-1, ..., 0, by the least letter
    whose image fits B_r (_read_down; a fit at a shallower level would mean
    a shorter reset word), and is re-run by _finish. The search decides
    synchronization too: a frontier that empties before the sides meet
    raises NotSynchronizing. Were rt finite, an empty F_(i+1) would mean
    every image of Q has a shortest word of length <= i < rt, so none is a
    singleton; an empty B_(j+1), that Q, a preimage of a singleton at depth
    rt > j, was never reached. Preimage tables wait for a backward step.

    That verdict can cost a search over every subset. With pair_test_after
    set, the pair test (is_synchronizing) runs once, after the first round
    that leaves no meet and more than pair_test_after masks seen on the two
    sides together, and a failing test raises NotSynchronizing. A passing
    one changes nothing, so the masks stepped are those of the search
    without it.
    """
    n = d.n
    tabs = core.image_tables(d)
    full = (1 << n) - 1
    fwd, back = [[full]], [[1 << q for q in range(n)]]
    fseen, bseen = {full}, set(back[0])
    fits = _is_singleton    # what fits B_0, images being nonempty
    hit = next(filter(fits, fwd[0]), None)
    while hit is None:
        if len(fwd[-1]) <= len(back[-1]):
            covers = None   # over F_i's complements, made once a backward round needs it
            if fits is None:
                fits = _fit_test(back[-1], n)
            level, hit = _step_forward(tabs, fwd[-1], fseen, fits)
            fwd.append(level)
        else:
            level = _step_backward(core.preimage_tables(d), back[-1], bseen)
            back.append(level)
            fits = None     # dropped before the next is built: one predicate alive
            narrow = 0 < len(level) < len(fwd[-1])   # an empty one is refused below
            if narrow:
                covers = covers or _fit_test([full ^ s for s in fwd[-1]], n)
            if not narrow or any(covers(full ^ t) for t in level):
                covers = None
                fits = _fit_test(level, n)
                hit = next(filter(fits, fwd[-1]), None)
        if not level:
            raise NotSynchronizing("automaton is not synchronizing")
        if (hit is None and pair_test_after is not None
                and len(fseen) + len(bseen) > pair_test_after):
            if not is_synchronizing(d):
                raise NotSynchronizing("automaton is not synchronizing")
            pair_test_after = None
    pre = core.preimage_tables(d) if len(back) > 1 else None
    word = _read_word(tabs, fwd, hit, pre) + _read_down(tabs, back[:-1], hit)
    return _finish(d, word, "bfs").word


def _step_forward(tabs, level, seen, fits):
    """The next forward level, in least-word order. Stops at the first new
    mask that fits and returns it as hit (else hit is None): (next, hit).
    One lookup per mask gives every letter's image, split in letter order."""
    tables, shifts, full = tabs.tables, tabs.shifts, tabs.full
    nxt = []
    for m in level:
        x = union_mask(tables, m)
        for s in shifts:
            m2 = x >> s & full
            if m2 not in seen:
                seen.add(m2)
                nxt.append(m2)
                if fits(m2):
                    return nxt, m2
    return nxt, None


def _step_backward(pre, level, seen, inside=0):
    """The next backward level: the new preimages of level's masks that have
    a state outside the mask inside; with inside = 0, every new nonempty
    one. A dropped preimage joins seen too, so each new mask is tested once.
    Each mask's packed preimage is looked up once, then split letter by letter."""
    nxt, outside, full = [], ~inside, pre.full
    xs = [union_mask(pre.tables, m) for m in level]
    for s in pre.shifts:
        for x in xs:
            m2 = x >> s & full
            if m2 not in seen:
                seen.add(m2)
                if m2 & outside:
                    nxt.append(m2)
    return nxt


def _read_word(tabs, levels, m, pre):
    """The least word of m, a mask of levels[-1], from levels[0]. Each mask's
    parent is the first mask of the level before that some letter carries
    to it, and its letter the least such one: a level is built in (mask,
    letter) order and a mask joins it at its first discovery, so these are
    the parent and letter _step_forward found it by. With pre, the preimage
    tables or None, each level is first cut to the masks inside m's
    one-letter preimages: a parent up with up.a = m is inside m.a^-1."""
    tables, shifts, full = tabs.tables, tabs.shifts, tabs.full
    word = []
    for level in reversed(levels[:-1]):
        if pre is not None:
            outside = ~functools.reduce(int.__or__, pre.steps(m))
            level = [up for up in level if not up & outside]
        a, m = next((a, up) for up in level for x in [union_mask(tables, up)]
                    for a, s in enumerate(shifts) if x >> s & full == m)
        word.append(a)
    word.reverse()
    return tuple(word)


def _read_down(tabs, levels, m):
    """A word carrying m into a mask of levels[0], one level per letter: for
    each of levels from the last to the first, the least letter whose image
    of the current mask fits that level, by a scan: k images are too few to
    pay for its fit tables. tabs are image tables; no fit raises AssertionError."""
    tables, shifts, full = tabs.tables, tabs.shifts, tabs.full
    word = []
    for level in reversed(levels):
        x = union_mask(tables, m)
        for a, s in enumerate(shifts):
            m = x >> s & full
            for t in level:
                if m | t == t:
                    break
            else:
                continue
            break
        else:
            raise AssertionError("no letter carries the mask into the level")
        word.append(a)
    return tuple(word)


def _backward_search(pre, starts, above):
    """Backward levels from the start masks to the end of the first level
    holding a preimage with more than above states, or until none is left.

    Returns (levels, hit), hit being that level's first such preimage, or
    None. From one start S, every preimage inside S is dropped: T inside S
    gives T.w^-1 inside S.w^-1 for every word w, and S is at depth 0, so T
    reaches nothing that S does not reach as early. With above at least |S|,
    as every caller has it, no hit is dropped, and the hit, its level and
    each letter _read_down takes stay those of the search without the rule:
    a mask on the way to a hit that lay inside S would put a hit in an
    earlier level. From one start, _read_down(tabs, levels[:-1], hit) with
    the image tables is the least word of that length whose preimage has
    more than above states: that word's suffix preimages each lie in their
    own level, so the walk takes no greater letter, and the preimage of the
    walk's word contains the hit. From several starts it is the least
    shortest reset word when the hit is the full set, as in _meet_search.
    """
    levels, seen = [list(starts)], set(starts)
    inside = levels[0][0] if len(levels[0]) == 1 else 0
    while levels[-1]:
        level = _step_backward(pre, levels[-1], seen, inside)
        levels.append(level)
        for m in level:
            if m.bit_count() > above:
                return levels, m
    return levels, None


def exact_reset_threshold(d, cap=core.SUBSET_BFS_CAP):
    """The reset threshold and the lexicographically least shortest reset word.

    The checked front door of the kernel _meet_search. A word the kernel
    returns proves synchronization, but its own refusal can cost a search
    over every subset, so the kernel runs the pair test once its two sides
    have seen more masks than that test's k·n(n−1)/2 pair steps: a d that
    cannot reset is refused after one more level at most, and a search that
    meets sooner pays no pair test.
    """
    _check_subset_cap(d.n, cap)
    word = _meet_search(d, d.k * d.n * (d.n - 1) // 2)
    return len(word), word


def greedy_compression_word(d, cap=core.SUBSET_BFS_CAP):
    """Compress the full state set step by step, each step by a shortest word.

    Each step is the least shortest word shrinking the current set S. A word
    shrinks S iff it merges a pair of S, so such words carry a pair from the
    lowest level holding one of S's pairs down one level per letter, and
    _merge_down from the pairs of that level spells the least of them.
    """
    _check_subset_cap(d.n, cap)
    return _finish(d, _merge_down(d, _lowest_pairs)[0], "greedy")


def shortest_extending_word(tabs, pre, mask):
    """The least shortest word v with |mask.v^-1| > |mask|, or None if none exists.

    tabs and pre are the automaton's core.image_tables and core.preimage_tables,
    one letter-packed core.LetterTables each: a lookup gives every letter's
    step of a mask. The backward search from mask drops every preimage
    inside mask, so a mask that no word extends is proved so by the
    preimages it has outside itself alone.
    """
    levels, hit = _backward_search(pre, (mask,), mask.bit_count())
    return None if hit is None else _read_down(tabs, levels[:-1], hit)


def _extension_length(arrs, m):
    """The length of the shortest words v with |m.v^-1| > |m|, by a breadth-first
    search from m over whole-mask preimage arrays, arrs[a][u] = u.a^-1
    (core.union_array), to the first new preimage above |m|. Preimages inside
    m are dropped (_backward_search's rule); none left raises NotExtensible."""
    size, outside = m.bit_count(), ~m
    for arr in arrs:   # a one-letter hit needs no seen set
        if arr[m].bit_count() > size:
            return 1
    level, seen, depth = [m], {m}, 0
    while level:
        depth, nxt = depth + 1, []
        for arr in arrs:
            for u in level:
                v = arr[u]
                if v not in seen:
                    seen.add(v)
                    if v & outside:
                        if v.bit_count() > size:
                            return depth
                        nxt.append(v)
        level = nxt
    raise NotExtensible(tuple(bits(m)))


def extensibility_profile(d):
    """Shortest extension lengths by size, over the proper subsets of two or
    more states (_extension_length on one set of preimage arrays). Raises
    NotExtensible, carrying the subset, at the first failing subset in mask order.
    The arrays stay per letter, so a lookup is one index with no split."""
    _check_subset_cap(d.n, EXTENSION_CAP)
    arrs = [core.union_array(core.union_tables(row)) for row in core.letter_preimage_masks(d)]
    by_size = {}
    for m in range(3, (1 << d.n) - 1):   # from {0, 1} to the last proper subset
        size = m.bit_count()
        if size > 1:
            length = _extension_length(arrs, m)
            if length > by_size.get(size, 0):
                by_size[size] = length
    return ExtensibilityProfile(d.n, by_size, max(by_size.values(), default=0))


def reset_word_via_extension(d, cap=core.SUBSET_BFS_CAP):
    """Grow a singleton's preimage back to the full state set (_extension_word).

    A word whose preimage of a singleton is the full set resets d, so only a
    failed extension needs the pair test: it tells a d that cannot reset
    (NotSynchronizing) from a subset that no word extends (NotExtensible).
    """
    _check_subset_cap(d.n, cap)
    try:
        word = _extension_word(d) if d.n > 1 else ()
    except NotExtensible:
        if not is_synchronizing(d):
            raise NotSynchronizing("automaton is not synchronizing") from None
        raise
    return _finish(d, word, "extension")


@core.last_automaton
def _extension_word(d):
    """The extension method's reset word of d with n >= 2.

    The start state is the first state (in index order) with a two-or-more
    element preimage under some letter; that letter seeds the word. With no
    such state no letter merges two states, and NotSynchronizing is raised.
    Each later piece is a shortest extending word; pieces are prepended. A
    subset that no word extends raises NotExtensible, which a d that cannot
    reset raises too, unless no letter merges.
    """
    tabs, pre = core.image_tables(d), core.preimage_tables(d)
    seed = next(((a, m) for q in range(d.n) for a, m in enumerate(pre.steps(1 << q))
                 if m.bit_count() >= 2), None)
    if seed is None:
        raise NotSynchronizing("automaton is not synchronizing")
    a, mask = seed
    word = (a,)
    while mask != pre.full:
        v = shortest_extending_word(tabs, pre, mask)
        if v is None:
            raise NotExtensible(tuple(bits(mask)))
        word = v + word
        for b in reversed(v):
            mask = pre.steps(mask)[b]
    return word


# -- orientation-based solving ------------------------------------------------

def properly_oriented(seq):
    """True iff seq is a cyclic rotation of a nondecreasing sequence."""
    n = len(seq)
    descents = sum(1 for i in range(n) if seq[i] > seq[(i + 1) % n])
    return descents <= 1


def orientation_violations(d, order):
    """Letters whose image sequence under the given state order is not
    a rotation of a nondecreasing sequence."""
    if sorted(order) != list(range(d.n)):
        raise core.InputError("order must be a permutation of the states")
    pos = [0] * d.n
    for i, q in enumerate(order):
        pos[q] = i
    return [a for a, row in enumerate(d.delta)
            if not properly_oriented([pos[row[q]] for q in order])]


def eppstein_orientable_word(d, order=None):
    """Backward search over oriented intervals of an orientable automaton.

    From all singletons at once, grow the preimages with single-letter
    steps. An oriented letter's preimage of an interval of the cyclic
    arrangement the order induces is an interval, so every set encountered
    is one (properly_oriented checks each), there are (n-1)^2 non-singleton
    ones, and the result has length at most (n-1)^2. The search reaches the
    full set iff d synchronizes, so it decides that too, in polynomial time.
    """
    n = d.n
    order = tuple(range(n) if order is None else order)
    bad = orientation_violations(d, order)
    if bad:
        raise DomainError(
            f"order is not orientable for this automaton; letter {d.letters[bad[0]]!r} breaks it")
    if n == 1:
        return _finish(d, (), "eppstein")
    levels, hit = _backward_search(core.preimage_tables(d), [1 << q for q in range(n)], n - 1)
    for level in levels:
        for mask in level:
            if not properly_oriented([(mask >> q) & 1 for q in order]):
                raise AssertionError(
                    f"preimage {sorted(bits(mask))} is not an oriented interval")
    if hit is None:
        raise NotSynchronizing("automaton is not synchronizing")
    return _finish(d, _read_down(core.image_tables(d), levels[:-1], hit), "eppstein")


# -- all-simple-idempotent solving --------------------------------------------

def c7_height_word(d):
    """Reset an automaton whose letters are all simple idempotents.

    Collapses the state set in exactly n-1 single-letter steps by always
    moving a state of maximum distance from the reset target one step along
    a fixed shortest-path forest. The result's length n-1 is also the exact
    reset threshold for this class: a simple idempotent letter shrinks a
    set by at most one state.
    """
    n = d.n
    if n == 1:
        return _finish(d, (), "c7")
    if len(core.simple_idempotents(d)) != d.k:
        raise DomainError("every letter must be a simple idempotent")
    q0 = merge_probe_target(d)
    # heights: BFS depths over reversed edges from the target
    dist = core.reach(core.reverse(list(zip(*d.delta))), q0)
    if len(dist) != n:
        raise AssertionError("some state cannot reach the reset target")
    # the forest: each state's least letter one step closer to the target
    first = {q: next(a for a in range(d.k) if dist[d.delta[a][q]] == dist[q] - 1)
             for q in range(n) if q != q0}
    cur, word = set(range(n)), []
    for _ in range(n - 1):
        q = max((x for x in cur if x != q0), key=lambda x: (dist[x], -x))
        a = first[q]
        word.append(a)
        cur = {d.delta[a][x] for x in cur}
    if cur != {q0}:
        raise AssertionError("height compression did not reach the target")
    return _finish(d, tuple(word), "c7")


def a10_binary_idempotent_word(d):
    """Reset a binary automaton one of whose letters is a simple idempotent.

    Case analysis on the cycles of the other letter b. A b-cycle avoiding
    the state dropped by the idempotent forces a zero state (greedy then
    stays within n(n-1)/2). Otherwise the unique b-cycle C has size m:
    m = 1 reduces to b^(n-1); m = n means b is a full cyclic permutation
    and the extension method applies (such automata are 1-extensible, so
    the word stays within 1 + n(n-2)); if the dropped state re-enters C the
    problem restricts to the subautomaton on C; and in the remaining case
    an explicit word b^(n-m) (v b^kk)^(m-1) resets the automaton. Every
    branch keeps the length at most (n-1)^2.
    """
    n = d.n
    if d.k != 2:
        raise DomainError("solver needs a binary automaton")
    idem = core.simple_idempotents(d)
    if not idem:
        raise DomainError("neither letter is a simple idempotent")
    ia = idem[0]
    ib = 1 - ia
    if not is_synchronizing(d):
        raise NotSynchronizing("automaton is not synchronizing")
    word = _a10_word(d, ia, ib)
    res = _finish(d, word, "a10")
    if res.length > (n - 1) ** 2:
        raise AssertionError(f"a10 word of length {res.length} exceeds (n-1)^2")
    return res


def _a10_word(d, ia, ib):
    n = d.n
    arow, brow = d.delta[ia], d.delta[ib]
    image = set(arow)
    e = next(q for q in range(n) if q not in image)
    cycles = core.cycles_of(brow)
    off_cycle = [c for c in cycles if e not in c]
    if off_cycle:
        # a cycle avoiding e is fixed by both letters, hence a single zero state
        for c in off_cycle:
            if len(c) != 1 or arow[c[0]] != c[0]:
                raise AssertionError("b-cycle avoiding the dropped state is not a zero")
        return _merge_down(d, _lowest_pairs)[0]
    (cycle,) = cycles
    m = len(cycle)
    if m == 1:
        return (ib,) * (n - 1)
    if m == n:
        # b is a cyclic permutation of the whole state set; grow a singleton
        # preimage instead (each extension step is at most n letters here)
        return _extension_word(d)
    cycle_set = set(cycle)
    dstate = arow[e]
    if dstate in cycle_set:
        sub = core.subautomaton(d, sum(1 << q for q in cycle))
        return (ib,) * (n - m) + _a10_word(sub, ia, ib)
    # walk d along b until the cycle is reached
    kk, x = 0, dstate
    while x not in cycle_set:
        x = brow[x]
        kk += 1
        if kk > n:
            raise AssertionError("walk along b failed to reach the cycle")
    r = x
    ell, x = 0, e
    while x != r:
        x = brow[x]
        ell += 1
    if math.gcd(m, kk - ell) != 1:
        raise AssertionError(
            f"cycle length {m} and step {kk - ell} are not coprime on a synchronizing input")
    v = (ia,) if ell == 0 else (ib,) * (m - ell) + (ia,)
    return (ib,) * (n - m) + (v + (ib,) * kk) * (m - 1)


# -- number theory helper -----------------------------------------------------

def frobenius_largest_gap(n, k):
    """The largest integer not expressible as a non-negative combination of
    two coprime positive integers: nk - n - k."""
    if n < 1 or k < 1:
        raise DomainError("arguments must be positive")
    if math.gcd(n, k) != 1:
        raise DomainError(f"{n} and {k} are not coprime")
    return n * k - n - k

