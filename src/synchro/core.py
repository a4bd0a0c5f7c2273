"""Complete deterministic automata and their set dynamics.

States are dense indices 0..n-1; letters are indexed by their position in
the ordered letter-name list. State subsets are bit vectors held in
Python ints, so they have no width limit. Everything here is immutable after
construction and every operation is a pure function of its inputs, so values
can be shared freely between concurrent workers. Four builders memoize their
last automaton (last_automaton), so the solvers run on it share one build.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass


class AutomatonError(Exception):
    """Base class for toolkit errors."""


class InputError(AutomatonError):
    """Malformed input: bad JSON, bad state or letter index, bad names."""


class PreconditionError(AutomatonError):
    """A checked structural precondition failed."""


class DomainError(AutomatonError):
    """Input lies outside an operation's domain."""


class NotSynchronizing(DomainError):
    """The automaton admits no reset word."""


class CapExceeded(AutomatonError):
    """A configured resource cap would be exceeded."""


SUBSET_BFS_CAP = 20      # default cap for power-set searches


def bits(mask):
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton.

    delta is letter-major: delta[a][q] is the successor of state q under
    letter index a. Letter names are unique non-empty strings.
    """

    n: int
    letters: tuple
    delta: tuple
    name: str = ""

    def __post_init__(self):
        # exact type checks: they keep bools out, and they are cheaper than
        # isinstance on the samplers' and census's per-candidate construction
        if type(self.n) is not int or self.n < 1:
            raise InputError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if len(self.letters) < 1:
            raise InputError("at least one letter is required")
        if len(set(self.letters)) != len(self.letters):
            raise InputError("letter names must be distinct")
        for name in self.letters:
            if not isinstance(name, str) or not name:
                raise InputError(f"letter names must be non-empty strings, got {name!r}")
        if len(self.delta) != len(self.letters):
            raise InputError(
                f"delta has {len(self.delta)} rows for {len(self.letters)} letters")
        for a, row in enumerate(self.delta):
            if len(row) != self.n:
                raise InputError(
                    f"delta row for letter {self.letters[a]!r} has {len(row)} entries, expected {self.n}")
            for q, t in enumerate(row):
                if type(t) is not int or not 0 <= t < self.n:
                    raise InputError(
                        f"delta[{self.letters[a]!r}][{q}] = {t!r} is not a state in [0, {self.n})")

    @property
    def k(self):
        return len(self.letters)

    def letter_index(self, name):
        try:
            return self.letters.index(name)
        except ValueError:
            raise InputError(f"unknown letter {name!r}") from None


@dataclass(frozen=True)
class StateSet:
    """A subset of the states of an n-state automaton, as a bit vector."""

    n: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n):
            raise InputError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def full(cls, n):
        return cls(n, (1 << n) - 1)

    def __len__(self):
        return self.mask.bit_count()


# -- words ------------------------------------------------------------------
#
# A word is a tuple of letter indices; the empty tuple is the identity.

def check_word(d, w):
    for a in w:
        if not isinstance(a, int) or not 0 <= a < d.k:
            raise InputError(f"letter index {a!r} not in [0, {d.k})")
    return tuple(w)


def word_names(d, w):
    return [d.letters[a] for a in w]


def apply_word(d, q, w):
    """Run the automaton from state q along word w; the empty word returns q."""
    if not 0 <= q < d.n:
        raise InputError(f"state {q} not in [0, {d.n})")
    for a in check_word(d, w):
        q = d.delta[a][q]
    return q


def image_mask(row, mask):
    out = 0
    for q in bits(mask):
        out |= 1 << row[q]
    return out


def letter_preimage_masks(d):
    """Per letter, per target state: the mask of its single-letter preimages."""
    pre = [[0] * d.n for _ in range(d.k)]
    for a, row in enumerate(d.delta):
        for q, t in enumerate(row):
            pre[a][t] |= 1 << q
    return [tuple(row) for row in pre]


def preimage_mask(pre_row, mask):
    out = 0
    for q in bits(mask):
        out |= pre_row[q]
    return out


CHUNK = 8    # states per table lookup; 11-bit chunks measured no faster
CHUNK_MASK = (1 << CHUNK) - 1


def union_tables(masks):
    """Per CHUNK-state chunk, the union of masks[q] over every subset of it.

    tables[c][v] is the union of masks[CHUNK*c + i] over the set bits i of v.
    """
    tables = []
    for base in range(0, len(masks), CHUNK):
        t = [0]
        for x in masks[base:base + CHUNK]:
            t += [y | x for y in t]
        tables.append(t)
    return tables


def union_mask(tables, mask):
    """The union of masks[q] over the states q in mask: one lookup per chunk."""
    out = 0
    for t in tables:
        out |= t[mask & CHUNK_MASK]
        mask >>= CHUNK
    return out


def union_array(tables):
    """union_mask(tables, m) for every mask m below 2^n, as one list indexed by
    m: the table itself for one chunk, one comprehension per further chunk."""
    arr = tables[-1]
    for t in reversed(tables[:-1]):
        arr = [x | y for x in arr for y in t]
    return arr


class LetterTables:
    """One set of union tables over letter-packed masks: packed[q] holds
    letter a's step of state q in bits [a·n, (a+1)·n), so one union_mask
    lookup gives every letter's step of a mask at once."""

    __slots__ = ("tables", "n", "shifts", "full")

    def __init__(self, packed, n, shifts):
        self.tables = union_tables(packed)
        self.n, self.shifts, self.full = n, shifts, (1 << n) - 1

    def steps(self, mask):
        """Every letter's step of mask, in letter order: x >> shift & full."""
        x, full = union_mask(self.tables, mask), self.full
        return [x >> s & full for s in self.shifts]


def last_automaton(build):
    """Memoize build(d) for the last d, by identity. The slot, one (d, value)
    tuple read once and replaced whole, keeps d alive and never mixes two."""
    slot = (None, None)
    @functools.wraps(build)
    def memo(d):
        nonlocal slot
        key, value = slot
        if key is not d:
            value = build(d)
            slot = (d, value)
        return value
    return memo


@last_automaton
def image_tables(d):
    """The letter-packed tables of the image step: letter a's step of m is m.a."""
    n, packed, shifts = d.n, [0] * d.n, range(0, len(d.delta) * d.n, d.n)
    for s, row in zip(shifts, d.delta):
        packed = [x | 1 << t + s for x, t in zip(packed, row)]
    return LetterTables(packed, n, shifts)


@last_automaton
def preimage_tables(d):
    """The letter-packed tables of the preimage step: letter a's step of m is m.a^-1."""
    n, packed, shifts = d.n, [0] * d.n, range(0, len(d.delta) * d.n, d.n)
    for s, row in zip(shifts, d.delta):
        for q, t in enumerate(row):
            packed[t] |= 1 << q + s
    return LetterTables(packed, n, shifts)


def image(d, P, w):
    """The set P.w of states reachable from P along w. P must be non-empty."""
    if P.n != d.n:
        raise InputError("state set does not match the automaton")
    if not P.mask:
        raise InputError("image of the empty set is not defined")
    mask = P.mask
    for a in check_word(d, w):
        mask = image_mask(d.delta[a], mask)
    return StateSet(d.n, mask)


# -- transformations --------------------------------------------------------
#
# A transformation is a tuple t of length n with t[q] the image of q.

def compose(t, u):
    """Apply t, then u."""
    return tuple(u[q] for q in t)


def deficiency(t):
    return len(t) - len(set(t))


def is_idempotent(t):
    return all(t[x] == x for x in t)


def simple_idempotents(d):
    """Indices of the letters of deficiency one that act identically on their image."""
    return [a for a, row in enumerate(d.delta) if deficiency(row) == 1 and is_idempotent(row)]


def is_permutation(t):
    return len(set(t)) == len(t)


def cycles_of(t):
    """The cycles of a self-map, each as a tuple starting at its least state,
    in order of their least states."""
    walk = [-1] * len(t)  # the start of the walk that first met each state
    out = []
    for q0 in range(len(t)):
        q = q0
        while walk[q] < 0:
            walk[q] = q0
            q = t[q]
        if walk[q] == q0:
            # the walk met itself: q is on a cycle no earlier walk reached
            cyc = [q]
            x = t[q]
            while x != q:
                cyc.append(x)
                x = t[x]
            i = cyc.index(min(cyc))
            out.append(tuple(cyc[i:] + cyc[:i]))
    out.sort()
    return out


# -- graphs -----------------------------------------------------------------

def reverse(succs):
    """The predecessor lists of the graph with successor lists succs."""
    preds = [[] for _ in succs]
    for u, vs in enumerate(succs):
        for v in vs:
            preds[v].append(u)
    return preds


def reach(succs, start):
    """{vertex: BFS depth} over the vertices reachable from start along succs."""
    depth = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        du = depth[u] + 1
        for v in succs[u]:
            if v not in depth:
                depth[v] = du
                queue.append(v)
    return depth


def is_strongly_connected(d):
    """True iff every ordered pair of states is joined by a directed path."""
    return digraph_strongly_connected(d.n, list(zip(*d.delta)))


def digraph_strongly_connected(n, succs):
    if n == 0:
        return True
    return len(reach(succs, 0)) == n and len(reach(reverse(succs), 0)) == n


def strongly_connected_components(n, succs):
    """Component id per vertex (Kosaraju, iterative). Ids are arbitrary but stable."""
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, iter(succs[s]))]
        seen[s] = True
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succs[v])))
                    advanced = True
                    break
            if not advanced:
                order.append(u)
                stack.pop()
    preds = reverse(succs)
    comp = [-1] * n
    cid = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        comp[s] = cid
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in preds[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    queue.append(v)
        cid += 1
    return comp


# -- subautomata -------------------------------------------------------------

def subautomaton(d, mask):
    """Restrict the automaton to the closed state set mask; new state i is
    the i-th least state of the set."""
    if not 0 < mask < (1 << d.n):
        raise InputError(f"mask {mask:#x} out of range for n={d.n}")
    states = tuple(bits(mask))
    pos = {q: i for i, q in enumerate(states)}
    for q in states:
        for a in range(d.k):
            if d.delta[a][q] not in pos:
                raise PreconditionError(
                    f"set is not closed: state {q} escapes under letter {d.letters[a]!r}")
    delta = tuple(tuple(pos[d.delta[a][q]] for q in states) for a in range(d.k))
    return Dfa(len(states), d.letters, delta, name=d.name and d.name + "/sub")


# -- serialization -----------------------------------------------------------

def dfa_to_json(d):
    obj = {}
    if d.name:
        obj["name"] = d.name
    obj["n"] = d.n
    obj["letters"] = list(d.letters)
    obj["delta"] = {name: list(d.delta[a]) for a, name in enumerate(d.letters)}
    return obj


def dfa_from_json(obj):
    """Parse the canonical JSON automaton object; errors carry a path and reason."""
    if not isinstance(obj, dict):
        raise InputError(f"$: expected an object, got {type(obj).__name__}")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"name: expected a string, got {type(name).__name__}")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"n: expected an integer >= 1, got {n!r}")
    letters = obj.get("letters")
    if not isinstance(letters, list) or not letters:
        raise InputError("letters: expected a non-empty list of strings")
    for i, x in enumerate(letters):
        if not isinstance(x, str) or not x:
            raise InputError(f"letters[{i}]: expected a non-empty string, got {x!r}")
        if x in letters[:i]:
            raise InputError(f"letters[{i}]: duplicate name {x!r}")
    rows = obj.get("delta")
    if not isinstance(rows, dict):
        raise InputError("delta: expected an object keyed by letter")
    for key in rows:
        if key not in letters:
            raise InputError(f"delta.{key}: key is not a declared letter")
    delta = []
    for x in letters:
        if x not in rows:
            raise InputError(f"delta.{x}: missing row")
        row = rows[x]
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"delta.{x}: expected a list of {n} entries")
        for q, t in enumerate(row):
            if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t < n:
                raise InputError(f"delta.{x}[{q}]: expected a state in [0, {n}), got {t!r}")
        delta.append(tuple(row))
    extra = set(obj) - {"name", "n", "letters", "delta"}
    if extra:
        raise InputError(f"$: unknown keys {sorted(extra)}")
    return Dfa(n, tuple(letters), tuple(delta), name=name)


def dfa_dumps(d):
    return json.dumps(dfa_to_json(d), indent=2) + "\n"


def dfa_loads(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"$: invalid JSON ({exc})") from None
    return dfa_from_json(obj)


def load_dfa(path):
    with open(path) as fh:
        return dfa_loads(fh.read())


def save_dfa(d, path):
    with open(path, "w") as fh:
        fh.write(dfa_dumps(d))


def dfa_to_dot(d):
    """DOT text with one edge per (source, target), labels comma-joined."""
    by_pair = {}
    for a, row in enumerate(d.delta):
        for q, t in enumerate(row):
            by_pair.setdefault((q, t), []).append(d.letters[a])
    quote = str.maketrans({"\\": "\\\\", '"': '\\"'})   # escaped inside a quoted ID
    lines = ['digraph "%s" {' % (d.name or "dfa").translate(quote), "  rankdir=LR;",
             "  node [shape=circle];"]
    for q in range(d.n):
        lines.append(f"  {q};")
    for (q, t), names in sorted(by_pair.items()):
        lines.append('  %d -> %d [label="%s"];' % (q, t, ",".join(names).translate(quote)))
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a class membership check.

    status is one of "in", "out", "unknown", "not-checked"; "unknown" is
    reserved for checks abandoned at a resource cap and is never a synonym
    for "out". An "in" verdict for an existential class carries a
    machine-checkable witness.
    """

    status: str
    witness: object = None
    note: str = ""

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def capped(check):
    """check(), or the "unknown" verdict naming the cap it hit."""
    try:
        return check()
    except CapExceeded as exc:
        return Verdict("unknown", note=f"cap: {exc}")
