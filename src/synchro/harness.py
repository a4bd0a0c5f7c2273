"""Verification campaigns, exhaustive enumeration, and random instance sources.

The enumeration emits exactly one representative per isomorphism class by
keeping only tables that equal their own canonical form (the
lexicographically least table over all state and letter relabelings).
Shards partition the table space by the first letter's image of state 0, so
a shard-by-shard run touches every class exactly once and can be resumed.
Relabeling a canonical table by any state permutation cannot give a row
below its first row, so the first row r1 is the least of its conjugacy class
{σ·r·σ⁻¹} and no row's class minimum lies below it; the enumeration skips
every other table. Every relabeled row of a kept table is then at least r1,
so σ gives a smaller table only if it sends some row onto r1. The orderly
test (McKay 1998) tries only the σ in Aut(r1) on r2 and, when r2 is
conjugate to r1, the coset of σ with σ·r2·σ⁻¹ = r1 on r1. A census builds
the row tables, class minima and automorphisms once for all its shards.

The completely reachable sampler first asks whether every (n-1)-subset is an
image of Q, a necessary condition: a word reaching one starts, after
permutation letters, with a letter of rank n-1, and every later letter is
injective on the current (n-1)-set, so a reach over "Q minus p" vertices
decides it without building the automaton. For a binary table with n >= 3
that reach needs one permutation letter and one of rank n-1, so the two row
ranks sum to 2n-1: two letters that are not permutations reach only Q and
Q minus the state each of rank n-1 misses, 3 < n+1 vertices, and a
permutation beside a letter of rank below n-1 leaves Q with no edge. The
sampler screens whole batches of draws by that sum before it builds any
table.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from operator import add, rshift

from synchro import bounds, classify, core, engine, families, monoid
from synchro.core import CapExceeded, Dfa, DomainError, InputError, NotSynchronizing

ENUM_STATE_CAP = 6
ENUM_LETTER_CAP = 2
SAMPLER_TRIES = 100000   # rejection-sampling attempts per random_* call
# _TOP_BITS[b] maps a byte to its top b bits, for the table samplers
_TOP_BITS = [bytes(x >> (8 - b) for x in range(256)) for b in range(9)]
# a state v < 8 as the byte 1 << v, and the bits set in a byte, for _row_ranks
_ONE_HOT = bytes(1 << v for v in range(8)) + bytes(248)
_POPCOUNT = bytes(bin(x).count("1") for x in range(256))


@dataclass(frozen=True)
class EnumerationFilter:
    letters: int
    states: int
    eulerian: bool = False
    strongly_connected: bool = False
    synchronizing: bool = False
    aperiodic: bool = False

    def __post_init__(self):
        for name in ("letters", "states"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise InputError(f"{name} must be an integer >= 1, got {value!r}")


def _is_canonical(r1, r2, aut, move):
    """The orderly test (module docstring): no automorphism (α, α⁻¹) of r1
    in aut sends r2 below r2 and, when move = (s, s⁻¹) conjugates r1 to r2,
    no σ in Aut(r1)∘s⁻¹ sends r1 below r2. σ maps r to q ↦ σ(r(σ⁻¹(q)))."""
    rows = [r2]
    if move is not None:
        s, s_inv = move
        rows.append(tuple([s_inv[r1[p]] for p in s]))   # s⁻¹·r1·s
    return rows[-1] >= r2 and all(tuple([a[row[p]] for p in a_inv]) >= r2
                                  for a, a_inv in aut for row in rows)


def _passes(filt, d):
    if filt.eulerian and classify.is_eulerian(d).status != "in":
        return False
    if filt.strongly_connected and not core.is_strongly_connected(d):
        return False
    if filt.synchronizing and not engine.is_synchronizing(d):
        return False
    # a letter on a cycle of length > 1 is itself an element that breaks aperiodicity
    return not filt.aperiodic or (
        all(len(c) == 1 for row in d.delta for c in core.cycles_of(row))
        and monoid.is_aperiodic(monoid.transition_monoid(d)).status == "in")


def _letter_rows(filt, n):
    """Candidate rows for one letter, in tuple order, so a row's index is its
    code (the row read in base n). With the Eulerian filter on, the codes are
    also indexed by in-degree profile (the profiles of the two letters must
    then sum to a constant |letters| at every state)."""
    rows = list(itertools.product(range(n), repeat=n))
    if not filt.eulerian:
        return rows, None
    by_profile = {}
    for code, row in enumerate(rows):
        profile = [0] * n
        for t in row:
            profile[t] += 1
        by_profile.setdefault(tuple(profile), []).append(code)
    return rows, by_profile


def _class_minima(rows, n):
    """least[code] = the code of the least conjugate σ·r·σ⁻¹ of rows[code],
    via[code] = one (σ, σ⁻¹) with σ·rows[least[code]]·σ⁻¹ = rows[code], and
    auts = {class-minimal code: its automorphisms (σ, σ⁻¹) but the identity}.
    Codes run in tuple order, so the first unfilled code is its orbit's
    minimum; one sweep over the permutations, identity first, fills the orbit."""
    least, via, auts = [-1] * len(rows), [None] * len(rows), {}
    perms = [(sigma, sorted(range(n), key=sigma.__getitem__))
             for sigma in itertools.permutations(range(n))]
    for code, row in enumerate(rows):
        if least[code] >= 0:
            continue
        aut = []
        for pair in perms:
            sigma = pair[0]
            conj = [0] * n
            for q in range(n):
                conj[sigma[q]] = sigma[row[q]]
            c = 0
            for t in conj:
                c = c * n + t
            if c == code:
                aut.append(pair)
            if least[c] < 0:
                least[c], via[c] = code, pair
        auts[code] = aut[1:]
    return least, via, auts


def _row_tables(filt):
    """The rows, profiles, class minima, conjugators and automorphisms a
    census scans, built once per census and shared by its shards."""
    n, k = filt.states, filt.letters
    if n > ENUM_STATE_CAP or k > ENUM_LETTER_CAP:
        raise CapExceeded(
            f"census budget is letters <= {ENUM_LETTER_CAP}, states <= {ENUM_STATE_CAP}")
    rows, by_profile = _letter_rows(filt, n)
    return (rows, by_profile, *_class_minima(rows, n))


def _representatives(filt, tables, shard):
    n, k = filt.states, filt.letters
    letters = tuple(chr(ord("a") + i) for i in range(k))
    rows, by_profile, least, via, auts = tables
    for c1, aut in auts.items():
        first = rows[c1]
        if shard is not None and first[0] != shard:
            continue
        if k == 1:
            kept = [(first,)]   # a class-minimal row is canonical
        else:
            if by_profile is not None:
                profile = [0] * n
                for t in first:
                    profile[t] += 1
                seconds = by_profile.get(tuple(k - c for c in profile), ())
            else:
                seconds = range(len(rows))
            # sorted rows, no row's class minimum below the first, orderly test
            kept = [(first, rows[c2]) for c2 in seconds if c2 >= c1 and least[c2] >= c1
                      and _is_canonical(first, rows[c2], aut,
                                        via[c2] if least[c2] == c1 else None)]
        for delta in kept:
            d = Dfa(n, letters, delta)
            if _passes(filt, d):
                yield d


def enumerate_automata(filt):
    """One canonical representative per isomorphism class passing the filter."""
    yield from _representatives(filt, _row_tables(filt), None)


@dataclass
class CensusReport:
    classes: int = 0
    max_rt: int = -1
    attainers: list = field(default_factory=list)

    def absorb(self, other):
        self.classes += other["classes"]
        if other["max_rt"] > self.max_rt:
            self.max_rt = other["max_rt"]
            self.attainers = list(other["attainers"])
        elif other["max_rt"] == self.max_rt:
            self.attainers.extend(other["attainers"])


def _load_checkpoint(path, filt):
    """The checkpoint's shard records by shard ({} when there is no file);
    a malformed record raises InputError naming the file and the line."""
    wanted = asdict(filt)
    done = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                where = f"{path}:{lineno}"
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{where}: not a valid JSON record ({exc})") from None
                found = rec.get("filter") if isinstance(rec, dict) else None
                if found != wanted:
                    raise InputError(
                        f"{where}: record filter {found or 'missing'} "
                        f"does not match the requested {wanted}")
                shard, classes = rec.get("shard"), rec.get("classes")
                if type(shard) is not int or not 0 <= shard < filt.states:
                    raise InputError(
                        f"{where}: shard {shard!r} is not an integer in [0, {filt.states})")
                if type(classes) is not int or classes < 0:
                    raise InputError(f"{where}: classes {classes!r} is not an integer >= 0")
                if type(rec.get("max_rt")) is not int:
                    raise InputError(f"{where}: max_rt {rec.get('max_rt')!r} is not an integer")
                if not isinstance(rec.get("attainers"), list):
                    raise InputError(f"{where}: attainers {rec.get('attainers')!r} is not a list")
                done[shard] = rec
    except FileNotFoundError:
        pass
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read the checkpoint ({exc})") from None
    return done


def census_max_rt(filt, checkpoint=None):
    """Max reset threshold over the filtered census, with its attainers.

    With a checkpoint path, finished shards are written out as they complete
    and an interrupted run resumes where it stopped, reproducing the same
    final report. Each shard record carries its filter; resuming from a
    record written for another filter, from a malformed record, or from a
    file that cannot be read raises InputError.
    """
    done = {} if checkpoint is None else _load_checkpoint(checkpoint, filt)
    report = CensusReport()
    tables, scan = _row_tables(filt), replace(filt, synchronizing=False)
    for shard in range(filt.states):
        if shard in done:
            report.absorb(done[shard])
            continue
        part = CensusReport()
        for d in _representatives(scan, tables, shard):
            try:
                rt = len(engine._meet_search(d))
            except NotSynchronizing:
                if filt.synchronizing:
                    continue   # the kernel is the census's synchronization test
                rt = -1
            part.absorb({"classes": 1, "max_rt": rt, "attainers": [list(map(list, d.delta))]})
        rec = {"shard": shard, "filter": asdict(filt), **asdict(part)}
        if checkpoint is not None:
            try:
                with open(checkpoint, "a") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            except OSError as exc:
                raise InputError(f"{checkpoint}: cannot write the checkpoint ({exc})") from None
        report.absorb(rec)
    return report


# -- random instance sources ---------------------------------------------------

def _random_batches(rng, n, k):
    """Endless batches of whole k-row tables over range(n), flat in row-major
    order (bytes for n < 256, else a list), whose entries are exactly the
    values successive rng.randrange(n) calls would return.

    randrange(n) keeps the top n.bit_length() bits of one 32-bit word and
    draws again while they reach n; this rejects whole batches of words at
    once, from getrandbits, which fills its result from the least significant
    word up. Batches start at about one table's expected draw and double
    while below 4096 words; words drawn past the last table taken are lost
    with rng.
    """
    if n < 1 or k < 1:
        raise InputError(f"tables need n >= 1 and k >= 1, got n={n}, k={k}")
    bits = n.bit_length()
    size = n * k
    batch = k << bits   # n*k entries at 2**bits / n words each
    if bits <= 8:
        # the top byte of each word, shifted down, with the rejects deleted
        shift = _TOP_BITS[bits]
        reject = bytes(range(n << (8 - bits), 256))
        pending = b""
    else:
        pending = []
    while True:
        raw = rng.getrandbits(32 * batch).to_bytes(4 * batch, "little")
        if bits <= 8:
            pending += raw[3::4].translate(shift, reject)
        else:
            words = struct.unpack(f"<{batch}I", raw)
            pending += filter(n.__gt__, map(rshift, words, itertools.repeat(32 - bits)))
        used = len(pending) - len(pending) % size
        yield pending[:used]
        pending = pending[used:]
        if batch < 4096:
            batch *= 2


def _random_tables(rng, n, k):
    """Endless k-row tables over range(n), the tables of _random_batches in
    turn: row-major, their entries are successive rng.randrange(n) values."""
    for entries in _random_batches(rng, n, k):
        rows = zip(*[iter(entries)] * n)
        yield from zip(*[rows] * k)


def _row_ranks(entries, n):
    """len(set(row)) for each successive n-entry row of entries, as bytes
    for n <= 8 (entries then bytes): each state v becomes the byte 1 << v,
    n - 1 shift-ORs by whole bytes leave each row's image mask in its first
    byte, and _POPCOUNT counts its bits. Larger n builds the sets."""
    if n > 8:
        return list(map(len, map(set, zip(*[iter(entries)] * n))))
    masks = int.from_bytes(entries.translate(_ONE_HOT), "little")
    folded = masks
    for j in range(1, n):
        folded |= masks >> (8 * j)
    return folded.to_bytes(len(entries), "little")[::n].translate(_POPCOUNT)


def _rank_screen(entries, n):
    """One byte per binary table of entries (flat, 2n entries a table): 1 if
    its two row ranks sum to 2n-1, else 0. For n >= 3 every table with each
    (n-1)-subset an image of Q has the byte 1 (module docstring)."""
    ranks = _row_ranks(entries, n)
    return bytes(map((2 * n - 1).__eq__, map(add, ranks[::2], ranks[1::2])))


def _rank_screened_binary(rng, n):
    """The binary tables among the first SAMPLER_TRIES of
    _random_tables(rng, n, 2) that pass _rank_screen, in draw order; every
    table when n < 3."""
    size = 2 * n
    tries = SAMPLER_TRIES
    for entries in _random_batches(rng, n, 2):
        count = min(len(entries) // size, tries)
        tries -= count
        hits = b"\1" * count if n < 3 else _rank_screen(entries[:count * size], n)
        i = hits.find(1)
        while i >= 0:
            start = i * size
            yield tuple(entries[start:start + n]), tuple(entries[start + n:start + size])
            i = hits.find(1, i + 1)
        if not tries:
            return


def random_synchronizing(n, k, seed):
    """A uniformly sampled transition table, rejection-sampled until it
    synchronizes; deterministic per seed."""
    letters = tuple(chr(ord("a") + i) for i in range(k))
    for delta in itertools.islice(_random_tables(random.Random(seed), n, k), SAMPLER_TRIES):
        d = Dfa(n, letters, delta)
        if engine.is_synchronizing(d):
            return d
    raise CapExceeded(f"no synchronizing table found in {SAMPLER_TRIES} tries")


def random_simple_idempotent_binary(n, seed):
    """Binary, letter a a random simple idempotent, letter b arbitrary."""
    if n < 2:
        raise DomainError("needs n >= 2")
    rng = random.Random(seed)
    for _ in range(SAMPLER_TRIES):
        e = rng.randrange(n)
        dst = rng.choice([q for q in range(n) if q != e])
        arow = tuple(dst if q == e else q for q in range(n))
        brow = tuple(rng.randrange(n) for _ in range(n))
        d = Dfa(n, ("a", "b"), (arow, brow))
        if engine.is_synchronizing(d):
            return d
    raise CapExceeded(f"no synchronizing table found in {SAMPLER_TRIES} tries")


def random_all_simple_idempotent(n, k, seed):
    """k letters, each a random simple idempotent, until synchronizing.

    Needs k >= n-1: the image of any word keeps every state no letter
    excludes, so fewer letters can never reach a singleton. The first n-1
    letters exclude distinct states to keep the rejection rate workable.
    """
    if n < 2:
        raise DomainError("needs n >= 2")
    if k < n - 1:
        raise DomainError("needs at least n-1 letters to synchronize")
    rng = random.Random(seed)
    for _ in range(SAMPLER_TRIES):
        excluded = list(range(n))
        rng.shuffle(excluded)
        excluded = excluded[:n - 1] + [rng.randrange(n) for _ in range(k - n + 1)]
        rows = []
        for e in excluded:
            dst = rng.choice([q for q in range(n) if q != e])
            rows.append(tuple(dst if q == e else q for q in range(n)))
        d = Dfa(n, tuple(f"a{i+1}" for i in range(k)), tuple(rows))
        if engine.is_synchronizing(d):
            return d
    raise CapExceeded(f"no synchronizing table found in {SAMPLER_TRIES} tries")


def random_eulerian_binary(n, seed):
    """Binary Eulerian synchronizing instance: letter b's in-degree profile
    complements letter a's."""
    if n < 1:
        raise InputError(f"tables need n >= 1, got n={n}")
    rng = random.Random(seed)
    for _ in range(SAMPLER_TRIES):
        arow = tuple(rng.randrange(n) for _ in range(n))
        profile = [0] * n
        for t in arow:
            profile[t] += 1
        if max(profile) > 2:
            continue
        targets = [q for q in range(n) for _ in range(2 - profile[q])]
        rng.shuffle(targets)
        brow = tuple(targets)
        d = Dfa(n, ("a", "b"), (arow, brow))
        if classify.is_eulerian(d).status == "in" and engine.is_synchronizing(d):
            return d
    raise CapExceeded(f"no instance found in {SAMPLER_TRIES} tries")


def _reaches_every_corank_one_set(n, delta):
    """True iff every (n-1)-subset of Q is an image of Q under some word.

    Vertex p stands for Q minus p and vertex n for Q: a permutation letter
    moves p to its image, a letter of rank n-1 that misses e and merges q1
    and q2 takes Q, q1 and q2 to e, and letters of lower rank lose a state
    from every (n-1)-set. A single state passes (its only such set is empty).
    """
    if n == 1:
        return True
    images = [set(row) for row in delta]
    if n - 1 not in map(len, images):
        return False
    succs = [[] for _ in range(n + 1)]
    for row, image in zip(delta, images):
        if len(image) == n:
            for p, t in enumerate(row):
                succs[p].append(t)
        elif len(image) == n - 1:
            e = next(q for q in range(n) if q not in image)
            merged = sum(row) - sum(image)
            for p, t in enumerate(row):
                if t == merged:
                    succs[p].append(e)
            succs[n].append(e)
    return len(core.reach(succs, n)) == n + 1


def random_completely_reachable_binary(n, seed):
    """Binary completely reachable instance; draws failing the row-rank
    screen or the (n-1)-subset pre-filter are skipped before the full check,
    so the stream and the accepted table are those of the full check alone."""
    for delta in _rank_screened_binary(random.Random(seed), n):
        if not _reaches_every_corank_one_set(n, delta):
            continue
        d = Dfa(n, ("a", "b"), delta)
        if classify.is_completely_reachable(d).status == "in":
            return d
    raise CapExceeded(f"no instance found in {SAMPLER_TRIES} tries")


def random_one_cluster_binary(n, seed):
    """Binary one-cluster synchronizing instance, strongly connected.

    Without strong connectivity a state with no incoming edges makes any
    subset containing it non-extensible, so the per-class extension bounds
    are gauged on strongly connected instances only.
    """
    for delta in itertools.islice(_random_tables(random.Random(seed), n, 2), SAMPLER_TRIES):
        d = Dfa(n, ("a", "b"), delta)
        if (classify.one_cluster_letters(d) and engine.is_synchronizing(d)
                and core.is_strongly_connected(d)):
            return d
    raise CapExceeded(f"no instance found in {SAMPLER_TRIES} tries")


# -- verification cases ----------------------------------------------------------


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    description: str
    min_n: int
    fn: object


@dataclass
class CaseResult:
    case_id: str
    description: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self):
        return {"case": self.case_id, "description": self.description,
                "outcome": "PASS" if self.passed else "FAIL",
                "detail": self.detail, "seconds": round(self.seconds, 3)}


def crit_cerny_formula(max_n):
    msgs = []
    sizes = range(2, min(10, max_n) + 1)
    for n in sizes:
        inst = families.gen_cerny(n)
        rt = len(engine._meet_search(inst.dfa))
        if rt != (n - 1) ** 2:
            msgs.append(f"n={n}: threshold {rt} != (n-1)^2")
        w = inst.notes["witness_word"]
        if len({core.apply_word(inst.dfa, q, w) for q in range(n)}) != 1:
            msgs.append(f"n={n}: recorded witness word does not reset")
    return not msgs, "; ".join(msgs) or f"{len(sizes)} sizes checked"


def crit_dnk_formula(max_n):
    msgs = []
    pairs = [(n, k) for n, k in [(5, 3), (7, 4), (8, 5), (9, 5), (10, 7)] if n <= max_n]
    for n, k in pairs:
        inst = families.gen_dnk(n, k)
        rt = len(engine._meet_search(inst.dfa))
        if rt != k * (n - 2) + 2:
            msgs.append(f"(n,k)=({n},{k}): threshold {rt} != {k * (n - 2) + 2}")
        w = inst.notes["witness_word"]
        if len({core.apply_word(inst.dfa, q, w) for q in range(n)}) != 1:
            msgs.append(f"(n,k)=({n},{k}): recorded witness word does not reset")
    return not msgs, "; ".join(msgs) or f"{len(pairs)} pairs checked"


def crit_frobenius(max_n):
    msgs = []
    top = min(12, max_n)
    for n in range(3, top + 1):
        for k in range(2, n):
            if math.gcd(n, k) != 1:
                continue
            reachable = {i * n + j * k for i in range(k + 1) for j in range(n + 1)}
            expected = max(x for x in range(n * k) if x not in reachable)
            got = engine.frobenius_largest_gap(n, k)
            if got != expected:
                msgs.append(f"({n},{k}): {got} != scan {expected}")
    return not msgs, "; ".join(msgs) or f"coprime pairs up to {top} checked"


def crit_unbounded_alphabet_families(max_n):
    msgs = []
    for n in range(3, min(7, max_n) + 1):
        for maker in (families.gen_rystsov, families.gen_v):
            inst = maker(n)
            rt = len(engine._meet_search(inst.dfa))
            if rt != n * (n - 1) // 2:
                msgs.append(f"{inst.family} n={n}: {rt} != n(n-1)/2")
    return not msgs, "; ".join(msgs) or "both series checked"


def crit_linear_families(max_n):
    msgs = []
    for n in range(2, min(10, max_n) + 1):
        for maker in (families.gen_chain, families.gen_two_idempotent,
                      families.gen_elevator):
            inst = maker(n)
            rt = len(engine._meet_search(inst.dfa))
            if rt != n - 1:
                msgs.append(f"{inst.family} n={n}: {rt} != n-1")
    return not msgs, "; ".join(msgs) or "three series checked"


def crit_solver_bounds_random(max_n, samples=500):
    msgs = []
    top = min(8, max_n)
    profiled = 0
    for i in range(samples):
        n = 2 + (i % (top - 1))
        d = random_synchronizing(n, 2, seed=1000 + i)
        rt = len(engine._meet_search(d))
        g = engine.greedy_compression_word(d)
        if not rt <= g.length <= (n ** 3 - n) // 6:
            msgs.append(f"greedy bound broken on seed {1000 + i}")
            break
        try:
            bound = engine.extensibility_profile(d).extension_bound()
        except engine.NotExtensible:
            continue
        profiled += 1
        if not rt <= engine.reset_word_via_extension(d).length <= bound:
            msgs.append(f"extension bound broken on seed {1000 + i}")
            break
    detail = f"{samples} seeded instances checked, {profiled} with full profiles"
    return not msgs, "; ".join(msgs) or detail


def crit_a10_solver(max_n, samples=200):
    msgs = []
    for n in range(3, min(10, max_n) + 1):
        res = engine.a10_binary_idempotent_word(families.gen_cerny(n).dfa)
        if res.length > (n - 1) ** 2:
            msgs.append(f"cerny n={n}: length {res.length} over the square bound")
    top = min(10, max_n)
    for i in range(samples):
        n = 2 + (i % (top - 1))
        d = random_simple_idempotent_binary(n, seed=2000 + i)
        try:
            res = engine.a10_binary_idempotent_word(d)
        except AssertionError as exc:
            msgs.append(f"seed {2000 + i}: solver invariant fired: {exc}")
            break
        if res.length > (n - 1) ** 2:
            msgs.append(f"seed {2000 + i}: length {res.length} over the square bound")
            break
    return not msgs, "; ".join(msgs) or f"{samples} seeded instances checked"


def crit_c7_solver(max_n, samples=120):
    msgs = []
    for n in range(2, min(9, max_n) + 1):
        d = families.gen_elevator(n).dfa
        res = engine.c7_height_word(d)
        rt = len(engine._meet_search(d))
        if not res.length == n - 1 == rt:
            msgs.append(f"elevator n={n}: {res.length} vs exact {rt}")
    top = min(9, max_n)
    for i in range(samples):
        n = 2 + (i % (top - 1))
        k = n - 1 + (i % 2)
        d = random_all_simple_idempotent(n, k, seed=3000 + i)
        res = engine.c7_height_word(d)
        rt = len(engine._meet_search(d))
        if not res.length == n - 1 == rt:
            msgs.append(f"seed {3000 + i}: {res.length} vs exact {rt}")
            break
    return not msgs, "; ".join(msgs) or f"{samples} seeded instances checked"


def crit_eppstein(max_n):
    msgs = []
    for n in range(3, min(8, max_n) + 1):
        d = families.gen_cerny(n).dfa
        res = engine.eppstein_orientable_word(d)
        rt = len(engine._meet_search(d))
        if res.length > (n - 1) ** 2 or res.length < rt:
            msgs.append(f"n={n}: produced {res.length}, exact {rt}")
        # re-walk the suffix preimages bit by bit, not by the engine's chunk
        # tables; each must be an arc of the cycle order
        pre = core.letter_preimage_masks(d)
        mask = 1 << res.target
        for a in reversed(res.word):
            mask = core.preimage_mask(pre[a], mask)
            if mask in (0, (1 << n) - 1):
                continue
            ends = sum(1 for j in range(n)
                       if (mask >> j) & 1 and not (mask >> ((j + 1) % n)) & 1)
            if ends != 1:
                msgs.append(f"n={n}: suffix preimage {list(core.bits(mask))} not an interval")
                break
    return not msgs, "; ".join(msgs) or "backward walks stayed within intervals"


def crit_classifier_ground_truths(max_n):
    msgs = []
    for n in range(3, min(10, max_n) + 1):
        d = families.gen_cerny(n).dfa
        if classify.is_circular(d).status != "in":
            msgs.append(f"cerny {n} not circular")
        if ("b", n) not in classify.one_cluster_letters(d):
            msgs.append(f"cerny {n} cluster missing")
        if classify.is_two_junction(d).status != "in":
            msgs.append(f"cerny {n} not 2-junction")
        if classify.is_d6(d).status != "in":
            msgs.append(f"cerny {n} not in the transitive-permutation class")
        if classify.is_completely_reachable(d).status != "in":
            msgs.append(f"cerny {n} not completely reachable")
        if classify.is_a9(d).status != "in":
            msgs.append(f"cerny {n} restricted graph not strongly connected")
        if engine.orientation_violations(d, tuple(range(n))):
            msgs.append(f"cerny {n} not orientable under the identity order")
    for n in (4, 5):
        r = families.gen_rystsov(n).dfa
        if classify.has_zero(r).status != "in":
            msgs.append(f"rystsov {n} has no zero")
        if monoid.is_in_eds(monoid.transition_monoid(r)).status != "in":
            msgs.append(f"rystsov {n} monoid not in the idempotent ideal class")
        m = families.gen_chain(n).dfa
        chain_monoid = monoid.transition_monoid(m)
        if classify.order_class_check(m, "monotonic").status != "in":
            msgs.append(f"chain {n} not monotonic")
        if monoid.is_aperiodic(chain_monoid).status != "in":
            msgs.append(f"chain {n} not aperiodic")
        if monoid.is_in_ds(chain_monoid).status != "in":
            msgs.append(f"chain {n} monoid not in the regular ideal class")
    c4 = families.gen_cerny(4).dfa
    c4_monoid = monoid.transition_monoid(c4)
    if classify.is_eulerian(c4).status != "out":
        msgs.append("cerny 4 misreported eulerian")
    if monoid.is_aperiodic(c4_monoid).status != "out":
        msgs.append("cerny 4 misreported aperiodic")
    if monoid.is_involution_free(c4_monoid).status != "out":
        msgs.append("cerny 4 misreported involution-free")
    if classify.pseudo_eulerian_weights(c4).status != "out":
        msgs.append("cerny 4 misreported weight-feasible")
    return not msgs, "; ".join(msgs) or "all ground truths hold"


def crit_extension_class_properties(max_n, samples=40):
    msgs = []
    top = min(8, max_n)
    cases = []
    for i in range(samples):
        n = 4 + (i % (top - 3))
        cases.append(("eulerian", random_eulerian_binary(n, seed=4000 + i)))
        cases.append(("one-cluster", random_one_cluster_binary(n, seed=5000 + i)))
        if i % 4 == 0:
            cases.append(("completely-reachable",
                          random_completely_reachable_binary(n, seed=6000 + i)))
    for n in range(4, top + 1):
        d = families.gen_cerny(n).dfa
        cases.append(("one-cluster", d))
        cases.append(("completely-reachable", d))
    for kind, d in cases:
        try:
            prof = engine.extensibility_profile(d)
        except engine.NotExtensible as exc:
            msgs.append(f"{kind} n={d.n}: subset not extensible: {exc}")
            break
        n = d.n
        if kind == "eulerian" and prof.max_length > n - 1:
            msgs.append(f"eulerian n={n}: extension length {prof.max_length} > n-1")
        elif kind == "one-cluster" and prof.max_length > 2 * n:
            msgs.append(f"one-cluster n={n}: extension length {prof.max_length} > 2n")
        elif kind == "completely-reachable":
            for size, length in prof.by_size.items():
                cap = 2 * n - math.ceil(n / (n - size))
                if length > cap:
                    msgs.append(f"reachable n={n}: size {size} took {length} > {cap}")
                    break
        if msgs:
            break   # every kind stops the campaign at its first failure
    return not msgs, "; ".join(msgs) or f"{len(cases)} instances profiled"


def crit_eulerian_census(max_n):
    filt = EnumerationFilter(letters=2, states=5, eulerian=True, synchronizing=True)
    report = census_max_rt(filt)
    ok = report.max_rt == 10 and len(report.attainers) == 1
    detail = (f"max threshold {report.max_rt} across {report.classes} classes, "
              f"{len(report.attainers)} attainer(s)")
    return ok, detail


def crit_bound_registry(max_n):
    msgs = []
    if bounds.bound_for_class("pin_frankl", 10) != 165:
        msgs.append("pin_frankl(10) != 165")
    if bounds.bound_for_class("kari_eulerian", 5) != 13:
        msgs.append("kari_eulerian(5) != 13")
    expected = Fraction(85059 * 1000 + 90024 * 100 + 196504 * 10 - 10648, 511104)
    if bounds.bound_for_class("szykula", 10) != expected:
        msgs.append("szykula(10) mismatch")
    for entry in bounds.REGISTRY.values():
        if entry.scale != "quadratic":
            continue
        for n in range(max(2, entry.min_n), min(10, max_n) + 1):
            params = {p: 1 for p in entry.params}
            if bounds.bound_for_class(entry.id, n, **params) < (n - 1) ** 2:
                msgs.append(f"{entry.id} at n={n} dips below the square")
    for n in range(3, min(7, max_n) + 1):
        rt = len(engine._meet_search(families.gen_rystsov(n).dfa))
        if rt > bounds.bound_for_class("b1", n):
            msgs.append(f"b1 bound misses its own family at n={n}")
        rt = len(engine._meet_search(families.gen_chain(n).dfa))
        if rt > bounds.bound_for_class("c1", n):
            msgs.append(f"c1 bound misses its own family at n={n}")
    return not msgs, "; ".join(msgs) or "registry checks hold"


PAPER_CASES = [
    CaseSpec("1-cerny-formula", "series threshold (n-1)^2 and its witness word", 2,
             crit_cerny_formula),
    CaseSpec("2-dnk-formula", "one-cluster series threshold k(n-2)+2 and witness", 5,
             crit_dnk_formula),
    CaseSpec("3-frobenius", "largest non-representable integer vs scan", 3,
             crit_frobenius),
    CaseSpec("4-unbounded-alphabet", "zero and coinciding-cycle series at n(n-1)/2", 3,
             crit_unbounded_alphabet_families),
    CaseSpec("5-linear-families", "chain, two-idempotent, elevator series at n-1", 2,
             crit_linear_families),
    CaseSpec("6-solver-bounds", "greedy and extension bounds on seeded instances", 2,
             crit_solver_bounds_random),
    CaseSpec("7-a10-solver", "binary simple-idempotent solver within the square", 2,
             crit_a10_solver),
    CaseSpec("8-c7-solver", "all-simple-idempotent solver exact at n-1", 2,
             crit_c7_solver),
    CaseSpec("9-eppstein", "interval solver within the square, intervals hold", 3,
             crit_eppstein),
    CaseSpec("10-classifier", "classifier ground truths on the families", 3,
             crit_classifier_ground_truths),
    CaseSpec("11-extension-classes", "per-class extension-length guarantees", 4,
             crit_extension_class_properties),
    CaseSpec("12-eulerian-census", "binary eulerian census at five states", 5,
             crit_eulerian_census),
    CaseSpec("13-bound-registry", "registry values and scale relations", 2,
             crit_bound_registry),
]

QUICK_OVERRIDES = {
    "6-solver-bounds": 40,
    "7-a10-solver": 25,
    "8-c7-solver": 20,
    "11-extension-classes": 6,
}

QUICK_SKIP = {"12-eulerian-census"}


def run_case(spec, max_n, samples=None):
    start = time.perf_counter()
    try:
        passed, detail = spec.fn(max_n) if samples is None else spec.fn(max_n, samples=samples)
    except Exception as exc:  # a crash is a failure, not a verdict
        passed, detail = False, f"error: {exc}"
    return CaseResult(spec.case_id, spec.description, passed, detail,
                      time.perf_counter() - start)


def run_suite(suite="paper", max_n=10, workers=1, out_path=None):
    """Execute the verification campaign; failures are data, not errors."""
    if suite not in ("paper", "quick"):
        raise DomainError(f"unknown suite {suite!r}")
    specs = [s for s in PAPER_CASES if s.min_n <= max_n]
    if suite == "quick":
        specs = [s for s in specs if s.case_id not in QUICK_SKIP]
    jobs = [(s, QUICK_OVERRIDES.get(s.case_id) if suite == "quick" else None) for s in specs]
    # open the output before any case runs, so a bad path fails at once
    try:
        out = contextlib.nullcontext() if out_path is None else open(out_path, "w")
    except OSError as exc:
        raise InputError(f"{out_path}: cannot write the results ({exc})") from None
    with out:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_case, s, max_n, samples) for s, samples in jobs]
                results = [f.result() for f in futures]
        else:
            results = [run_case(s, max_n, samples) for s, samples in jobs]
        results.sort(key=lambda r: r.case_id)
        if out_path is not None:
            for r in results:
                out.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
    return results
