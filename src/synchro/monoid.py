"""Transition-monoid enumeration and the monoid-side class predicates.

Element identity is the transformation array itself; witness words are kept
for diagnostics only. Only the closure and the ideal checks multiply
elements. A predicate on one element reads that map's own functional graph:
its powers are fixed by its cycles (core.cycles_of), and it is idempotent
iff it fixes its image. Ideal computations follow the literal principal-ideal
implication over the closure, with interning; a class is regular iff it
holds an idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

from synchro.core import (
    CapExceeded, Verdict, capped, compose, cycles_of, is_idempotent,
    strongly_connected_components,
)

MONOID_CAP = 200000
DS_CAP = 2000


@dataclass(frozen=True)
class TransitionMonoid:
    """All word-induced transformations, closed under composition.

    elements[0] is the identity; words[i] is a shortest witness word for
    elements[i], lexicographically least at its depth; generators[a] is the
    element index induced by letter a. A depth-limited closure holds only
    the elements of words up to that length.
    """

    n: int
    elements: tuple
    words: tuple
    generators: tuple

    def __len__(self):
        return len(self.elements)

    def idempotents(self):
        return [i for i, t in enumerate(self.elements) if is_idempotent(t)]


def closure(n, gens, cap=MONOID_CAP, depth=None):
    """Breadth-first closure of the identity on n states under the generator
    transformations, generators in index order; with depth, only words up to
    that length are expanded. Raises CapExceeded past cap elements."""
    ident = tuple(range(n))
    index = {ident: 0}
    elements = [ident]
    words = [()]
    # the breadth-first queue is the element list itself, walked as it grows
    for t, w in zip(elements, words):
        if len(w) == depth:
            continue
        for a, g in enumerate(gens):
            t2 = compose(t, g)
            if t2 in index:
                continue
            index[t2] = len(elements)
            elements.append(t2)
            words.append(w + (a,))
            if len(elements) > cap:
                raise CapExceeded(
                    f"transition monoid passed {cap} elements ({len(elements)} so far)"
                    if depth is None else
                    f"transformation census passed {cap} before word length {depth}")
    generators = tuple(index[g] for g in gens)
    return TransitionMonoid(n, tuple(elements), tuple(words), generators)


def transition_monoid(d, cap=MONOID_CAP):
    """Breadth-first closure of the letters under composition."""
    return closure(d.n, d.delta, cap)


def is_aperiodic(m):
    """Every element's power sequence stabilizes (no nontrivial subgroup).

    The powers of t are eventually periodic with period the lcm of t's cycle
    lengths, so they stabilize iff every cycle of t is a fixed point. The
    witness of "out" is the word of the first element with a longer cycle.
    """
    for i, t in enumerate(m.elements):
        if any(len(cyc) > 1 for cyc in cycles_of(t)):
            return Verdict("out", witness=list(m.words[i]))
    return Verdict("in", witness=len(m))


def is_involution_free(m):
    """No element squares to the identity on a state it moves.

    t(t(q)) = q != t(q) holds iff q lies on a 2-cycle of t. The witness of
    "out" is the first such element and its least such state, the first
    state of its first 2-cycle (core.cycles_of's order).
    """
    for i, t in enumerate(m.elements):
        q = next((q for q in range(len(t)) if t[t[q]] == q != t[q]), None)
        if q is not None:
            return Verdict("out", witness={"word": list(m.words[i]), "state": q})
    return Verdict("in", witness=len(m))


def _ideal_class_ids(elements, generators):
    """Class id per element under equality of principal two-sided ideals.

    The ideal of x is the reachability set of x in the graph with edges
    x -> g.x and x -> x.g over the generators (the identity is reachable by
    the empty product), so two elements have equal ideals exactly when they
    sit in one strongly connected component of that graph.
    """
    index = {t: i for i, t in enumerate(elements)}
    gens = [elements[g] for g in generators]
    succs = []
    for x in elements:
        out = set()
        for g in gens:
            out.add(index[compose(g, x)])
            out.add(index[compose(x, g)])
        succs.append(sorted(out))
    return strongly_connected_components(len(elements), succs), index


def _ds_core(elements, generators):
    """The principal-ideal implication over a closed element list.

    Only regular classes are checked. In a finite monoid x² J x iff the
    H-class of x is a group, so a class is regular iff it holds an
    idempotent.
    """
    ideal_of, index = _ideal_class_ids(elements, generators)
    by_ideal = {}
    for i in range(len(elements)):
        by_ideal.setdefault(ideal_of[i], []).append(i)
    for ideal_id, members in by_ideal.items():
        if not any(is_idempotent(elements[x]) for x in members):
            continue
        for y in members:
            for z in members:
                yz = index[compose(elements[y], elements[z])]
                if ideal_of[yz] != ideal_id:
                    return (y, z)
    return None


def is_in_ds(m):
    """Products inside a shared regular ideal class stay in that class."""
    if len(m) > DS_CAP:
        raise CapExceeded(f"monoid of size {len(m)} exceeds the ideal-check cap {DS_CAP}")
    bad = _ds_core(m.elements, m.generators)
    if bad is None:
        return Verdict("in", witness=len(m))
    y, z = bad
    return Verdict("out", witness={"y": list(m.words[y]), "z": list(m.words[z])})


def is_in_eds(m):
    """The idempotent-generated submonoid satisfies the ideal implication."""
    if len(m) > DS_CAP:
        raise CapExceeded(f"monoid of size {len(m)} exceeds the ideal-check cap {DS_CAP}")
    sub = closure(m.n, [m.elements[i] for i in m.idempotents()])
    bad = _ds_core(sub.elements, sub.generators)
    if bad is None:
        return Verdict("in", witness=len(sub))
    return Verdict("out", witness={"submonoid_size": len(sub)})


def monoid_summary(d, cap=MONOID_CAP):
    """Size, idempotent count, and the four monoid verdicts for one automaton."""
    m = transition_monoid(d, cap)
    out = {"size": len(m), "idempotents": len(m.idempotents())}
    out["aperiodic"] = is_aperiodic(m).to_json()
    out["involution_free"] = is_involution_free(m).to_json()
    out["ds"] = capped(lambda: is_in_ds(m)).to_json()
    out["eds"] = capped(lambda: is_in_eds(m)).to_json()
    return out
