"""Slow, independent re-derivations used to cross-check the engines.

Nothing here shares computation strategy with the package: the bracket
oracles resolve crossings recursively or sum all 2^c states (one
union-find per state) instead of contracting a frontier, and sum and
multiply on their own coefficient dicts, not the contraction's table, the
placement-order oracle takes a max over every remaining crossing at
each step instead of keeping open-edge counts on a heap, the
realizability oracle tries every chirality assignment, the embedding
oracle tries the orientation choices in order until one traces c+2
faces instead of colouring the interlacement graph and takes the
mirror by flipping every choice when crossing 1 comes out negative
(both trace faces with ``trace_faces``, on (crossing, slot) darts
walked from a set, where the package numbers its darts), the
relabelling oracle re-reads the Gauss sequence from every basepoint,
the permutation-walk oracle (the earlier enumeration) tries all c!
codes and builds each one's relabellings in full instead of cutting
prefixes, the all-readings oracle (the earlier leaf test) compares a
chord array with each of its 4c readings instead of only those tied
with it at entry 0, the braid count oracle builds the closure's validated Gauss
code from the round-by-round closure walk and the letter signs and reads its
below-set with the based-traversal oracle instead of counting first
visits on the closure walk, the orbit oracle partitions raw
permutations into symmetry orbits by breadth-first closure, the warp
oracles read the below-set afresh at each of the 4c based traversals,
the closure-walk oracle follows position 1 through the whole word once
per strand, the component oracle so follows every strand where the
package sweeps the word once, the bigon oracle compares every pair of
candidate bigons,
the reduction oracle recounts the closure and rescans the word from
its first letter at every step instead of taking the counts from
(c, n) and resuming one scan, the strand-removal oracle follows each
strand through the whole word to find the first ascending one and the
crossing to resolve, and the nugatory oracle counts the ids between
each crossing's passages instead of reading interlacement masks.  The
DT oracle builds a partner array and checks the framing over it before
reading any entry, where ``gauss_to_dt`` writes each entry as its chord
closes, and the braid, DT and Gauss grammar oracles read tokens with
regexes written apart from the parsers'.  ``gauss_code_problem`` is the
one exception: it groups roles per crossing as ``GaussCode`` does, a copy
written apart that pins the class's rejection messages.

Beside them live the checked, whole-object forms of private engine
cores, which the package itself no longer needs: ``rotate``,
``reverse``, ``dt_relabellings`` and ``canonical_dt`` build every
relabelling in full, in their own loop over basepoints and directions,
where the search stops at the first differing entry, and
``find_innermost_bigon``, ``smooth_bigon`` and
``remove_first_ascending_strand`` validate and rebuild a ``BraidWord``
at each step over the pairwise bigon oracle and their own strand walks.

``dataclass_twin`` rebuilds a record as the frozen dataclass it was
before the records shared ``codes._Record``, with the same name, fields
and defaults and no checks, so the record's value semantics can be held
against the code the standard library generates.
"""

import dataclasses
import re
from itertools import permutations, product

from rollercoaster import (
    Basepoint,
    Bigon,
    BracketCapExceeded,
    BraidWord,
    DTCode,
    FramingError,
    GaussCode,
    Laurent,
    RemovalCertificate,
    WarpResult,
    ab_counts,
    dt_to_gauss,
    gauss_to_dt,
    is_reduced,
)
from rollercoaster.braid import MAX_BRAID_LETTERS, ReductionStep
from rollercoaster.codes import _dt_chords
from rollercoaster.embed import (
    Crossing,
    NotRealizable,
    PlanarDiagram,
    is_realizable,
)
from rollercoaster.invariants import _smoothing_arcs
from rollercoaster.search import _check_crossings

DELTA = {2: -1, -2: -1}  # -A^2 - A^-2, as a plain coefficient dict


def _add_into(total: dict, poly: dict) -> None:
    """Add the plain coefficient dict ``poly`` into ``total``."""
    for e, c in poly.items():
        total[e] = total.get(e, 0) + c


def _times(p: dict, q: dict) -> dict:
    """The product of two plain coefficient dicts."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def skein_bracket(diagram) -> Laurent:
    """Bracket by recursive smoothing of one crossing at a time."""
    crossings = [(cr.edges, cr.over[0]) for cr in diagram.crossings]
    total = {}
    _skein(crossings, [], 0, total)
    return Laurent(total)


def _skein(crossings, arcs, exponent, total) -> None:
    """Add the bracket terms of every smoothing of ``crossings`` into ``total``."""
    if not crossings:
        term = {exponent: 1}
        for _ in range(_count_loops(arcs) - 1):
            term = _times(term, DELTA)
        _add_into(total, term)
        return
    (edges, p), rest = crossings[0], crossings[1:]
    a_arcs = arcs + [(edges[p], edges[(p + 3) % 4]), (edges[(p + 2) % 4], edges[(p + 1) % 4])]
    b_arcs = arcs + [(edges[p], edges[(p + 1) % 4]), (edges[(p + 2) % 4], edges[(p + 3) % 4])]
    _skein(rest, a_arcs, exponent + 1, total)
    _skein(rest, b_arcs, exponent - 1, total)


def _count_loops(arcs) -> int:
    # every edge id occurs on exactly two arcs, so the multigraph whose
    # vertices are edge ids and whose edges are arcs is a disjoint union
    # of cycles; loops = connected components
    adjacency = {}
    for k, (a, b) in enumerate(arcs):
        adjacency.setdefault(a, []).append(k)
        adjacency.setdefault(b, []).append(k)
    unvisited = set(range(len(arcs)))
    loops = 0
    while unvisited:
        loops += 1
        stack = [unvisited.pop()]
        while stack:
            k = stack.pop()
            for vertex in arcs[k]:
                for j in adjacency[vertex]:
                    if j in unvisited:
                        unvisited.remove(j)
                        stack.append(j)
    return loops


def state_sum_bracket(diagram, cap: int = 16) -> Laurent:
    """State-sum bracket: sum over all 2^c smoothings of
    A^(a-b) * delta^(loops-1)."""
    c = diagram.size
    if c > cap:
        raise BracketCapExceeded(f"{c} crossings exceeds the cap of {cap}")
    if c == 0:
        return Laurent({0: 1})

    darts = [(ci, s) for ci in range(c) for s in range(4)]
    index = {d: i for i, d in enumerate(darts)}
    ends: dict[int, list[int]] = {}
    for ci, x in enumerate(diagram.crossings):
        for s, e in enumerate(x.edges):
            ends.setdefault(e, []).append(index[(ci, s)])
    arcs = [
        (_smoothing_arcs(x, True), _smoothing_arcs(x, False))
        for x in diagram.crossings
    ]

    delta_pow = [{0: 1}]
    for _ in range(2 * c):
        delta_pow.append(_times(delta_pow[-1], DELTA))

    total = {}
    for state in range(1 << c):
        parent = list(range(4 * c))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(u, v):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

        for pair in ends.values():
            union(pair[0], pair[1])
        a_count = 0
        for ci in range(c):
            use_a = not (state >> ci) & 1
            a_count += 1 if use_a else -1
            for s1, s2 in arcs[ci][0 if use_a else 1]:
                union(index[(ci, s1)], index[(ci, s2)])
        loops = len({find(v) for v in range(4 * c)})
        _add_into(total, {e + a_count: k for e, k in delta_pow[loops - 1].items()})
    return Laurent(total)


def greedy_order_by_intersection(crossings) -> tuple[list[int], list[set[int]]]:
    """Greedy placement order and the set of open edge ids after each
    step, by a max over every remaining crossing at each step, O(c^2):
    next comes the crossing sharing the most edge ids with the open ones,
    the lowest index on ties."""
    open_ids: set[int] = set()
    remaining = list(range(len(crossings)))
    order = []
    frontiers = []
    while remaining:
        best = max(remaining, key=lambda ci: (len(open_ids.intersection(crossings[ci].edges)), -ci))
        remaining.remove(best)
        order.append(best)
        for e in crossings[best].edges:  # a kink's edge id toggles twice here
            open_ids ^= {e}
        frontiers.append(set(open_ids))
    return order, frontiers


def _passage_slot(rot, t, n):
    """Inbound rotation slot of the passage at time t: the slot carrying
    its in-edge with its out-edge opposite."""
    in_e, out_e = t, (t + 1) % n
    for s in range(4):
        if rot[s] == in_e and rot[(s + 2) % 4] == out_e:
            return s
    raise AssertionError("passage edges missing from rotation")


def search_realize(code: DTCode) -> PlanarDiagram:
    """Embedding by trying the 2^(c-1) orientation choices in order and
    keeping the first whose face tracing yields c+2 faces, mirrored when
    that makes crossing 1 negative."""
    c = code.crossings
    if c == 0:
        return PlanarDiagram(())
    n = 2 * c
    times = []  # per crossing: (odd passage time, even passage time), 0-based
    for i, entry in enumerate(code.entries, start=1):
        times.append((2 * i - 2, abs(entry) - 1))

    def half_edges(t):
        return (t, (t + 1) % n)

    def rotations(choices):
        found = []
        for (t1, t2), bit in zip(times, choices):
            in1, out1 = half_edges(t1)
            in2, out2 = half_edges(t2)
            if bit:
                in2, out2 = out2, in2
            found.append((in1, in2, out1, out2))
        return found

    choices = next((bits for bits in product((0,), *[(0, 1)] * (c - 1))
                    if trace_faces(rotations(bits)) == c + 2), None)
    if choices is None:
        raise NotRealizable(f"{code} admits no planar embedding")
    found = rotations(choices)

    overs = []
    signs = []
    for (t1, t2), rot, entry in zip(times, found, code.entries):
        over_t, under_t = (t1, t2) if entry > 0 else (t2, t1)
        over_in = _passage_slot(rot, over_t, n)
        under_in = _passage_slot(rot, under_t, n)
        overs.append(tuple(sorted((over_in, (over_in + 2) % 4))))
        signs.append(1 if under_in == (over_in + 1) % 4 else -1)

    if signs[0] < 0:
        # the mirror: every choice flips, which moves no over-strand off
        # its slot pair and turns every crossing the other way
        found = rotations([bit ^ 1 for bit in choices])
        signs = [-s for s in signs]
    return PlanarDiagram(
        tuple(Crossing(rot, ov, s) for rot, ov, s in zip(found, overs, signs))
    )


def exhaustive_realizable(code: DTCode) -> bool:
    """Realizability by trying all 2^c chirality assignments."""
    c = len(code.entries)
    if c == 0:
        return True
    gauss = dt_to_gauss(code)
    n = 2 * c
    occurrences = {}
    for t, (ident, role) in enumerate(gauss.passages, start=1):
        occurrences.setdefault(ident, []).append((t, role))
    for mask in range(2 ** c):
        if _face_count(gauss, occurrences, mask) == c + 2:
            return True
    return False


def _face_count(gauss, occurrences, mask) -> int:
    n = len(gauss.passages)
    rotations = {}
    for ident, occ in occurrences.items():
        (t1, _), (t2, _) = occ
        in1, out1 = (t1 - 1) % n, t1 % n
        in2, out2 = (t2 - 1) % n, t2 % n
        if (mask >> (ident - 1)) & 1:
            rotations[ident] = (in1, in2, out1, out2)
        else:
            rotations[ident] = (in1, out2, out1, in2)
    return trace_faces(list(rotations.values()))


def trace_faces(rotations) -> int:
    """Faces of the rotation system, darts being (crossing, slot) pairs
    walked from a set; -1 when an edge id is not on exactly two darts."""
    darts = {}
    for ci, rot in enumerate(rotations):
        for slot, edge in enumerate(rot):
            darts.setdefault(edge, []).append((ci, slot))
    twins = {}
    for edge, pair in darts.items():
        if len(pair) != 2:
            return -1
        twins[pair[0]] = pair[1]
        twins[pair[1]] = pair[0]
    unvisited = set(twins)
    faces = 0
    while unvisited:
        faces += 1
        dart = next(iter(unvisited))
        while dart in unvisited:
            unvisited.remove(dart)
            ci, slot = twins[dart]
            dart = (ci, (slot + 1) % 4)
    return faces


def gauss_code_problem(passages):
    """The message ``GaussCode`` rejects ``passages`` with, or None when
    it accepts them: the first passage whose id is not an int, or whose
    role is not "O" or "U", is named, and then the first crossing, in
    first-seen order, whose roles are not exactly one over and one under.
    Roles are grouped per crossing, as the class groups them."""
    roles: dict[int, list[str]] = {}
    for ident, role in passages:
        if type(ident) is not int:
            return f"crossing ids must be integers, got {ident!r}"
        if role not in ("O", "U"):
            return f"bad strand role {role!r}"
        roles.setdefault(ident, []).append(role)
    for ident, rs in roles.items():
        if sorted(rs) != ["O", "U"]:
            return f"crossing {ident} must occur exactly once over and once under"
    return None


def dt_by_partner_array(code: GaussCode) -> DTCode:
    """The DT code of a Gauss sequence in three passes: pair the positions
    of each crossing, reject the equal-parity chord with the least first
    position, then read the entry at each even position off its partner."""
    where: dict[int, list[int]] = {}
    for pos, (ident, _) in enumerate(code.passages):
        where.setdefault(ident, []).append(pos)
    partner = [0] * len(code.passages)
    for p, q in where.values():
        partner[p], partner[q] = q, p
    for p, q in enumerate(partner):
        if p < q and (q - p) % 2 == 0:
            ident = code.passages[p][0]
            raise FramingError(f"crossing {ident} met at labels {p + 1} and {q + 1} of equal parity")
    return DTCode(tuple(
        partner[p] + 1 if code.passages[p][1] == "O" else -partner[p] - 1 for p in range(0, len(partner), 2)
    ))


# the token grammars, apart from the parsers' own patterns.  Every reader
# separates tokens by commas and ASCII whitespace.  A braid token is a
# signed integer, or s<index> with an optional signed power; a DT entry and
# a Gauss crossing id are signed integers; all digits are ASCII, with no
# "+" or "_".  A DT code may sit in one pair of brackets, and ASCII
# whitespace around it is dropped.
TOKEN_SEPARATOR = re.compile(r"[, \t\n\r\x0b\x0c]+")
BRAID_TOKEN = re.compile(r"(-?)([0-9]+)|s([0-9]+)(?:\^(-?[0-9]+))?")
DT_TOKEN = re.compile(r"-?[0-9]+")
GAUSS_TOKEN = re.compile(r"-?[0-9]+")
DT_TEXT = re.compile(r"[ \t\n\r\x0b\x0c]*(?:\[(.*)\]|(.*?))[ \t\n\r\x0b\x0c]*", re.DOTALL)


def braid_by_grammar(text: str) -> BraidWord:
    """The word ``parse_braid(text)`` reads, built checked, or the
    ValueError it raises: a token outside ``BRAID_TOKEN`` or with index 0,
    whichever comes first, then an expansion over MAX_BRAID_LETTERS."""
    powers = []
    for tok in TOKEN_SEPARATOR.split(text):
        if not tok:
            continue
        match = BRAID_TOKEN.fullmatch(tok)
        if match is None:
            raise ValueError(f"malformed braid token {tok!r}")
        minus, plain, index, power = match.groups()
        if plain is not None:
            index, power = plain, "-1" if minus else "1"
        if int(index) == 0:
            raise ValueError("generator index 0 is not allowed")
        powers.append((int(index), int(power or "1")))
    length = sum(abs(power) for _, power in powers)
    if length > MAX_BRAID_LETTERS:
        raise ValueError(f"braid word expands to {length} letters, over the limit of {MAX_BRAID_LETTERS}")
    letters = [(index, 1 if power > 0 else -1) for index, power in powers for _ in range(abs(power))]
    return BraidWord(max((index for index, _ in powers), default=0) + 1, tuple(letters))


def dt_by_grammar(text: str) -> DTCode:
    """The code ``parse_dt(text)`` reads, built checked, or the ValueError
    it raises: the first token outside ``DT_TOKEN``, then what ``DTCode``
    says of the entries."""
    bracketed, bare = DT_TEXT.fullmatch(text).groups()
    entries = []
    for tok in TOKEN_SEPARATOR.split(bare if bracketed is None else bracketed):
        if not tok:
            continue
        if DT_TOKEN.fullmatch(tok) is None:
            raise ValueError(f"malformed DT token {tok!r}")
        entries.append(int(tok))
    return DTCode(tuple(entries))


def gauss_by_grammar(text: str) -> GaussCode:
    """The sequence ``parse_gauss(text)`` reads, built checked, or the
    ValueError it raises: the first token outside ``GAUSS_TOKEN`` or equal
    to zero, then what ``GaussCode`` says of the passages."""
    passages = []
    for tok in TOKEN_SEPARATOR.split(text):
        if not tok:
            continue
        if GAUSS_TOKEN.fullmatch(tok) is None:
            raise ValueError(f"malformed Gauss token {tok!r}")
        if int(tok) == 0:
            raise ValueError("crossing ids must be nonzero")
        passages.append((abs(int(tok)), "U" if tok.startswith("-") else "O"))
    return GaussCode(tuple(passages))


def rotate(code: GaussCode, shift: int) -> GaussCode:
    """Move the basepoint so traversal starts at passage ``shift``."""
    k = shift % len(code.passages) if code.passages else 0
    return GaussCode(code.passages[k:] + code.passages[:k])


def reverse(code: GaussCode) -> GaussCode:
    """Traverse in the opposite direction; roles are unchanged."""
    return GaussCode(code.passages[::-1])


def dt_relabellings(entries: tuple[int, ...]):
    """Entries of the DT codes of one diagram read from each of its 2c
    basepoints in both directions.

    Passage positions are labels minus one, 0..2c-1, and the code pairs
    them up.  A relabelling moves old position p to (s*p + t) mod 2c: for
    k in 0..2c-1 it yields the code of ``rotate(g, k)`` (s = 1, t = -k)
    and then that of ``reverse(rotate(g, k))`` (s = -1, t = k - 1), where
    g is the Gauss sequence of ``entries``.  The new entry at each even
    position is the new partner position plus one, positive when the
    passage at that position runs over.
    """
    partner, over = _dt_chords(entries)
    n = len(partner)
    for k in range(n):
        for s, t in ((1, -k), (-1, k - 1)):
            code = []
            for q in range(0, n, 2):
                p = s * (q - t) % n
                label = (s * partner[p] + t) % n + 1
                code.append(label if over[p] else -label)
            yield tuple(code)


def canonical_dt(code) -> DTCode:
    """Lexicographically least DT code over all 2c rotations and both
    traversal directions.  Used for deduplication."""
    if isinstance(code, GaussCode):
        code = gauss_to_dt(code)
    return DTCode(min(dt_relabellings(code.entries), default=()))


def gauss_variants(gauss):
    """DT entries from every basepoint: for k = 0..2c-1, those of
    ``rotate(gauss, k)`` then of its reversal, None where the labelling
    fails."""
    variants = []
    for k in range(len(gauss.passages)):
        shifted = rotate(gauss, k)
        for variant in (shifted, reverse(shifted)):
            try:
                variants.append(gauss_to_dt(variant).entries)
            except FramingError:
                variants.append(None)
    return variants


def symmetry_orbits(codes):
    """Partition all-positive DT codes into rotation/reversal/mirror orbits."""
    remaining = {code.entries: code for code in codes}
    orbits = []
    while remaining:
        _, seed = remaining.popitem()
        orbit = {seed.entries}
        for entries in gauss_variants(dt_to_gauss(seed)):
            if entries is None:
                continue
            key = tuple(abs(e) for e in entries)
            orbit.add(key)
            remaining.pop(key, None)
        orbits.append(frozenset(orbit))
    return orbits


def based_warp(gauss, base):
    """The below-set read off the passages in traversal order from ``base``."""
    passages, k = gauss.passages, base.edge
    if base.forward:
        order = passages[k:] + passages[:k]
    else:
        order = passages[:k][::-1] + passages[k:][::-1]
    below, above = set(), set()
    for ident, role in order:
        if ident not in below and ident not in above:
            (below if role == "U" else above).add(ident)
    return WarpResult(base, frozenset(below))


def warp_profile_by_basepoint(gauss, forward=True):
    """Warping degree at every edge, one based traversal per edge."""
    return [based_warp(gauss, Basepoint(e, forward)).degree for e in range(len(gauss.passages))]


def min_warp_by_basepoint(gauss):
    """First least-degree result over edges in order, forward before backward."""
    best = None
    for edge in range(len(gauss.passages)):
        for forward in (True, False):
            result = based_warp(gauss, Basepoint(edge, forward))
            if best is None or result.degree < best.degree:
                best = result
    return best


def ab_counts_by_warp(word):
    """(a, b) as the above- and below-set sizes of the based traversal
    from edge 0 of the closure's Gauss sequence, the above-set being every
    crossing of the sequence outside the below-set.  The sequence is built
    from the round-by-round closure walk: on a positive letter the strand
    entering at the upper position passes over, on a negative letter the
    one entering at the lower position does."""
    if word.strands > len(word.letters) + 1:
        raise ValueError(f"closure has at least {word.strands - len(word.letters)} components")
    components = components_by_rounds(word)
    if components != 1:
        raise ValueError(f"closure has {components} components")
    passages = []
    for slot, upper in closure_walk_by_rounds(word):
        over = upper if word.letters[slot - 1][1] == 1 else not upper
        passages.append((slot, "O" if over else "U"))
    below = based_warp(GaussCode(tuple(passages)), Basepoint(0)).below
    return (len({slot for slot, _ in passages} - below), len(below))


def components_by_rounds(word):
    """The number of closure components: each strand not yet met is
    followed through the whole word, round after round, until it is back
    where it started."""
    met, components = set(), 0
    for start in range(1, word.strands + 1):
        if start in met:
            continue
        components += 1
        pos = start
        while pos not in met:
            met.add(pos)
            for idx, _ in word.letters:
                if pos == idx:
                    pos = idx + 1
                elif pos == idx + 1:
                    pos = idx
    return components


def closure_walk_by_rounds(word):
    """Closure passages of a knot word as (letter position, entered upper)
    pairs, following position 1 through the whole word once per strand."""
    passages = []
    pos = 1
    for _ in range(word.strands):
        for slot, (idx, _) in enumerate(word.letters, start=1):
            if pos == idx:
                passages.append((slot, True))
                pos = idx + 1
            elif pos == idx + 1:
                passages.append((slot, False))
                pos = idx
    return passages


def innermost_bigons_pairwise(word):
    """Innermost bigons ordered by left end: consecutive letters of one
    strand pair with no such letter pair strictly inside."""
    occupant = list(range(1, word.strands + 1))
    slots = {}
    for k, (idx, _) in enumerate(word.letters):
        slots.setdefault(tuple(sorted(occupant[idx - 1:idx + 1])), []).append(k)
        occupant[idx - 1], occupant[idx] = occupant[idx], occupant[idx - 1]
    candidates = [Bigon(i, j, pair) for pair, ks in slots.items() for i, j in zip(ks, ks[1:])]
    innermost = [b for b in candidates if not any(b.i < o.i and o.j < b.j for o in candidates)]
    return sorted(innermost, key=lambda b: b.i)


def find_innermost_bigon(word: BraidWord) -> Bigon | None:
    """Leftmost innermost bigon, or None when every pair of strands
    crosses at most once."""
    bigons = innermost_bigons_pairwise(word)
    return bigons[0] if bigons else None


def smooth_bigon(word: BraidWord, bigon: Bigon) -> BraidWord:
    """Delete the bigon's two letters.  The closure stays a knot and the
    (above, below) counts each drop by one."""
    if bigon not in innermost_bigons_pairwise(word):
        raise ValueError(f"{bigon} is not an innermost bigon of this word")
    letters, i, j = word.letters, bigon.i, bigon.j
    return BraidWord(word.strands, letters[:i] + letters[i + 1 : j] + letters[j + 1 :])


def _follow(letters, pos, skip=None):
    """Heights of the strand entering at ``pos`` before each letter, and
    its height at the right edge; at letter ``skip`` it goes straight on."""
    heights = []
    for slot, (idx, _) in enumerate(letters):
        heights.append(pos)
        if slot != skip and pos in (idx, idx + 1):
            pos = 2 * idx + 1 - pos
    return heights, pos


def remove_first_ascending_strand(word: BraidWord) -> tuple[BraidWord, RemovalCertificate]:
    """Resolve the crossing between the first ascending traversal strand
    and its predecessor, then delete the closed strand this creates.

    Requires a positive bigon-free word with knot closure on at least
    two strands.  The resulting word has one strand fewer, and its
    (above, below) counts are (a - m - 1, b - m).
    """
    if not word.is_positive():
        raise ValueError("word is not positive")
    if word.strands < 2:
        raise ValueError("nothing to remove from a one-strand word")
    if innermost_bigons_pairwise(word):
        raise ValueError("word has a bigon; smooth it first")
    letters = word.letters
    paths = {start: _follow(letters, start) for start in range(1, word.strands + 1)}
    order = [1]
    while paths[order[-1]][1] != 1:
        order.append(paths[order[-1]][1])
    if len(order) != word.strands:
        raise ValueError("closure is a link, not a knot")
    prev, cur = next((p, q) for p, q in zip(order, order[1:]) if paths[q][1] < q)
    # the one letter where the two strands swap heights
    resolved = next(
        slot for slot, (idx, _) in enumerate(letters)
        if {paths[prev][0][slot], paths[cur][0][slot]} == {idx, idx + 1}
    )
    heights, end = _follow(letters, cur, skip=resolved)
    dropped = {slot for slot, (idx, _) in enumerate(letters) if heights[slot] in (idx, idx + 1)}
    if end != cur or len(dropped) % 2 == 0:
        raise AssertionError("the removed strand must close at its own height after 2m crossings")
    kept = tuple(
        (idx - 1 if idx > heights[slot] else idx, sign)
        for slot, (idx, sign) in enumerate(letters)
        if slot not in dropped
    )
    cert = RemovalCertificate(crossing=resolved, strand=cur, m=len(dropped) // 2)
    return BraidWord(word.strands - 1, kept), cert


def reduce_by_resweep(word):
    """The reduction with each step's counts read off a fresh closure
    walk and each bigon found by a fresh scan from the first letter."""
    if not word.is_positive():
        raise ValueError("word is not positive")
    steps = []
    current = word
    while len(current.letters) > current.strands - 1:
        before = steps[-1].counts_after if steps else ab_counts(current)
        bigon = find_innermost_bigon(current)
        if bigon is not None:
            action, detail, current = "smooth", bigon, smooth_bigon(current, bigon)
        else:
            action = "remove"
            current, detail = remove_first_ascending_strand(current)
        steps.append(ReductionStep(action, detail, before, ab_counts(current), current))
    return current, steps


def reduced_by_counting(code):
    """True when no crossing is nugatory: no crossing sees the ids strictly
    between its two passages closed under pairing."""
    where: dict[int, list[int]] = {}
    for pos, (ident, _) in enumerate(code.passages):
        where.setdefault(ident, []).append(pos)
    for ident, (p, q) in where.items():
        counts: dict[int, int] = {}
        for other, _ in code.passages[p + 1 : q]:
            counts[other] = counts.get(other, 0) + 1
        if all(v == 2 for v in counts.values()):
            return False
    return True


def least_over_every_reading(partner) -> bool:
    """Whether the unsigned DT code of a chord array, entry i being
    ``partner[2i] + 1``, is the least of the unsigned codes of all 4c
    readings: for k in 0..2c-1, forward from passage k moves old position
    p to p - k (s = 1, t = -k) and backward from passage k - 1 moves it
    to k - 1 - p (s = -1, t = k - 1), both mod 2c."""
    n = len(partner)
    code = [partner[q] for q in range(0, n, 2)]
    for k in range(n):
        for s, t in ((1, -k), (-1, k - 1)):
            if [(s * partner[s * (q - t) % n] + t) % n for q in range(0, n, 2)] < code:
                return False
    return True


def enumerate_by_permutations(c: int):
    """Classes of reduced realizable alternating codes, found by walking
    all c! permutations in lexicographic order and keeping each one no
    relabelling undercuts."""
    _check_crossings(c)
    for perm in permutations(range(2, 2 * c + 1, 2)):
        if any(tuple(map(abs, entries)) < perm for entries in dt_relabellings(perm)):
            continue
        code = DTCode(perm)
        if is_reduced(dt_to_gauss(code)) and is_realizable(code):
            yield code


def dataclass_twin(cls):
    """A frozen dataclass with the name, fields and defaults of the
    record ``cls`` and no ``__post_init__``."""
    return dataclasses.make_dataclass(cls.__name__, [
        (name, object, dataclasses.field(default=vars(cls)[name])) if name in vars(cls) else name
        for name in cls.__match_args__
    ], frozen=True)
