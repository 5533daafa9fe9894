"""The incidence layer on masks against the set-based code it replaced.

The oracles below are the flag backtracker, extension sets, maximality
test, lift search, residue-map loop and restriction as they were before
incidence was kept as integer masks only: lists filtered by neighbour
sets read from the pair set, `set &` and `sorted` per flag, incidence
read from the pair set, and each residue's pairs found by a scan of all
of them.  `flags_of_type` is checked against the filter over the whole
flag list that its per-geometry index replaced.

`all_flags` walks on an explicit stack; the recursive mask walker it
replaced is its oracle.  `lift_flag` walks it on the members of its
blocks, with the set-based lift search as oracle, also on relabelled
draws whose element order is not block order; `is_m_cover` and graph
cliques read the flag table, with the `all_flags` filters they replaced
as oracles.  The flag table kept from a walk (by `is_geometry`, by the
cap test of `keep_flags`, and `is_geometry` read from the table) is
checked against the flags themselves.
`repair_to_geometry` adds incidences to local masks and builds one
pregeometry; the loop that rebuilt one after each incidence is its
oracle, with the same draws from the same random generator.

The projection layer reads block masks: the quotient's incidences come
from each block's neighbourhood, and (PQ1), (PQ2), residual
surjectivity, the residue-map test, m-covers, covers and the
total-order criterion AND masks per flag.  Their oracles are the
versions before: the quotient mapped from every source pair, and each
decider on extension sets, projected flags and a target set of blocks.
`is_automorphism` is checked against its sorted-pair-tuple lookup.

Library code builds a pregeometry from the masks it holds
(`Pregeometry._of_masks`): projection quotients, random and repaired
draws, coset geometries, residues and truncations.  Each is checked
against the pregeometry the public constructor builds from the pair set
the code made before (the same random draws, replayed), in everything a
reader sees.  An orbit partition, taken from the union-find's orbits
unchecked, and a random partition are checked against the public
`Partition`.

The residue questions of the diagram layer -- digons, the basic diagram
and residual connectivity -- are checked against their versions before
they were decided on masks: each residue built as a `Pregeometry` by
`residue` and asked `is_generalized_digon` or `is_connected`, and every
total-incidence test an all-pairs loop over `incident`.  The purity,
direct-sum and path-property oracles here are the ones
`tests/test_diagram.py` states its diagram theorems on.
"""

import random
from itertools import combinations

import pytest

from geoq.constructions import SimpleGraph, eight_cycle, hexagon, ssg
from geoq.cosets import FiniteGroup, coseteg_family
from geoq.diagram import basic_diagram
from geoq.geometry import (_TABLE, Pregeometry, _flag_table,
                           all_flags, extensions, flags_by_rank_lex,
                           flags_of_type, is_connected, is_flag,
                           is_generalized_digon, is_geometry,
                           is_residually_connected, keep_flags, mask_of,
                           non_incident_pair, residue, same_type_incidence,
                           truncation)
from geoq.lemmas import (random_geometry, random_partition,
                         random_pregeometry, repair_to_geometry)
from geoq.perms import Perm, is_automorphism, orbit_partition
from geoq.quotient import (Projection, _residue_isomorphic_onto,
                           _residue_map_failure, check_flagslift, check_PQ1,
                           check_PQ2, is_cover, is_m_cover, lift_flag,
                           residual_surjectivity, singleton_partition,
                           total_order_flagslift)


def _neighbours(geom):
    """Each element's neighbour set, read from the pair set (a graph's
    edge set)."""
    out = [set() for _ in range(geom.size)]
    for a, b in geom.edges if isinstance(geom, SimpleGraph) else geom.pairs:
        out[a].add(b)
        out[b].add(a)
    return out


def _set_all_flags(geom):
    adj = _neighbours(geom)

    def rec(flag, cand):
        yield tuple(flag)
        for i, x in enumerate(cand):
            nxt = [y for y in cand[i + 1:] if y in adj[x]]
            flag.append(x)
            yield from rec(flag, nxt)
            flag.pop()
    yield from rec([], list(range(geom.size)))


def _recursive_all_flags(geom):
    # the mask walker before the explicit stack: a `yield from` chain
    masks = geom.masks

    def rec(flag, cand):
        yield flag
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            yield from rec(flag + (x,), cand & masks[x])
    yield from rec((), (1 << geom.size) - 1)


def _rebuilding_repair(geom, rng):
    # repair_to_geometry before local masks: a new Pregeometry, walked
    # from scratch, after each incidence added
    while True:
        ok, flag = is_geometry(geom)
        if ok:
            return geom
        missing = sorted(set(range(geom.rank))
                         - {geom.elem_type[x] for x in flag})
        t = rng.choice(missing)
        z = rng.choice(geom.by_type[t])
        pairs = set(geom.pairs)
        pairs.update((min(z, y), max(z, y)) for y in flag)
        geom = _pair_built(geom.type_names, geom.elem_names,
                           geom.elem_type, pairs)


def _fresh(geom):
    return Pregeometry(geom.type_names, geom.elem_names, geom.elem_type,
                       geom.pairs)


def _pair_built(type_names, elem_names, elem_type, pairs):
    """A pregeometry from the public constructor, whose pair set is the
    normalised edge list it was given."""
    pairs = list(pairs)
    geom = Pregeometry(type_names, elem_names, elem_type, pairs)
    assert geom.pairs == {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    return geom


def _same_build(got, want):
    """A pregeometry built from masks against the one the public
    constructor builds from pairs: everything a reader can see."""
    assert got == want and hash(got) == hash(want)
    assert got.pairs == want.pairs and got.masks == want.masks
    assert got.by_type == want.by_type and repr(got) == repr(want)
    assert (got.type_names, got.elem_names, got.elem_type) == (
        want.type_names, want.elem_names, want.elem_type)
    assert got._elem_index == want._elem_index


def _pair_random_pregeometry(rng, max_rank=4, max_per_type=4):
    # random_pregeometry before masks: the same draws into a pair list
    rank = rng.randint(2, max_rank)
    sizes = [rng.randint(1, max_per_type) for _ in range(rank)]
    names, etype = [], []
    for t, s in enumerate(sizes):
        for i in range(s):
            names.append("x%d_%d" % (t, i))
            etype.append(t)
    density = rng.uniform(0.3, 0.9)
    pairs = [(a, b) for a in range(len(names))
             for b in range(a + 1, len(names))
             if etype[a] != etype[b] and rng.random() < density]
    return _pair_built([str(t) for t in range(rank)], names, etype, pairs)


def _replayed(rng, draw, oracle):
    """draw(rng), and oracle(rng) from the same generator state, which
    must consume the same draws; the generator ends where draw left it."""
    state = rng.getstate()
    got = draw(rng)
    after = rng.getstate()
    rng.setstate(state)
    want = oracle(rng)
    assert rng.getstate() == after
    return got, want


def _set_extensions(geom, adj, flag):
    # adj: geom's _neighbours, built once by the caller
    if not flag:
        return sorted(range(geom.size))
    out = set(adj[flag[0]])
    for x in flag[1:]:
        out &= adj[x]
    return sorted(out)


def _set_is_geometry(geom):
    adj = _neighbours(geom)
    for flag in _set_all_flags(geom):
        if len(flag) < geom.rank and not _set_extensions(geom, adj, flag):
            return False, flag
    return True, None


def _filter_flags_of_type(geom, types):
    J = set(types)
    et = geom.elem_type
    return [f for f in flags_by_rank_lex(geom)
            if len(f) == len(J) and all(et[x] in J for x in f)]


def _pair_incident(geom, a, b):
    return a == b or (min(a, b), max(a, b)) in geom.pairs


def _set_lift_flag(proj, adj, qflag):
    # adj: the source's _neighbours, built once by the caller
    blocks = [proj.fiber(k) for k in qflag]

    def rec(i, chosen):
        if i == len(blocks):
            return tuple(sorted(chosen))
        for x in blocks[i]:
            if all(x in adj[y] for y in chosen):
                got = rec(i + 1, chosen + [x])
                if got is not None:
                    return got
        return None

    return rec(0, [])


def _set_residue_map_failure(proj, classes, target):
    src, q, block_of = proj.source, proj.quotient, proj.block_of
    image = [block_of[c[0]] for c in classes]
    if len(set(image)) != len(image):
        return "not injective"
    if set(image) != target:
        return "not surjective"
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            have = any(_pair_incident(src, x, y)
                       for x in a for y in classes[j])
            if have != _pair_incident(q, image[i], image[j]):
                return "incidence not matched"
    return None


def _project(proj, flag):
    # the blocks of a flag's members, of any enumerated "flag" (one with
    # two members of a type, too)
    return tuple(sorted({proj.block_of[x] for x in flag}))


def _pair_scan_quotient(proj):
    """The quotient as Projection built it from every incident pair of
    the source."""
    src, part = proj.source, proj.partition
    pairs = {(min(ka, kb), max(ka, kb)) for a, b in src.pairs
             for ka, kb in [(part.block_of[a], part.block_of[b])]
             if ka != kb}
    return _pair_built(
        src.type_names,
        ["{%s}" % ",".join(src.elem_names[x] for x in block)
         for block in part.blocks],
        [src.elem_type[block[0]] for block in part.blocks], pairs)


def _set_check_PQ1(proj, adj, qadj):
    # adj, qadj: the _neighbours of the source and of the quotient
    src, q = proj.source, proj.quotient
    for flag in flags_by_rank_lex(src):
        if not flag:
            continue
        ext = set(_set_extensions(src, adj, flag))
        for k in _set_extensions(q, qadj, _project(proj, flag)):
            if not any(x in ext for x in proj.fiber(k)):
                return False, (flag, k)
    return True, None


def _set_check_PQ2(proj, adj):
    src = proj.source
    for flag in flags_by_rank_lex(src):
        if len(flag) != src.rank - 1:
            continue
        met = {proj.block_of[x] for x in _set_extensions(src, adj, flag)}
        if len(met) < 2:
            return False, flag
    return True, None


def _set_residual_surjectivity(proj, adj, qadj):
    src, q = proj.source, proj.quotient
    for flag in _set_all_flags(src):
        qflag = _project(proj, flag)
        image = {proj.block_of[x] for x in _set_extensions(src, adj, flag)}
        qtypes = {q.elem_type[k] for k in qflag}
        target = {k for k in _set_extensions(q, qadj, qflag)
                  if q.elem_type[k] not in qtypes}
        if image != target:
            return False
    return True


def _set_residue_isomorphic_onto(proj, adj, qadj, flag):
    target = set(_set_extensions(proj.quotient, qadj, _project(proj, flag)))
    return _set_residue_map_failure(
        proj, [(x,) for x in _set_extensions(proj.source, adj, flag)], target)


def _set_is_m_cover(proj, adj, qadj, m):
    for flag in flags_by_rank_lex(proj.source):
        if len(flag) == proj.source.rank - m:
            reason = _set_residue_isomorphic_onto(proj, adj, qadj, flag)
            if reason is not None:
                return False, (flag, reason)
    return True, None


def _walked_is_m_cover(proj, m):
    # is_m_cover before it read the flag table: the corank-m flags
    # filtered from a fresh all_flags walk
    for flag in all_flags(proj.source):
        if len(flag) == proj.source.rank - m:
            reason = _residue_isomorphic_onto(proj, flag)
            if reason is not None:
                return False, (flag, reason)
    return True, None


def _relabelled(geom, rng):
    """geom with its elements renumbered at random, so that they are no
    longer numbered type by type."""
    new = list(range(geom.size))
    rng.shuffle(new)
    names, etype = [None] * geom.size, [None] * geom.size
    for x, y in enumerate(new):
        names[y], etype[y] = geom.elem_names[x], geom.elem_type[x]
    return Pregeometry(geom.type_names, names, etype,
                       [(new[a], new[b]) for a, b in geom.pairs])


def _set_total_order_flagslift(proj, adj, qadj, order):
    src, q = proj.source, proj.quotient
    pos = {t: i for i, t in enumerate(order)}
    for x in range(src.size):
        px = pos[src.elem_type[x]]
        up = [(y,) for y in sorted(adj[x]) if pos[src.elem_type[y]] > px]
        target = {k for k in qadj[proj.block_of[x]]
                  if pos[q.elem_type[k]] > px}
        if _set_residue_map_failure(proj, up, target) is not None:
            return False
    ok, witness = check_flagslift(proj)
    if not ok:
        raise RuntimeError("total-order criterion held but a quotient flag "
                           "failed to lift: %r" % (witness,))
    return True


def _outcome(fn, *args):
    """What fn(*args) returns, or "raised" for the RuntimeError it
    raises."""
    try:
        return fn(*args)
    except RuntimeError:
        return "raised"


def _pair_is_automorphism(geom, perm):
    if perm.degree != geom.size:
        return False
    for x in range(geom.size):
        if geom.elem_type[perm[x]] != geom.elem_type[x]:
            return False
    return all((min(perm[a], perm[b]), max(perm[a], perm[b])) in geom.pairs
               for a, b in geom.pairs)


def _check_automorphisms(geom, rng, verdicts, gens=()):
    """is_automorphism against the pair lookup on the identity, gens, a
    random permutation within each type, and one that swaps two
    elements of different types."""
    def seen(name, value):
        verdicts.setdefault(name, set()).add(value)

    images = list(range(geom.size))
    for members in geom.by_type:
        shuffled = rng.sample(members, len(members))
        for x, y in zip(members, shuffled):
            images[x] = y
    perms = [Perm.identity(geom.size), Perm(images)] + list(gens)
    if len(geom.by_type) > 1 and all(geom.by_type[:2]):
        swap = list(range(geom.size))
        a, b = geom.by_type[0][0], geom.by_type[1][0]
        swap[a], swap[b] = b, a
        perms.append(Perm(swap))
        assert not is_automorphism(geom, perms[-1])
    assert not is_automorphism(geom, Perm.identity(geom.size + 1))
    for perm in perms:
        assert is_automorphism(geom, perm) == _pair_is_automorphism(geom, perm)
    seen("type-keeping automorphism", is_automorphism(geom, perms[1]))


def _check_deciders(proj, verdicts):
    """The quotient and each projection decider against its set oracle;
    verdicts maps each decider to the set of answers seen."""
    def seen(name, value):
        verdicts.setdefault(name, set()).add(value)
        return value

    src, q = proj.source, proj.quotient
    _same_build(q, _pair_scan_quotient(proj))
    adj, qadj = _neighbours(src), _neighbours(q)
    got = check_PQ1(proj)
    assert got == _set_check_PQ1(proj, adj, qadj)
    seen("pq1", got[0])
    got = check_PQ2(proj)
    assert got == _set_check_PQ2(proj, adj)
    seen("pq2", got[0])
    assert residual_surjectivity(proj) == seen(
        "residually-surjective", _set_residual_surjectivity(proj, adj, qadj))
    for flag in flags_by_rank_lex(src):
        got = _residue_isomorphic_onto(proj, flag)
        assert got == _set_residue_isomorphic_onto(proj, adj, qadj, flag)
        seen("residue-isomorphic", got is None)
    assert is_cover(proj) == seen("cover", all(
        _set_residue_isomorphic_onto(proj, adj, qadj, (x,)) is None
        for x in range(src.size)))
    for m in range(1, src.rank):
        got = is_m_cover(proj, m)
        assert got == _set_is_m_cover(proj, adj, qadj, m)
        seen("m-cover", got[0])
    for order in (list(range(src.rank)), list(reversed(range(src.rank)))):
        got = _outcome(total_order_flagslift, proj, order)
        assert got == _outcome(_set_total_order_flagslift, proj, adj, qadj,
                               order)
        seen("total-order", got)


def _pair_scan_restriction(geom, types, members):
    """The pregeometry on members with the given types, its pairs found
    by scanning all of geom.pairs."""
    tmap = {t: k for k, t in enumerate(types)}
    emap = {x: k for k, x in enumerate(members)}
    pairs = [(emap[a], emap[b]) for a, b in geom.pairs
             if a in emap and b in emap]
    return _pair_built(
        [geom.type_names[t] for t in types],
        [geom.elem_names[x] for x in members],
        [tmap[geom.elem_type[x]] for x in members],
        pairs)


def _check_restrictions(geom, flags):
    """residue at each of flags and truncation to every nonempty type set
    against the pair scan; returns how many were compared."""
    adj = _neighbours(geom)
    seen = 0
    for flag in flags:
        got, members = residue(geom, flag)
        ftypes = {geom.elem_type[x] for x in flag}
        want = _pair_scan_restriction(
            geom, [t for t in range(geom.rank) if t not in ftypes],
            _set_extensions(geom, adj, flag))
        assert members == tuple(_set_extensions(geom, adj, flag))
        _same_build(got, want)
        seen += 1
    for r in range(1, geom.rank + 1):
        for types in combinations(range(geom.rank), r):
            members = [x for x in range(geom.size)
                       if geom.elem_type[x] in types]
            got = truncation(geom, types)
            want = _pair_scan_restriction(geom, list(types), members)
            _same_build(got, want)
            seen += 1
    return seen


def _check_flag_table(geom, flags):
    """The table kept by is_geometry, by the cap test or by a full
    walk, each on a fresh copy of geom, against flags."""
    verdict = is_geometry(geom)
    # is_geometry keeps the table, on a geometry and a non-geometry alike
    assert geom._memo[_TABLE] == tuple(flags)
    assert _flag_table(geom) == tuple(flags)
    capped = _fresh(geom)
    assert not keep_flags(capped, all_flags(capped), len(flags) - 1)
    assert keep_flags(capped, all_flags(capped), len(flags))
    assert _flag_table(capped) == tuple(flags)
    assert not keep_flags(capped, iter(()), len(flags) - 1)
    assert is_geometry(capped) == verdict  # read from the table


def _check_flag_layer(geom):
    flags = list(all_flags(geom))
    assert flags == list(_set_all_flags(geom))
    assert flags == list(_recursive_all_flags(geom))
    adj = _neighbours(geom)
    for flag in flags:
        assert extensions(geom, flag) == _set_extensions(geom, adj, flag)
    assert is_geometry(geom) == _set_is_geometry(geom)
    _check_flag_table(_fresh(geom), flags)
    for r in range(geom.rank + 1):
        for types in combinations(range(geom.rank), r):
            assert (flags_of_type(geom, types)
                    == _filter_flags_of_type(geom, types))
    for a in range(geom.size):
        for b in range(geom.size):
            assert geom.incident(a, b) == _pair_incident(geom, a, b)
    return flags


def _check_projection(proj, reasons):
    src, q = proj.source, proj.quotient
    adj = _neighbours(src)
    for qflag in flags_by_rank_lex(q):
        assert lift_flag(proj, qflag) == _set_lift_flag(proj, adj, qflag)
    for flag in flags_by_rank_lex(src):
        ext = extensions(src, flag)
        target = set(extensions(q, _project(proj, flag)))
        by_block = {}
        for x in ext:
            by_block.setdefault(proj.block_of[x], []).append(x)
        for classes in ([(x,) for x in ext], list(by_block.values())):
            got = _residue_map_failure(proj, classes, mask_of(target))
            assert got == _set_residue_map_failure(proj, classes, target)
            reasons.add(got)


def test_mask_layer_agrees_with_set_layer(rng):
    reasons = set()
    verdicts = set()
    decided = {}
    perm_rng = random.Random(4417)  # kept apart, so the draws are unchanged
    for i in range(520):
        if i % 2:
            geom, want = _replayed(
                rng, lambda r: random_geometry(r, max_rank=4, max_per_type=3),
                lambda r: _rebuilding_repair(_pair_random_pregeometry(
                    r, max_rank=4, max_per_type=3), r))
        else:
            geom, want = _replayed(
                rng, lambda r: random_pregeometry(r, max_rank=4,
                                                  max_per_type=4),
                lambda r: _pair_random_pregeometry(r, max_rank=4,
                                                   max_per_type=4))
        _same_build(geom, want)
        flags = _check_flag_layer(geom)
        _check_restrictions(geom, flags)
        verdicts.add(is_geometry(geom)[0])
        proj = Projection(geom, random_partition(rng, geom))
        _check_projection(proj, reasons)
        _check_deciders(proj, decided)
        _check_automorphisms(geom, perm_rng, decided)
    assert verdicts == {True, False}
    assert reasons == {None, "not injective", "not surjective",
                       "incidence not matched"}, reasons
    assert decided.pop("total-order") == BOTH
    assert decided == {name: BOTH for name in DECIDERS}, decided


def test_repair_agrees_with_rebuilding_loop(rng, bundled_geometries):
    repaired = 0
    draws = [random_pregeometry(rng, max_rank=4, max_per_type=4)
             for _ in range(520)]
    for geom in draws + bundled_geometries:
        state = rng.getstate()
        got = repair_to_geometry(geom, rng)
        after = rng.getstate()
        rng.setstate(state)
        want = _rebuilding_repair(_fresh(geom), rng)
        assert rng.getstate() == after
        _same_build(got, want)
        assert _flag_table(got) == tuple(_recursive_all_flags(want))
        assert is_geometry(got) == (True, None)
        repaired += got is not geom
    assert 100 <= repaired <= 520, repaired


def test_mask_layer_agrees_on_bundled_geometries(rng, bundled_geometries):
    seen = 0
    for geom in bundled_geometries:
        flags = _check_flag_layer(geom)
        _check_restrictions(geom, flags if len(flags) <= 400
                            else [()] + rng.sample(flags, 150))
        _check_projection(Projection(geom, random_partition(rng, geom)),
                          set())
        seen += 1
    assert seen == 16


def test_projection_refuses_same_type_incidences(rng):
    # Pregeometry accepts incidences inside a type (validate refuses
    # them); a projection refuses such a source with same_type_incidence's
    # report, as is_geometry does.  The draws given no such pair still
    # go through the deciders and their oracles; they are too few for
    # every decider to answer both ways, which the 520 draws of
    # test_mask_layer_agrees_with_set_layer check
    reasons, decided, same = set(), {}, 0
    for _ in range(150):
        geom = random_pregeometry(rng, max_rank=3, max_per_type=4)
        extra = {(a, b) for members in geom.by_type
                 for a, b in combinations(members, 2) if rng.random() < 0.3}
        geom = Pregeometry(geom.type_names, geom.elem_names, geom.elem_type,
                           set(geom.pairs) | extra)
        same += bool(extra)
        part = random_partition(rng, geom)
        if extra:
            with pytest.raises(ValueError) as refused:
                Projection(geom, part)
            assert str(refused.value) == ("projection: "
                                          + same_type_incidence(geom))
        else:
            proj = Projection(geom, part)
            _check_projection(proj, reasons)
            _check_deciders(proj, decided)
        _check_automorphisms(geom, rng, decided)
    assert 100 <= same < 150, same
    assert decided.pop("total-order") <= BOTH
    assert set(decided) == set(DECIDERS), decided


def test_lifts_and_m_covers_agree_on_relabelled_projections():
    # lift_flag numbers the members of a quotient flag's blocks block by
    # block, so its first lift is the search's least one only if that
    # numbering holds: half the draws are relabelled, so that element
    # order and block order differ.  is_m_cover reads the flag table's
    # rank slice, and its verdict and witness are the walked filter's
    rng = random.Random(5)
    lifts, verdicts, unordered = set(), set(), 0
    for i in range(600):
        geom = (random_geometry(rng) if i % 4 < 2
                else random_pregeometry(rng))
        if i % 2:
            geom = _relabelled(geom, rng)
            unordered += list(geom.elem_type) != sorted(geom.elem_type)
        proj = Projection(geom, random_partition(rng, geom))
        adj = _neighbours(geom)
        for qflag in flags_by_rank_lex(proj.quotient):
            got = lift_flag(proj, qflag)
            assert got == _set_lift_flag(proj, adj, qflag), (geom, qflag)
            lifts.add(got is None)
        for m in range(1, geom.rank):
            got = is_m_cover(proj, m)
            assert got == _walked_is_m_cover(proj, m)
            verdicts.add(got[0])
    assert lifts == verdicts == BOTH
    assert unordered >= 250, unordered


DECIDERS = ("pq1", "pq2", "residually-surjective", "residue-isomorphic",
            "cover", "m-cover", "type-keeping automorphism")


def test_projection_deciders_agree_on_bundled_geometries_and_coseteg7(
        rng, bundled_geometries):
    # the singleton and a random partition of each, and the orbit
    # partition of coseteg-7's action group, whose generators are
    # automorphisms
    decided = {}
    fam = coseteg_family(FiniteGroup.cyclic(7))
    for geom in bundled_geometries + [fam.geometry]:
        for part in singleton_partition(geom), random_partition(rng, geom):
            _check_deciders(Projection(geom, part), decided)
        _check_automorphisms(geom, rng, decided)
    group = fam.action_group()
    _check_deciders(Projection(fam.geometry,
                               orbit_partition(group, fam.geometry)), decided)
    _check_automorphisms(fam.geometry, rng, decided, group.gens)
    assert decided.pop("total-order") <= BOTH
    assert decided == {name: BOTH for name in DECIDERS}, decided


def test_restrictions_agree_with_pair_scan_on_coseteg7(rng):
    geom = coseteg_family(FiniteGroup.cyclic(7)).geometry
    sample = [()] + rng.sample(flags_by_rank_lex(geom), 200)
    assert _check_restrictions(geom, sample) == 201 + 15


def test_cliques_agree_with_set_backtracker(rng):
    graphs = [SimpleGraph.complete(5), SimpleGraph.cycle(7),
              SimpleGraph.path(4), SimpleGraph.matching(3),
              SimpleGraph([], [])]
    for _ in range(60):
        n = rng.randint(1, 9)
        graphs.append(SimpleGraph(
            [str(x) for x in range(n)],
            [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.5]))
    for graph in graphs:
        assert list(all_flags(graph)) == list(_set_all_flags(graph))
        for r in range(-1, 11):
            got = graph.cliques_of_size(r)
            assert got == [c for c in _set_all_flags(graph) if len(c) == r]
            # the walked filter that reading the flag table replaced
            assert got == [c for c in all_flags(graph) if len(c) == r]


def test_is_flag_reads_masks():
    geom = ssg(4, 2)
    p, l = geom.elem("{1}"), geom.elem("{1,2}")
    assert is_flag(geom, [p, l]) and is_flag(geom, [l, p, l])
    assert not is_flag(geom, [geom.elem("{3}"), l])
    assert not is_flag(geom, [p, geom.elem("{2}")])  # same type
    assert is_flag(geom, []) and is_flag(geom, [p])
    empty = Pregeometry(["a"], [], [], [])
    assert list(all_flags(empty)) == [()]
    assert is_geometry(empty) == (False, ())


def test_flags_of_type_index_keeps_its_contract():
    geom = ssg(4, 2)
    points = flags_of_type(geom, [0])
    assert points == [(x,) for x in geom.by_type[0]]
    assert flags_of_type(geom, (0, 0)) == points  # a set of type ids
    assert flags_of_type(geom, {1, 0}) == flags_of_type(geom, [0, 1])
    assert flags_of_type(geom, []) == [()]
    points.clear()  # each call returns a fresh list
    assert flags_of_type(geom, [0]) == [(x,) for x in geom.by_type[0]]
    for bad in ([2], [0, -1]):
        with pytest.raises(ValueError, match="unknown type id"):
            flags_of_type(geom, bad)


def _loop_is_generalized_digon(geom):
    return all(geom.incident(a, b)
               for a in geom.by_type[0] for b in geom.by_type[1])


def _loop_non_incident_pair(geom, xs, ys):
    for a in xs:
        for b in ys:
            if not geom.incident(a, b):
                return a, b
    return None


def _cotype(geom, i, j):
    return [t for t in range(geom.rank) if t not in (i, j)]


def _residue_diagram_evidence(geom):
    evidence = {}
    for i, j in combinations(range(geom.rank), 2):
        flags = flags_of_type(geom, _cotype(geom, i, j))
        witness = next((f for f in flags
                        if not is_generalized_digon(residue(geom, f)[0])),
                       None)
        evidence[(i, j)] = (("no-flags", None) if not flags
                            else ("digons", None) if witness is None
                            else ("edge", witness))
    return evidence


def _residue_is_pure(geom, diag):
    for pair in diag.edges:
        i, j = sorted(pair)
        for flag in flags_of_type(geom, _cotype(geom, i, j)):
            if is_generalized_digon(residue(geom, flag)[0]):
                return False
    return True


def _residue_residually_connected(geom):
    for flag in flags_by_rank_lex(geom):
        if geom.rank - len(flag) < 2:
            continue
        res, _ = residue(geom, flag)
        if res.size == 0 or not is_connected(res):
            return False, flag
    return True, None


def _loop_direct_sum(geom, diag):
    """(applicable, ok, detail): in a residually connected geometry,
    types in distinct diagram components are totally incident; detail is
    the first non-incident pair, or why the property does not apply."""
    if not is_geometry(geom)[0]:
        return False, True, "not a geometry"
    if not _residue_residually_connected(geom)[0]:
        return False, True, "not residually connected"
    comp_of = {t: comp for comp in diag.components() for t in comp}
    for i, j in combinations(range(geom.rank), 2):
        if comp_of[i] == comp_of[j]:
            continue
        pair = _loop_non_incident_pair(geom, geom.by_type[i], geom.by_type[j])
        if pair is not None:
            return True, False, pair
    return True, True, None


def _loop_star_transitive(geom, diag):
    for j in range(geom.rank):
        for i, k in combinations(diag.neighbours(j), 2):
            for aj in geom.by_type[j]:
                near = extensions(geom, (aj,))
                ai_list = [x for x in near if geom.elem_type[x] == i]
                ak_list = [x for x in near if geom.elem_type[x] == k]
                if _loop_non_incident_pair(geom, ai_list, ak_list):
                    return False
    return True


def _check_residue_questions(geom, verdicts):
    """Each residue question on geom against its oracle; verdicts maps
    each question to the set of answers seen."""
    def seen(name, value):
        verdicts.setdefault(name, set()).add(value)
        return value

    for flag in flags_by_rank_lex(geom):
        if len(flag) == geom.rank - 2:
            res, _ = residue(geom, flag)
            assert is_generalized_digon(res) == seen(
                "digon", _loop_is_generalized_digon(res))
    for i, j in combinations(range(geom.rank), 2):
        xs, ys = geom.by_type[i], geom.by_type[j]
        assert non_incident_pair(geom, xs, ys) == _loop_non_incident_pair(
            geom, xs, ys)
    rc = is_residually_connected(geom)
    assert rc == _residue_residually_connected(geom)
    seen("residually-connected", rc[0])
    if not is_geometry(geom)[0]:
        return
    diag = basic_diagram(geom)
    assert diag.evidence == _residue_diagram_evidence(geom)
    assert diag.edges == {frozenset(pair) for pair, (kind, _)
                          in diag.evidence.items() if kind == "edge"}
    seen("edge", bool(diag.edges))


BOTH = {True, False}


def test_residue_questions_agree_with_residue_pregeometries(rng):
    verdicts = {}
    for i in range(520):
        if i % 2:
            geom = random_geometry(rng, max_rank=4, max_per_type=3)
        else:
            geom = random_pregeometry(rng, max_rank=4, max_per_type=4)
        _check_residue_questions(geom, verdicts)
    assert verdicts == {name: BOTH for name in verdicts}, verdicts
    assert len(verdicts) == 3


def test_residue_questions_agree_on_bundled_geometries_and_coseteg7(
        bundled_geometries):
    verdicts = {}
    for geom in bundled_geometries + [
            coseteg_family(FiniteGroup.cyclic(7)).geometry]:
        _check_residue_questions(geom, verdicts)
    assert verdicts == {name: BOTH for name in verdicts}, verdicts
    assert len(verdicts) == 3


def _pair_coset_geometry(cg):
    """CosetGeometry's pregeometry as it was built before masks: the
    pair set of two cosets holding a common group element."""
    coset_of, n = cg.coset_of, len(cg.group)
    pairs = {(coset_of[i][x], coset_of[j][x])
             for i in range(len(coset_of)) for j in range(i + 1, len(coset_of))
             for x in range(n)}
    geom = cg.geometry
    return _pair_built(geom.type_names, geom.elem_names, geom.elem_type,
                       pairs)


def test_coset_geometries_from_masks_agree_with_pair_sets(rng, monkeypatch):
    from geoq import lemmas
    from geoq.cosets import CosetGeometry
    from geoq.lemmas import random_coset_instance
    made = []

    class Recorded(CosetGeometry):
        def __init__(self, group, subgroups):
            super().__init__(group, subgroups)
            made.append(self)

    monkeypatch.setattr(lemmas, "CosetGeometry", Recorded)
    for _ in range(200):
        random_coset_instance(rng)
    families = [coseteg_family(FiniteGroup.cyclic(n)) for n in (2, 3, 5)]
    made += [fam.cg for fam in families]
    ranks = set()
    for cg in made:
        _same_build(cg.geometry, _pair_coset_geometry(cg))
        ranks.add(cg.geometry.rank)
    assert len(made) == 203 and ranks == {2, 3, 4}, ranks


def _fixed_orbit_quotients():
    from geoq.constructions import (multipartite_geometry, shadowable_lift,
                                    ssg_symmetric_action)
    for n in (2, 5, 7):
        fam = coseteg_family(FiniteGroup.cyclic(n))
        yield fam.geometry, fam.action_group()
        yield fam.geometry, fam.n_action_group()
    parent, sym = ssg_symmetric_action(3, 2)
    yield parent, sym
    lift = shadowable_lift(parent, 3, 2)
    yield lift.geometry, lift.wreath_group(sym)
    geom, n_group, g_group = multipartite_geometry(2, 4, 2)
    yield geom, n_group
    yield geom, g_group
    yield hexagon()
    yield eight_cycle()


def test_orbit_partition_agrees_with_checked_partition(rng):
    # orbit_partition takes _orbits' output unchecked (as random_partition
    # takes its draws); the public
    # constructor, which checks the blocks, builds the same partition
    from geoq.lemmas import random_orbit_quotient
    from geoq.perms import PermGroup
    from geoq.quotient import Partition
    instances = list(_fixed_orbit_quotients())
    while len(instances) < 14 + 300:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            instances.append((oq.source, oq.group))
    sizes = set()
    for geom, group in instances:
        got = orbit_partition(group, geom)
        want = Partition(geom, group.orbits())
        assert got == want and type(got) is Partition
        assert (got.blocks, got.block_of) == (want.blocks, want.block_of)
        sizes.add(len(got) < geom.size)
    assert sizes == {True, False}
    geom = hexagon()[0]
    for degree in (geom.size - 1, geom.size + 1):
        with pytest.raises(ValueError, match="group degree"):
            orbit_partition(PermGroup.trivial(degree), geom)


def test_masks_built_geometry_checks_names_and_types():
    # Pregeometry._of_masks refuses what the public constructor refuses,
    # with its message
    cases = [(["A", "B"], ["a", "a"], [0, 1]),
             (["A", "B"], ["a", "b"], [0, 2]),
             (["A", "B"], ["a", "b"], [-1, 1]),
             (["A", "A"], ["a", "b"], [0, 1]),
             (["A", "B"], ["a", "b"], [0])]
    messages = []
    for types, names, etype in cases:
        with pytest.raises(ValueError) as public:
            Pregeometry(types, names, etype, [])
        with pytest.raises(ValueError) as private:
            Pregeometry._of_masks(types, names, etype, [0] * len(names))
        assert str(private.value) == str(public.value)
        messages.append(str(public.value))
    assert messages == ["duplicate element name",
                        "type index out of range: 2",
                        "type index out of range: -1",
                        "duplicate type name",
                        "one type per element required"]


def test_public_constructor_normalises_its_pairs():
    # self-incidence is implicit, a pair and its reverse are one
    # incidence, and geometries that differ in one incidence differ
    geom = Pregeometry(["A", "B"], ["a", "b", "c"], [0, 1, 1],
                       [(0, 0), (1, 0), (0, 1), (2, 2), (0, 2)])
    assert geom.masks == (0b110, 0b001, 0b001)
    assert geom.pairs == {(0, 1), (0, 2)}
    one = Pregeometry(geom.type_names, geom.elem_names, geom.elem_type,
                      [(0, 1)])
    assert one != geom and one.masks == (0b010, 0b001, 0)
    assert hash(one) != hash(geom) or one.masks != geom.masks
    assert repr(one) == "Pregeometry(2 types, 3 elements, 1 incidences)"
    with pytest.raises(ValueError, match=r"out of range: \(0, 3\)"):
        Pregeometry(["A", "B"], ["a", "b", "c"], [0, 1, 1], [(0, 1), (0, 3)])


def _checked_random_partition(rng, geom):
    # random_partition before the unchecked path: the same draws, through
    # the public constructor
    from geoq.quotient import Partition
    blocks = []
    for members in geom.by_type:
        pool = list(members)
        rng.shuffle(pool)
        while pool:
            k = rng.randint(1, len(pool))
            blocks.append(pool[:k])
            pool = pool[k:]
    return Partition(geom, blocks)


def test_random_partition_agrees_with_checked_partition(
        rng, bundled_geometries):
    shapes = set()
    draws = [random_pregeometry(rng) for _ in range(300)]
    for geom in draws + bundled_geometries:
        got, want = _replayed(rng, lambda r: random_partition(r, geom),
                              lambda r: _checked_random_partition(r, geom))
        assert got == want
        assert (got.blocks, got.block_of) == (want.blocks, want.block_of)
        shapes.add((len(got) == geom.size, len(got) == geom.rank))
    assert len(shapes) >= 3, shapes
