import importlib.util
import itertools
import statistics
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import floor
from operator import itemgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest

from planarhopf import negative
from planarhopf.coactions import admissible_partitions, block_families, lie_project
from planarhopf.deformed import is_unit, planted, tree_dim
from planarhopf.enumeration import nonplanar_trees
from planarhopf.grammar import _latex_tree
from planarhopf.linalg import LinComb, Multiset, Tensor, bilinear
from planarhopf.postlie import (_shuffle_words, b_minus, b_plus, grow_block,
                                read_block, shuffle_many)
from planarhopf.suites import run_suite
from planarhopf.trees import (EdgeType, MultiIndex, NonplanarTree, PlanarTree,
                              RegularityConfig, as_forest, first_noise,
                              forest_key, mi_multinomial, mi_range,
                              mi_range_norm, np_forest, regularity,
                              sequential_binom, to_nonplanar, to_planar)


def _bench_stats():
    """perfbench's order statistics, imported from their file."""
    spec = importlib.util.spec_from_file_location(
        "bench_stats", ROOT / "perfbench" / "bench_stats.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The wall of the run and of each test, read at reference speed: the
# benchmark's calibration loop is timed three times before and after the
# session, and again between tests whenever RECALIBRATE_S seconds have passed
# since the last timing.  Each test phase, and each gap between phases, is
# scaled by the timings nearest to it, as the benchmark scales its ops; the
# calibrations themselves are left out of the reference wall.
CALIBRATIONS = 3
RECALIBRATE_S = 2.0
# samples: (midpoint, seconds) per loop timing; spans: (start, stop, test id)
# per test phase and (start, stop, None) per loop timing, in time order
_clock = {"samples": [], "spans": []}


def _calibrate(times=1):
    for _ in range(times):
        start = time.perf_counter()
        seconds = _clock["stats"].calibrate()
        stop = time.perf_counter()
        _clock["samples"].append(((start + stop) / 2, seconds))
        _clock["spans"].append((start, stop, None))


def pytest_sessionstart(session):
    _clock["stats"] = _bench_stats()
    _calibrate(CALIBRATIONS)
    _clock["start"] = time.perf_counter()


def pytest_runtest_logreport(report):
    stop = time.perf_counter()
    _clock["spans"].append((stop - report.duration, stop, report.nodeid))


def pytest_runtest_logfinish(nodeid, location):
    if time.perf_counter() - _clock["samples"][-1][0] >= RECALIBRATE_S:
        _calibrate()


def pytest_terminal_summary(terminalreporter):
    if "start" not in _clock:
        return
    start, end = _clock["start"], time.perf_counter()
    _calibrate(CALIBRATIONS)
    stats, samples = _clock["stats"], _clock["samples"]
    # the run as test phases and the gaps before and after them
    timed, cursor, calibrating = [], start, 0.0
    for a, b, nodeid in _clock["spans"]:
        if a < start or b > end:
            continue
        timed.append((cursor, a, None))
        if nodeid is None:
            calibrating += b - a
        else:
            timed.append((a, b, nodeid))
        cursor = b
    timed.append((cursor, end, None))
    factors = stats.speed_factors(samples, [(a + b) / 2 for a, b, _ in timed])
    tests, reference = {}, 0.0
    for (a, b, nodeid), factor in zip(timed, factors):
        reference += (b - a) * factor
        if nodeid is not None:
            wall, ref = tests.get(nodeid, (0.0, 0.0))
            tests[nodeid] = (wall + b - a, ref + (b - a) * factor)
    speeds = [stats.REFERENCE_CALIBRATION_S / seconds for _, seconds in samples]
    write = terminalreporter.write_line
    terminalreporter.write_sep("=", "wall at reference speed")
    write(f"machine speed {statistics.median(speeds):.3f} x reference "
          f"(median of {len(samples)} calibration loop timings, "
          f"{min(speeds):.3f} to {max(speeds):.3f}); each test and "
          f"gap scaled by the timings nearest to it")
    write(f"{'wall clock':>12} {'reference':>10}")
    write(f"{end - start - calibrating:11.2f}s {reference:9.2f}s  the whole run "
          f"({calibrating:.2f}s of calibration between tests left out)")
    slowest = sorted(tests.items(), key=lambda kv: -kv[1][0])[:5]
    for nodeid, (wall, ref) in slowest:
        write(f"{wall:11.2f}s {ref:9.2f}s  {nodeid}")


def pytest_sessionfinish(session, exitstatus):
    """Empty the library's memo tables once the tests are done: a full run
    leaves millions of objects in them, and freeing those at
    interpreter exit takes longer than clearing them here."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "planarhopf":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@lru_cache(maxsize=None)
def suite_results(name):
    """One run of a named suite at its default config, shared by every test
    that reads it: {check name: CheckResult}."""
    return {r.name: r for r in run_suite(name)}


def suite_check(name):
    """The cached result of one suite check, e.g. ``hopf.gl_mkw_duality``."""
    return suite_results(name.split(".")[0])[name]


@lru_cache(maxsize=None)
def nonplanar_forests(n, labels) -> tuple:
    """Every non-empty non-planar forest over ``labels`` with at most n
    vertices, once each, in the order of their text."""
    trees = {k: nonplanar_trees(k, labels) for k in range(1, n + 1)}

    def exactly(total):
        if total == 0:
            yield ()
            return
        for k in range(1, total + 1):
            for t in trees[k]:
                for rest in exactly(total - k):
                    yield np_forest((t,) + rest)

    return tuple(sorted({w for m in range(1, n + 1) for w in exactly(m)},
                        key=forest_key))


def over_trees(w, per_tree, mul, unit):
    """The product, under ``mul`` on basis elements, of ``per_tree`` applied
    to each tree of the forest w in turn, starting from ``unit``."""
    out = LinComb.term(unit)
    for t in w:
        out = bilinear(out, per_tree(t), mul)
    return out


def left_cuts(kids: tuple, path=()):
    """Oracle: the left admissible cuts below one vertex, given its child
    entries, by their own recursion (the library reads them as blocks grown
    at the root).

    Yields (groups, trunk children): each group is (trunk path of a vertex,
    the child entries cut there), in root-first discovery order, with the
    vertex itself at ``path``.  Cut edges at one vertex are a leftmost prefix
    of its children that stops before the first noise edge; nothing below a
    cut edge is cut again.
    """
    for k in range(first_noise(kids) + 1):
        kept = kids[k:]
        head = ((path, kids[:k]),) if k else ()
        below = [[(groups, sub.with_children(trunk_kids))
                  for groups, trunk_kids in left_cuts(sub.children, path + (i,))]
                 for i, (_, sub) in enumerate(kept)]
        for combo in itertools.product(*below):
            groups = head
            trunk_children = []
            for (edge, _), (sub_groups, sub_trunk) in zip(kept, combo):
                groups += sub_groups
                trunk_children.append((edge, sub_trunk))
            yield groups, tuple(trunk_children)


def tree_cuts(t: PlanarTree):
    """Oracle: the left admissible cuts of one tree, as (groups, trunk)."""
    for groups, kids in left_cuts(t.children):
        yield groups, t.with_children(kids)


def np_tree_cuts(t: NonplanarTree):
    """Oracle: the admissible cuts of one non-planar tree, as (pruned
    multiset, trunk), by their own recursion (the library reads them as the
    subtrees grown at the root of the planar host)."""
    options = []
    for _, c in t.children:
        options.append([((c,), None)] + list(np_tree_cuts(c)))
    for combo in itertools.product(*options):
        pruned, trunk_children = (), []
        for p, tr in combo:
            pruned += p
            if tr is not None:
                trunk_children.append(tr)
        yield pruned, NonplanarTree(t.dec, tuple(trunk_children))


def np_connected_subsets(host: PlanarTree, root_path):
    """Oracle: every vertex set of ``host`` inducing a connected subtree
    rooted at root_path, by its own recursion."""
    child_sets = []
    for j in range(len(host.subtree(root_path).children)):
        child_sets.append([frozenset()] + list(np_connected_subsets(host, root_path + (j,))))
    for combo in itertools.product(*child_sets):
        yield frozenset({root_path}).union(*combo)


def np_contract(host: PlanarTree, blocks, tags) -> NonplanarTree:
    """Oracle: the host with each block contracted to one vertex labelled by
    its tag, the children that leave a block hung from the new vertex."""
    owner = {v: (b, tag) for b, tag in zip(blocks, tags) for v in b}

    def rebuild(path):
        # only a block's root is reached: its other vertices lie below it
        if path not in owner:
            sub = host.subtree(path)
            return NonplanarTree(sub.dec, tuple(
                rebuild(path + (j,)) for j in range(len(sub.children))))
        b, tag = owner[path]
        return NonplanarTree(tag, tuple(
            rebuild(u + (j,)) for u in sorted(b)
            for j in range(len(host.subtree(u).children)) if u + (j,) not in b))

    return rebuild(())


def extract_block_reference(host: PlanarTree, block) -> tuple:
    """Oracle: a block of ``host`` as an ordered forest, its components in
    planar order of roots, each built vertex by vertex from the host."""
    def build(path) -> PlanarTree:
        node = host.subtree(path)
        kids = tuple((edge, build(path + (j,)))
                     for j, (edge, _) in enumerate(node.children) if path + (j,) in block)
        return PlanarTree._trusted(node.dec, kids, node.ext)

    return tuple(build(v) for v in sorted(block) if not v or v[:-1] not in block)


def rho_np_reference(forest, alphabet, spanning: bool) -> LinComb:
    """Oracle: the non-planar coactions from ``np_connected_subsets`` and
    ``np_contract``, each block extracted by ``extract_block_reference``."""
    host = b_plus(tuple(map(to_planar, as_forest(forest))))
    vertices = list(host.paths())[1:]
    subtrees = [s for v in vertices for s in np_connected_subsets(host, v)]
    out = LinComb()
    for blocks in block_families(vertices, subtrees, spanning):
        for tags in itertools.product(alphabet, repeat=len(blocks)):
            left = Multiset((to_nonplanar(extract_block_reference(host, b)[0]), tag)
                            for b, tag in zip(blocks, tags))
            out.add_term(Tensor((left, tuple(
                c for _, c in np_contract(host, blocks, tags).children))), 1)
    return out


def basis_to_latex_reference(b) -> str:
    """Oracle: ``grammar.basis_to_latex`` drawing a non-planar tree as its
    ``to_planar`` tree, every tree and monomial item drawn anew."""
    if isinstance(b, NonplanarTree):  # a PlanarTree subclass: test it first
        return basis_to_latex_reference(to_planar(b))
    if isinstance(b, PlanarTree):
        return "\\Forest{[" + _latex_tree(b) + "]}"
    if isinstance(b, Multiset):
        if not b:
            return "1"
        return " \\centerdot ".join(basis_to_latex_reference(x) for x in b)
    if isinstance(b, tuple):
        if all(isinstance(t, (PlanarTree, NonplanarTree)) for t in b):
            return "1" if not b else " ".join(basis_to_latex_reference(t) for t in b)
        return " \\otimes ".join(basis_to_latex_reference(x) for x in b)
    return str(b)


def lincomb_to_latex_reference(lc: LinComb) -> str:
    """Oracle: ``grammar.lincomb_to_latex`` over ``basis_to_latex_reference``."""
    if not lc:
        return "0"
    parts = []
    for b, c in lc.items_sorted():
        term = basis_to_latex_reference(b)
        mag = abs(c)
        if mag == 1:
            body = term
        elif mag.denominator == 1:
            body = f"{mag}\\," + term
        else:
            body = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}" + term
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return " ".join(parts)


def block_families_reference(vertices: list, blocks, spanning: bool = False) -> list:
    """Oracle: ``coactions.block_families`` without a step, as a recursion
    that carries no state."""
    order = {v: i for i, v in enumerate(vertices)}
    by_min = {}
    for b in blocks:
        by_min.setdefault(min(b, key=order.get), []).append(b)
    families = []

    def rec(idx: int, used: frozenset, chosen: tuple):
        if idx == len(vertices):
            families.append(chosen)
            return
        v = vertices[idx]
        if v in used:
            rec(idx + 1, used, chosen)
            return
        if not spanning:
            rec(idx + 1, used, chosen)
        for b in by_min.get(v, ()):
            if not b & used:
                rec(idx + 1, used | b, chosen + (b,))

    rec(0, frozenset(), ())
    return families


def contract_reference(host: PlanarTree, blocks, tags) -> LinComb:
    """Oracle: ``coactions.contract`` as one LinComb per vertex, every
    vertex of the host rebuilt."""
    owner = {v: k for k, b in enumerate(blocks) for v in b}

    def assemble(path, node, own) -> LinComb:
        out = LinComb.term(())
        j, n = 0, len(node.children)
        while j < n:
            k = owner.get(path + (j,))
            if k is not None and k == own:
                j += 1
                continue
            edge = node.children[j][0]
            if k is None:
                part = rebuild(path + (j,))
            else:
                part = contract_block(k)
                while j + 1 < n and owner.get(path + (j + 1,)) == k:
                    j += 1
            out = bilinear(out, part, lambda a, t, e=edge: a + ((e, t),))
            j += 1
        return out

    def rebuild(path) -> LinComb:
        node = host.subtree(path)
        return assemble(path, node, None).map_basis(
            lambda ks: PlanarTree._trusted(node.dec, ks, node.ext))

    def contract_block(k) -> LinComb:
        seqs = LinComb.term(())
        for v in sorted(blocks[k]):
            seqs = bilinear(seqs, assemble(v, host.subtree(v), k), _shuffle_words)
        return seqs.map_basis(lambda ks: PlanarTree._trusted(tags[k], ks))

    root = owner.get(())
    return rebuild(()) if root is None else contract_block(root)


def delta_minus_reference(t: PlanarTree, cfg: RegularityConfig,
                          include_root_blocks: bool) -> LinComb:
    """Oracle: typed Delta- as the sum over every family of disjoint blocks
    (``block_families``) and every combination of its blocks' moves
    (``negative._block_moves``), each family contracted in the whole tree.

    A block root never hangs from a noise edge.  A contracted vertex carries
    its move's drop and, when t's root carries an extended decoration, the
    modified block's grading; its children are the shuffle, across the
    block's vertices in order, of each vertex's children outside the block.
    """
    moves = {b: negative._block_moves(t, b, cfg) for root in t.paths()
             if not t.has_incoming_noise(root) and (include_root_blocks or root)
             for b in grow_block(t, root)}
    out = LinComb()
    for family in block_families(list(t.paths()), [b for b in moves if moves[b]]):
        for combo in itertools.product(*(moves[b] for b in family)):
            heads, edges, weight = {}, {}, 1
            for block, (mod, drop, raised, w) in zip(family, combo):
                ext = None if t.ext is None else regularity(mod, cfg)
                heads[min(block)] = (block, drop, ext)
                edges.update(raised)
                weight *= w
            left = Multiset(mod for mod, _, _, _ in combo)
            out.iadd_scaled(_contract_family(t, heads, edges).map_basis(
                lambda tr: Tensor((left, tr))), weight)
    return out


def _contract_family(t: PlanarTree, heads: dict, edges: dict) -> LinComb:
    """t with each block of ``heads`` (block root -> (block, decoration,
    extended decoration)) contracted, each edge of ``edges`` ((vertex, child
    index) -> edge) replaced, every vertex rebuilt."""
    def outside(v, block) -> LinComb:
        # the children of v outside the block, each contracted, in order
        words = LinComb.term(())
        for j, (edge, _) in enumerate(t.subtree(v).children):
            if v + (j,) not in block:
                edge = edges.get((v, j), edge)
                words = bilinear(words, rebuilt(v + (j,)),
                                 lambda a, s, e=edge: a + ((e, s),))
        return words

    def rebuilt(v) -> LinComb:
        if v not in heads:
            node = t.subtree(v)
            return outside(v, ()).map_basis(
                lambda ks: PlanarTree._trusted(node.dec, ks, node.ext))
        block, dec, ext = heads[v]
        words = LinComb.term(())
        for u in sorted(block):
            words = bilinear(words, outside(u, block), _shuffle_words)
        return words.map_basis(lambda ks: PlanarTree._trusted(dec, ks, ext))

    return rebuilt(())


def rho_reference(w, letters, spanning: bool, normalization: str,
                  tagged: bool = True) -> LinComb:
    """Oracle: ``coactions.rho`` by one loop over ``admissible_partitions``,
    the left monomial of every partition and tag tuple multiplied out anew,
    and every contraction by ``contract_reference``."""
    w = as_forest(w)
    host = b_plus(w)
    factors = {}
    out = LinComb()
    for part in admissible_partitions(w, spanning):
        blocks = part.blocks
        for b in blocks:
            if b not in factors:
                lie = lie_project(LinComb.term(extract_block_reference(host, b)),
                                  normalization)
                factors[b] = {tag: lie.map_basis(lambda f, t=tag: Multiset(
                    [(f, t)] if tagged else [f])) for tag in letters}
        for tags in itertools.product(letters, repeat=len(blocks)):
            left = LinComb.term(Multiset())
            for b, tag in zip(blocks, tags):
                left = bilinear(left, factors[b][tag], lambda m1, m2: m1 * m2)
            if left:
                right = contract_reference(host, blocks, tags)
                out.iadd_scaled(bilinear(left, right, lambda m, t: Tensor((m, b_minus(t)))))
    return out


def transfer_moves_reference(t: PlanarTree, vertices, leaving):
    """Oracle: every decoration move of a vertex set and the edges leaving
    it, unbounded, raises in the outer loop; callers filter afterwards.

    ``leaving`` lists (attachment vertex, range of raises) per edge.  Yields
    (new decoration of each vertex, raise per leaving edge, total drop,
    weight), as ``deformed._transfer_moves`` with no bound.
    """
    d = tree_dim(t)
    decs = {v: t.subtree(v).dec for v in vertices}
    droppable = [v for v in vertices if not t.has_incoming_noise(v)]
    drop_opts = [tuple(mi_range(decs[v])) for v in droppable]
    for raises in itertools.product(*(ells for _, ells in leaving)):
        raised_at = {}
        for (v, _), ell in zip(leaving, raises):
            raised_at.setdefault(v, []).append(ell)
        for drops in itertools.product(*drop_opts):
            drop_at = dict(zip(droppable, drops))
            new, total, weight = {}, MultiIndex.zero(d), mi_multinomial(drops)
            for v in vertices:
                dec = decs[v]
                if v in drop_at:
                    dec = dec.sub(drop_at[v])
                    total = total.add(drop_at[v])
                ells = raised_at.get(v)
                if ells:
                    for ell in ells:
                        dec = dec.add(ell)
                    weight *= sequential_binom(dec, ells)
                new[v] = dec
            yield new, raises, total, weight


def delta_plus_reference(t: PlanarTree, cfg) -> LinComb:
    """Oracle: projected typed Δ⁺ over ``transfer_moves_reference``, every
    move's trunk built and every move graded on a probe left tree, the
    concatenation of its branch runs, before shuffling."""
    d = tree_dim(t)
    new_ext = Fraction(0) if t.ext is not None else None
    out = LinComb()
    for block in grow_block(t, ()):
        trunk, leaving = read_block(t, block)
        trunk_paths = list(trunk.paths())
        budget = sum(trunk.subtree(p).dec.norm for p in trunk_paths)
        for *_, entry in leaving:
            budget += regularity(planted(*entry), cfg)
        ells = tuple(mi_range_norm(d, max(0, floor(budget))))
        raisable = [(here, ells) for _, _, here, _ in leaving]
        for decs, raises, drop, weight in transfer_moves_reference(
                trunk, trunk_paths, raisable):
            new_trunk = trunk.with_decs(decs)
            raised = [(v, (edge.with_index(edge.index.add(ell)), sub))
                      for (v, _, _, (edge, sub)), ell in zip(leaving, raises)]
            seqs = [tuple(entry for _, entry in run)
                    for _, run in itertools.groupby(raised, itemgetter(0))]
            probe = PlanarTree._trusted(drop, sum(seqs, ()), new_ext)
            if not is_unit(probe) and regularity(probe, cfg) <= 0:
                continue
            lefts = shuffle_many(seqs).map_basis(
                lambda kids: PlanarTree._trusted(drop, kids, new_ext))
            for left, mult in lefts.items():
                out.add_term(Tensor((left, new_trunk)), weight * mult)
    return out


def mi(*comps):
    return MultiIndex(comps)


def K(idx, which=1):
    return EdgeType("K", which, MultiIndex((idx,)))


def X(idx, which=1):
    return EdgeType("X", which, MultiIndex((idx,)))


def T(dec, *kids):
    return PlanarTree(MultiIndex((dec,)), tuple(kids))


@pytest.fixture
def cfg_pb():
    """Plain-mode grading with all path regularities just under 1/2."""
    return RegularityConfig(d=1, alphas={1: "49/100", 2: "49/100", 3: "49/100",
                                         4: "49/100"}, betas={}, truncation=6)


def typed_cfg(d):
    """Typed-mode grading in dimension d: rough noises, a smoothing kernel."""
    return RegularityConfig(d=d, alphas={1: "-5/8", 2: "-5/8"},
                            betas={1: "1/2", 2: "1/2", 3: "1/2"}, truncation=8)


@pytest.fixture
def cfg_typed():
    return typed_cfg(1)
