"""Acceptance criteria, one test per criterion.

Each criterion calls the checks of ``planarhopf.suites`` at its own domain,
or reads the cached result of a suite check that sweeps that domain.  Every
comparison is exact rational equality.  A wall-clock budget is asserted on
the summed time of the checks read and called.  Each test prints one PASS
line so the whole gate is readable from the pytest -s output.
"""

from conftest import mi, suite_check, suite_results
from planarhopf import suites
from planarhopf.enumeration import _label_trees, typed_trees, typed_trees_up_to
from planarhopf.suites import CheckResult
from planarhopf.trees import RegularityConfig, vertex_count


def _run(fn, *args):
    out = []
    suites._check(out, fn, *args)
    return out[0]


def _criterion(name, results, budget=None, detail=None):
    """Every result passed, inside the budget; print the criterion's line."""
    for r in results:
        assert r.ok, r.line()
    total = CheckResult(name, True, detail or "; ".join(r.detail for r in results),
                        sum(r.seconds for r in results))
    if budget is not None:
        assert total.seconds < budget, f"{name} took {total.seconds:.1f}s"
    print(total.line())


def test_criterion_1_golden_examples():
    results = list(suite_results("golden").values())
    for r in results:
        assert r.seconds < 1.0, f"{r.name} exceeded 1s"
    _criterion("criterion-1 golden examples", results,
               detail=f"{len(results)} goldens, each < 1s")


def test_criterion_2_postlie_axioms():
    # free post-Lie axioms on planar trees over a, b, deformed ones on the
    # Lie generators (planted trees and the unit polynomial vector): the
    # postlie suite sweeps every triple up to a summed size, and odd strides
    # of the next sizes reach a first tree of 6 vertices and planted trees
    # of 3 edges
    planar = suites._tuples([_label_trees(5, ("a", "b"))] * 3, range(4, 6))[::97]
    generators = suites._tuples([suites._lie_generators(3)] * 3, [3])[::41]
    assert max(vertex_count(t) for t, _, _ in planar) == 6
    assert max(vertex_count(x) for triple in generators for x in triple) == 4
    _criterion("criterion-2 post-Lie axioms", [
        suite_check("postlie.associator"), _run(suites.postlie_associator, planar),
        suite_check("postlie.bracket_derivation"),
        _run(suites.postlie_bracket_derivation, planar),
        suite_check("postlie.deformed_axioms"),
        _run(suites.postlie_deformed_axioms, generators)], budget=60)


def test_criterion_3_duality_oracles():
    # planar: the hopf suite's exhaustive sweep; typed under cap 2: every
    # tree <= 2 edges (the deformed suite) and every 55th with 3 edges;
    # the reverse (product) direction, over odd strides of the trees with
    # <= 2 edges, reaches 4-edge outputs
    typed = [typed_trees_up_to(n, max_dec=1, max_edge_dec=1) for n in (1, 2)]
    forward = _run(suites.deformed_duality_forward,
                   typed_trees(3, 1, 1, 1, 1, 1)[::55], mi(2))

    def positive(ts):
        return [t for t in ts if not any(e.is_noise for e, _ in t.children)]

    pairs = [(x, y) for x in positive(typed[0]) + positive(typed[1])[::5]
             for y in typed[0][::3] + typed[1][::29]]
    _criterion("criterion-3 duality oracles", [
        suite_check("hopf.gl_mkw_duality"), suite_check("deformed.duality_forward"),
        forward, _run(suites.deformed_duality_reverse, pairs, mi(3))], budget=300)


def test_criterion_4_cointeraction_planar():
    # the Eulerian normalization on every one-letter forest <= 5 vertices,
    # hence also <= 4
    _criterion("criterion-4 time-cotranslation cointeraction",
               [suite_check("cointeraction.time_cotranslation")])


def test_criterion_5_model():
    _criterion("criterion-5 model axioms", list(suite_results("model").values()),
               budget=300)


def test_criterion_6_sec3_golden():
    cfg = RegularityConfig(d=1, alphas={1: "49/100", 2: "49/100", 3: "49/100"},
                           betas={}, truncation=8)
    _criterion("criterion-6 edge-decorated golden expansions", [
        suite_check("golden.recentering_display"),
        _run(suites.golden_renormalisation_display, cfg)])


def test_criterion_7_typed_lemmas():
    # each lemma on the domain its deformed or negative suite check sweeps
    _criterion("criterion-7 typed-tree lemmas", [suite_check(name) for name in (
        "deformed.almost_derivation", "deformed.polynomial_commutation",
        "negative.insertion_as_product", "negative.pre_lie", "deformed.grading_drop")])


def test_criterion_8_typed_cointeraction(cfg_typed):
    # the worked instance and every tree <= 2 edges come from the
    # cointeraction suite, the 3-edge trees are swept here
    _criterion("criterion-8 typed cointeraction", [
        suite_check("cointeraction.worked_instance"),
        suite_check("cointeraction.typed_small"),
        _run(suites.cointeraction_typed_small, typed_trees(3, 1, 1, 1, 1, 1),
             cfg_typed, mi(2)),
        suite_check("cointeraction.chu_vandermonde")], budget=600)


def test_criterion_9_degeneration():
    # the common-subspace coproducts, the typed product's degeneration and
    # the embedding morphism, all from the deformed and hopf suites
    _criterion("criterion-9 degeneration", [
        suite_check("deformed.degeneration"),
        suite_check("deformed.degenerate_star_plus"),
        suite_check("hopf.embedding_is_morphism")])
