"""Acceptance criteria, one test per criterion.

Each criterion calls the checks of ``planarhopf.suites`` at its own domain,
or reads the cached result of a suite check that sweeps that domain.  Every
comparison is exact rational equality.  A wall-clock budget is asserted on
the summed time of the checks read and called.  Each test prints one PASS
line so the whole gate is readable from the pytest -s output.
"""

import random

from conftest import mi, suite_check, suite_results
from planarhopf import suites
from planarhopf.enumeration import typed_trees, typed_trees_up_to
from planarhopf.suites import CheckResult
from planarhopf.trees import RegularityConfig


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
    # free post-Lie axioms on planar trees, deformed ones on the Lie
    # generators (planted trees and the unit polynomial vector)
    rng = random.Random(2024)
    sizes = ((1, 6), (1, 4), (1, 4))
    _criterion("criterion-2 post-Lie axioms", [
        _run(suites.postlie_associator, rng, 260, sizes),
        _run(suites.postlie_bracket_derivation, rng, 260, sizes),
        _run(suites.postlie_deformed_axioms, rng, 130, (1, 3))], budget=60)


def test_criterion_3_duality_oracles():
    # planar: the hopf suite's exhaustive sweep; typed under cap 2: every
    # tree <= 2 edges (the deformed suite) and a seeded sample <= 3 edges;
    # the reverse (product) direction reaches 4-edge outputs
    rng = random.Random(3)
    typed = [typed_trees_up_to(n, max_dec=1, max_edge_dec=1) for n in (1, 2, 3)]
    sample = rng.sample(typed[2], 40)
    forward = _run(suites.deformed_duality_forward, sample, mi(2))

    def positive(ts):
        return [t for t in ts if not any(e.is_noise for e, _ in t.children)]

    pairs = [(x, y) for x in positive(typed[0]) + rng.sample(positive(typed[1]), 20)
             for y in rng.sample(typed[0], 6) + rng.sample(typed[1], 6)]
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


def test_criterion_7_typed_lemmas(cfg_typed):
    rng = random.Random(7)
    _criterion("criterion-7 typed-tree lemmas", [
        _run(suites.deformed_almost_derivation, rng, 120, (1, 3)),
        _run(suites.deformed_polynomial_commutation, rng, 120),
        _run(suites.negative_insertion_as_product, rng, 60),
        _run(suites.negative_pre_lie, rng, 25, cfg_typed),
        _run(suites.deformed_grading_drop, rng, 60, cfg_typed)])


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
